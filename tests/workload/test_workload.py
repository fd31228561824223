"""Tests for load profiles and workload drivers."""

import pytest

from repro.errors import ConfigurationError
from repro.replication import ReplicationStyle
from repro.workload import (
    ClosedLoopClient,
    ConstantRate,
    OpenLoopClient,
    RampProfile,
    SpikeProfile,
    StepProfile,
)
from tests.replication.helpers import build_rig


class TestProfiles:
    def test_constant(self):
        profile = ConstantRate(100.0)
        assert profile.rate_at(0) == 100.0
        assert profile.rate_at(1e9) == 100.0

    def test_constant_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            ConstantRate(-1.0)

    def test_step_profile(self):
        profile = StepProfile([(0.0, 10.0), (1000.0, 50.0),
                               (2000.0, 20.0)])
        assert profile.rate_at(500.0) == 10.0
        assert profile.rate_at(1000.0) == 50.0
        assert profile.rate_at(5000.0) == 20.0

    def test_step_profile_implicit_zero_start(self):
        profile = StepProfile([(1000.0, 50.0)])
        assert profile.rate_at(0.0) == 0.0

    def test_step_profile_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            StepProfile([])

    def test_ramp(self):
        profile = RampProfile(start_rate=0.0, end_rate=100.0,
                              duration_us=1000.0)
        assert profile.rate_at(0.0) == 0.0
        assert profile.rate_at(500.0) == pytest.approx(50.0)
        assert profile.rate_at(5000.0) == 100.0

    def test_spike(self):
        profile = SpikeProfile(base_rate=10.0, spike_rate=100.0,
                               spike_start_us=1000.0, spike_end_us=2000.0)
        assert profile.rate_at(500.0) == 10.0
        assert profile.rate_at(1500.0) == 100.0
        assert profile.rate_at(2500.0) == 10.0

    def test_spike_validates_window(self):
        with pytest.raises(ConfigurationError):
            SpikeProfile(10.0, 100.0, 2000.0, 1000.0)

    @pytest.mark.parametrize("make", [
        lambda nan: ConstantRate(nan),
        lambda nan: StepProfile([(0.0, 10.0), (1000.0, nan)]),
        lambda nan: RampProfile(nan, 10.0, 1000.0),
        lambda nan: RampProfile(0.0, nan, 1000.0),
        lambda nan: RampProfile(0.0, 10.0, nan),
        lambda nan: SpikeProfile(nan, 100.0, 1000.0, 2000.0),
        lambda nan: SpikeProfile(10.0, nan, 1000.0, 2000.0),
        lambda nan: SpikeProfile(10.0, 100.0, nan, 2000.0),
        lambda nan: SpikeProfile(10.0, 100.0, 1000.0, nan)])
    def test_nan_rejected(self, make):
        with pytest.raises(ConfigurationError):
            make(float("nan"))

    def test_peak(self):
        profile = SpikeProfile(base_rate=10.0, spike_rate=100.0,
                               spike_start_us=1000.0,
                               spike_end_us=50_000.0)
        assert profile.peak(100_000.0) == 100.0


class TestClosedLoop:
    def test_completes_requested_cycle(self):
        testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
        loader = ClosedLoopClient(clients[0], 20)
        loader.start()
        testbed.run(60_000_000)
        assert loader.done
        assert loader.stats.completed == 20
        assert len(loader.stats.latencies_us) == 20

    def test_latency_stats(self):
        testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
        loader = ClosedLoopClient(clients[0], 10)
        loader.start()
        testbed.run(60_000_000)
        assert loader.stats.mean_latency_us > 0
        assert loader.stats.jitter_us >= 0

    def test_pipelines_one_at_a_time(self):
        """Closed loop means at most one outstanding request."""
        testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
        loader = ClosedLoopClient(clients[0], 5)
        loader.start()
        testbed.run(3_000)
        assert len(clients[0].replicator._outstanding) <= 1

    def test_cannot_start_twice(self):
        testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
        loader = ClosedLoopClient(clients[0], 5)
        loader.start()
        with pytest.raises(ConfigurationError):
            loader.start()

    def test_dies_with_process(self):
        testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
        loader = ClosedLoopClient(clients[0], 1000)
        loader.start()
        testbed.run(100_000)
        clients[0].process.kill()
        done_at_kill = loader.stats.completed
        testbed.run(5_000_000)
        assert loader.stats.completed == done_at_kill

    def test_invalid_count(self):
        testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
        with pytest.raises(ConfigurationError):
            ClosedLoopClient(clients[0], 0)


class TestOpenLoop:
    def test_sends_at_configured_rate(self):
        testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
        loader = OpenLoopClient(clients[0], ConstantRate(500.0),
                                duration_us=2_000_000)
        loader.start()
        testbed.run(2_500_000)
        # ~500 req/s for 2 s -> about 1000 requests.
        assert 900 <= loader.stats.sent <= 1100

    def test_stops_after_duration(self):
        testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
        loader = OpenLoopClient(clients[0], ConstantRate(200.0),
                                duration_us=1_000_000)
        loader.start()
        testbed.run(5_000_000)
        sent_then = loader.stats.sent
        testbed.run(2_000_000)
        assert loader.stats.sent == sent_then

    def test_poisson_arrivals_rate_close(self):
        testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE,
                                               seed=5)
        loader = OpenLoopClient(clients[0], ConstantRate(500.0),
                                duration_us=2_000_000, poisson=True)
        loader.start()
        testbed.run(3_000_000)
        assert 750 <= loader.stats.sent <= 1250

    def test_zero_rate_sends_nothing(self):
        testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
        loader = OpenLoopClient(clients[0], ConstantRate(0.0),
                                duration_us=1_000_000)
        loader.start()
        testbed.run(2_000_000)
        assert loader.stats.sent == 0

    def test_invalid_duration(self):
        testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
        with pytest.raises(ConfigurationError):
            OpenLoopClient(clients[0], ConstantRate(10.0), duration_us=0)
