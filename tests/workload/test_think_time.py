"""Unit tests for the think-time (closed-loop, rate-profiled) client."""

import pytest

from repro.errors import ConfigurationError
from repro.replication import ReplicationStyle
from repro.workload import ConstantRate, SpikeProfile, ThinkTimeClient
from tests.replication.helpers import build_rig


def test_observed_rate_tracks_profile_when_latency_small():
    """With think time >> latency, the observed rate approaches the
    profile rate."""
    testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
    loader = ThinkTimeClient(clients[0], ConstantRate(50.0),
                             duration_us=2_000_000)
    loader.start()
    testbed.run(3_000_000)
    observed = loader.stats.completed / 2.0  # per second
    assert observed == pytest.approx(50.0, rel=0.15)


def test_observed_rate_throttled_by_latency():
    """With think time << latency, the loop is latency-bound: the
    observed rate is ~1/latency regardless of the offered rate."""
    testbed, replicas, clients = build_rig(ReplicationStyle.WARM_PASSIVE)
    loader = ThinkTimeClient(clients[0], ConstantRate(5000.0),
                             duration_us=2_000_000)
    loader.start()
    testbed.run(4_000_000)
    latency = loader.stats.mean_latency_us
    expected_rate = 1e6 / (latency + 200.0)  # think = 200 us at 5000/s
    observed = loader.stats.completed / (2.0 + latency / 1e6)
    assert observed == pytest.approx(expected_rate, rel=0.2)


def test_never_more_than_one_outstanding():
    testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
    loader = ThinkTimeClient(clients[0], ConstantRate(1000.0),
                             duration_us=500_000)
    loader.start()
    for _ in range(20):
        testbed.run(20_000)
        assert len(clients[0].replicator._outstanding) <= 1


def test_stops_after_duration():
    testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
    loader = ThinkTimeClient(clients[0], ConstantRate(200.0),
                             duration_us=1_000_000)
    loader.start()
    testbed.run(3_000_000)
    sent = loader.stats.sent
    testbed.run(2_000_000)
    assert loader.stats.sent == sent
    assert loader.stats.completed == sent


def test_spike_profile_changes_pace():
    testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
    profile = SpikeProfile(base_rate=20.0, spike_rate=400.0,
                           spike_start_us=1_000_000,
                           spike_end_us=2_000_000)
    loader = ThinkTimeClient(clients[0], profile, duration_us=3_000_000)
    loader.start()
    testbed.run(4_000_000)
    times = loader.stats.completion_times
    in_spike = sum(1 for t in times if 1_000_000 <= t - times[0]
                   <= 2_000_000)
    outside = len(times) - in_spike
    assert in_spike > outside


def test_cannot_start_twice():
    testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
    loader = ThinkTimeClient(clients[0], ConstantRate(10.0),
                             duration_us=1_000_000)
    loader.start()
    with pytest.raises(ConfigurationError):
        loader.start()


def test_invalid_duration():
    testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
    with pytest.raises(ConfigurationError):
        ThinkTimeClient(clients[0], ConstantRate(10.0), duration_us=0)


def test_zero_rate_phase_idles_then_resumes():
    testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
    from repro.workload import StepProfile
    profile = StepProfile([(0.0, 100.0), (500_000.0, 0.0),
                           (1_500_000.0, 100.0)])
    loader = ThinkTimeClient(clients[0], profile, duration_us=2_500_000)
    loader.start()
    testbed.run(4_000_000)
    times = [t - loader.started_at for t in loader.stats.completion_times]
    quiet = [t for t in times if 600_000 < t < 1_400_000]
    busy_late = [t for t in times if t > 1_600_000]
    assert len(quiet) <= 2  # at most stragglers in the quiet window
    assert busy_late  # traffic resumed
