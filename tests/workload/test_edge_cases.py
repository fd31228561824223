"""Edge cases for the workload drivers.

Zero-rate profile segments, profiles that run out before the client
does, and closed-loop clients caught by a shard migration mid-cycle.
"""

import pytest

from repro.cluster import ShardSpec, deploy_cluster, deploy_cluster_client
from repro.errors import ConfigurationError
from repro.experiments.testbed import Testbed
from repro.orb import CounterServant
from repro.replication import ReplicationStyle
from repro.workload import (
    ClosedLoopClient,
    ConstantRate,
    OpenLoopClient,
    StepProfile,
)
from tests.replication.helpers import build_rig
from tests.support import live_primary


class TestZeroRateSegments:
    def test_open_loop_idles_through_a_zero_rate_window(self):
        testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
        profile = StepProfile([(0.0, 200.0), (200_000.0, 0.0),
                               (600_000.0, 200.0)])
        loader = OpenLoopClient(clients[0], profile,
                                duration_us=1_000_000)
        start = testbed.sim.now
        loader.start()
        testbed.run(2_000_000)
        assert loader.stats.sent > 0
        # No arrival fires inside the zero-rate window.  The bound is
        # strict: one last arrival scheduled just before the boundary
        # (when the rate was still positive) may land exactly on it.
        gap = [t - start for t in loader.send_times
               if 200_000.0 < t - start < 600_000.0]
        assert gap == []
        resumed = [t - start for t in loader.send_times
                   if t - start >= 600_000.0]
        assert resumed  # arrivals resume after the window
        assert loader.stats.completed == loader.stats.sent

    def test_open_loop_profile_starting_at_zero_eventually_sends(self):
        testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
        # An implicit (0, 0.0) leading segment: nothing until 300 ms.
        profile = StepProfile([(300_000.0, 400.0)])
        loader = OpenLoopClient(clients[0], profile,
                                duration_us=800_000)
        start = testbed.sim.now
        loader.start()
        testbed.run(1_500_000)
        assert loader.stats.sent > 0
        assert min(loader.send_times) - start >= 300_000.0


class TestProfileExhaustion:
    def test_step_profile_holds_last_rate_past_its_steps(self):
        profile = StepProfile([(0.0, 100.0), (100_000.0, 40.0)])
        assert profile.rate_at(10_000_000.0) == 40.0

    def test_duration_expiring_during_idle_phase_stops_cleanly(self):
        testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
        # Rate drops to zero before the duration ends: the client is
        # in its idle re-check loop when the run expires, and must not
        # keep polling (or sending) afterwards.
        profile = StepProfile([(0.0, 300.0), (150_000.0, 0.0)])
        loader = OpenLoopClient(clients[0], profile,
                                duration_us=400_000)
        loader.start()
        testbed.run(1_000_000)
        sent_then = loader.stats.sent
        testbed.run(5_000_000)
        assert loader.stats.sent == sent_then
        assert loader.stats.completed == sent_then

    def test_open_loop_mid_flight_requests_complete_after_duration(self):
        testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
        loader = OpenLoopClient(clients[0], ConstantRate(500.0),
                                duration_us=500_000)
        loader.start()
        testbed.run(5_000_000)
        # Arrivals stop at the deadline but replies still drain.
        assert loader.stats.completed == loader.stats.sent > 0


class TestClosedLoopAcrossMigration:
    def _cluster(self, seed=0):
        testbed = Testbed.paper_testbed(4, 1, seed=seed)
        specs = [ShardSpec(name="shard0", n_replicas=2,
                           hosts=("s01", "s02")),
                 ShardSpec(name="shard1", n_replicas=2,
                           hosts=("s03", "s04"))]
        keys = ["k0", "k1"]
        cluster = deploy_cluster(testbed, specs, keys,
                                 servant_factory=lambda k: CounterServant())
        stack = deploy_cluster_client(cluster, "w01")
        testbed.run(150_000)
        return testbed, cluster, stack, keys

    def test_cycle_survives_a_mid_run_shard_switch(self):
        testbed, cluster, stack, keys = self._cluster()
        loader = ClosedLoopClient(stack, 30, object_keys=keys,
                                  operation="add", payload=1)
        loader.start()
        testbed.run(20_000)
        # Move one key while the cycle is in flight.
        moved = cluster.coordinator.rebalance(keys[0], "shard1")
        assert moved is not None
        testbed.run(60_000_000)
        assert cluster.coordinator.migrations_committed == 1
        assert loader.done
        assert loader.stats.completed == 30
        assert len(loader.stats.latencies_us) == 30

    def test_round_robin_spreads_a_cycle_over_both_shards(self):
        testbed, cluster, stack, keys = self._cluster(seed=2)
        loader = ClosedLoopClient(stack, 10, object_keys=keys,
                                  operation="add", payload=1)
        loader.start()
        testbed.run(60_000_000)
        assert loader.done
        # Request i targeted keys[i % 2]: each counter took 5 adds.
        for shard, key in (("shard0", "k0"), ("shard1", "k1")):
            primary = live_primary(cluster.shards[shard])
            assert primary.orb_server.servant(key).value == 5

    def test_object_keys_must_be_non_empty(self):
        testbed, cluster, stack, keys = self._cluster()
        with pytest.raises(ConfigurationError):
            ClosedLoopClient(stack, 5, object_keys=[])
