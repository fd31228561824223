"""Unit tests for the stable checkpoint store, plus the SAFE-grade
checkpoint option."""

import pytest

from repro.replication import ReplicationStyle, StableStore
from repro.sim import Simulator
from tests.replication.helpers import (
    build_rig,
    counter_values,
    timed_call,
)


class TestStableStore:
    def test_write_then_read(self):
        sim = Simulator()
        store = StableStore(sim)
        store.write("grp", 1, {"v": 5}, 100)
        results = []
        sim.run()
        store.read("grp", results.append)
        sim.run()
        assert results[0].state == {"v": 5}
        assert results[0].ckpt_id == 1

    def test_read_missing_group_gives_none(self):
        sim = Simulator()
        store = StableStore(sim)
        results = []
        store.read("ghost", results.append)
        sim.run()
        assert results == [None]

    def test_overwrite_semantics(self):
        sim = Simulator()
        store = StableStore(sim)
        store.write("grp", 1, "old", 10)
        store.write("grp", 2, "new", 10)
        sim.run()
        results = []
        store.read("grp", results.append)
        sim.run()
        assert results[0].state == "new"

    def test_write_cost_scales_with_size(self):
        sim = Simulator()
        store = StableStore(sim, write_fixed_us=100.0,
                            write_per_byte_us=1.0)
        done = []
        store.write("a", 1, "x", 0, on_done=lambda: done.append(sim.now))
        store.write("b", 1, "y", 1000,
                    on_done=lambda: done.append(sim.now))
        sim.run()
        small, big = sorted(done)
        assert small == pytest.approx(100.0)
        assert big == pytest.approx(1100.0)

    def test_counters(self):
        sim = Simulator()
        store = StableStore(sim)
        store.write("grp", 1, "s", 256)
        store.read("grp", lambda snapshot: None)
        sim.run()
        assert store.writes == 1
        assert store.reads == 1
        assert store.bytes_written == 256

    def test_write_completion_callback_optional(self):
        sim = Simulator()
        store = StableStore(sim)
        store.write("grp", 1, "s", 10)  # no on_done: must not raise
        sim.run()
        results = []
        store.read("grp", results.append)
        sim.run()
        assert results[0] is not None


class TestSafeCheckpoints:
    def _rig(self, safe):
        from repro.experiments import (Testbed, deploy_client,
                                       deploy_replica_group)
        from repro.orb import CounterServant
        from repro.replication import (ClientReplicationConfig,
                                       ReplicationConfig)
        testbed = Testbed.paper_testbed(3, 1, seed=0)
        config = ReplicationConfig(style=ReplicationStyle.WARM_PASSIVE,
                                   group="svc", safe_checkpoints=safe)
        replicas = deploy_replica_group(testbed, ["s01", "s02", "s03"],
                                        config,
                                        {"counter": CounterServant})
        client = deploy_client(testbed, "w01", ClientReplicationConfig(
            group="svc",
            expected_style=ReplicationStyle.WARM_PASSIVE))
        testbed.run(100_000)
        return testbed, replicas, client

    def test_safe_checkpoints_preserve_semantics(self):
        testbed, replicas, client = self._rig(safe=True)
        replies = []
        client.orb_client.invoke("counter", "add", 6, 32, replies.append)
        testbed.run(3_000_000)
        assert replies and replies[0].payload == 6
        values = [r.servants["counter"].value for r in replicas]
        assert values == [6, 6, 6]

    def test_safe_checkpoints_slower_replies(self):
        """SAFE stability waits for every backup daemon to hold the
        state update, so checkpoint-covered replies take longer."""
        def latency(safe):
            testbed, replicas, client = self._rig(safe)
            return timed_call(testbed, client, "add", 1,
                              timeout_us=3_000_000)[1]

        assert latency(True) > latency(False)
