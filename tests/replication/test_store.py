"""Unit tests for the stable checkpoint store."""

import pytest

from repro.replication import StableStore
from repro.sim import Simulator


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

    def test_reply_cache_rides_uncharged(self):
        sim = Simulator()
        store = StableStore(sim, write_fixed_us=100.0,
                            write_per_byte_us=1.0)
        done = []
        store.write("grp", 1, {"v": 5}, 10,
                    on_done=lambda: done.append(sim.now),
                    sessions={"w01/1": "session"})
        sim.run()
        results = []
        store.read("grp", results.append)
        sim.run()
        assert results[0].sessions == {"w01/1": "session"}
        assert done == [pytest.approx(110.0)]

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
