"""Unit tests for the discrete-event kernel."""

import math

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_schedule_and_run_fires_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(30.0, fired.append, "c")
    sim.schedule(10.0, fired.append, "a")
    sim.schedule(20.0, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_ties_break_in_scheduling_order():
    sim = Simulator()
    fired = []
    for label in ("first", "second", "third"):
        sim.schedule(5.0, fired.append, label)
    sim.run()
    assert fired == ["first", "second", "third"]


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(42.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [42.5]
    assert sim.now == 42.5


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(10.0, fired.append, "early")
    sim.schedule(100.0, fired.append, "late")
    sim.run(until=50.0)
    assert fired == ["early"]
    assert sim.now == 50.0
    sim.run()
    assert fired == ["early", "late"]


def test_run_until_advances_clock_even_without_events():
    sim = Simulator()
    sim.run(until=1000.0)
    assert sim.now == 1000.0


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_at_in_past_rejected():
    sim = Simulator()
    sim.schedule(10.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(5.0, lambda: None)


def test_nan_time_rejected():
    # A NaN-timed handle compares false both ways and breaks heap order.
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(math.nan, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule_at(math.nan, lambda: None)
    assert sim.pending_events == 0


def test_non_callable_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(1.0, "not a function")


def test_cancel_prevents_firing():
    sim = Simulator()
    fired = []
    handle = sim.schedule(10.0, fired.append, "x")
    handle.cancel()
    sim.run()
    assert fired == []


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.schedule(10.0, lambda: None)
    handle.cancel()
    handle.cancel()
    sim.run()


def test_cancel_after_fire_is_noop():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    sim.run()
    handle.cancel()
    assert fired == ["x"]


def test_pending_property():
    sim = Simulator()
    handle = sim.schedule(10.0, lambda: None)
    assert handle.pending
    handle.cancel()
    assert not handle.pending


def test_events_scheduled_during_run_are_dispatched():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 5:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 1)
    sim.run()
    assert fired == [1, 2, 3, 4, 5]
    assert sim.now == 4.0


def test_zero_delay_event_fires_at_same_time():
    sim = Simulator()
    times = []
    sim.schedule(10.0, lambda: sim.schedule(0.0, lambda: times.append(sim.now)))
    sim.run()
    assert times == [10.0]


def test_max_events_limits_dispatch():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(float(i + 1), fired.append, i)
    sim.run(max_events=3)
    assert fired == [0, 1, 2]


def test_step_returns_false_when_drained():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    assert sim.step() is True
    assert sim.step() is False


def test_pending_events_counts_uncancelled():
    sim = Simulator()
    h1 = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending_events == 2
    h1.cancel()
    assert sim.pending_events == 1


def test_events_dispatched_counter():
    sim = Simulator()
    for i in range(4):
        sim.schedule(float(i), lambda: None)
    sim.run()
    assert sim.events_dispatched == 4


def test_run_is_not_reentrant():
    sim = Simulator()
    errors = []

    def reenter():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(1.0, reenter)
    sim.run()
    assert len(errors) == 1


def test_determinism_same_seed_same_trace():
    def run(seed):
        sim = Simulator(seed=seed)
        values = []

        def tick(n):
            values.append((sim.now, sim.rng.random()))
            if n > 0:
                sim.schedule(sim.rng.uniform(1, 10), tick, n - 1)

        sim.schedule(0.0, tick, 20)
        sim.run()
        return values

    assert run(7) == run(7)
    assert run(7) != run(8)


def test_run_until_idle_returns_final_time():
    sim = Simulator()
    sim.schedule(123.0, lambda: None)
    assert sim.run_until_idle() == 123.0


def test_repr_mentions_time_and_pending():
    sim = Simulator(seed=3)
    sim.schedule(1.0, lambda: None)
    text = repr(sim)
    assert "pending=1" in text and "seed=3" in text


def test_pending_counter_tracks_dispatch_and_cancel():
    sim = Simulator()
    handles = [sim.schedule(float(i + 1), lambda: None) for i in range(6)]
    assert sim.pending_events == 6
    handles[0].cancel()
    handles[1].cancel()
    handles[1].cancel()  # double cancel must not double-decrement
    assert sim.pending_events == 4
    sim.run(until=4.0)   # dispatches events at t=3 and t=4
    assert sim.pending_events == 2
    sim.run()
    assert sim.pending_events == 0


def test_cancel_after_fire_does_not_corrupt_counter():
    sim = Simulator()
    handle = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    sim.run(until=1.0)
    handle.cancel()  # already fired: must be a true no-op
    assert sim.pending_events == 1


def test_max_events_not_consumed_by_cancelled_head():
    """A cancelled head popped by run() must not count toward
    max_events, and the budget is re-checked before every pop."""
    sim = Simulator()
    fired = []
    doomed = sim.schedule(1.0, fired.append, "doomed")
    sim.schedule(2.0, fired.append, "a")
    sim.schedule(3.0, fired.append, "b")
    doomed.cancel()
    sim.run(max_events=2)
    assert fired == ["a", "b"]


def test_max_events_zero_dispatches_nothing():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, "x")
    handle.cancel()
    sim.schedule(2.0, fired.append, "y")
    sim.run(max_events=0)
    assert fired == []
    assert sim.now == 0.0


def test_heap_compaction_preserves_dispatch_order():
    from repro.sim.kernel import COMPACT_MIN_CANCELLED

    sim = Simulator()
    fired = []
    survivors = []
    doomed = []
    for i in range(2 * COMPACT_MIN_CANCELLED):
        handle = sim.schedule(float(i + 1), fired.append, i)
        (survivors if i % 8 == 0 else doomed).append((i, handle))
    for _, handle in doomed:
        handle.cancel()
    # Compaction has kicked in at least once: the heap is strictly
    # smaller than the number of events ever scheduled.
    assert len(sim._heap) < 2 * COMPACT_MIN_CANCELLED
    assert sim.pending_events == len(survivors)
    sim.run()
    assert fired == [i for i, _ in survivors]


def test_compaction_during_run_is_safe():
    """Mass-cancelling from inside a callback triggers compaction
    while run() iterates; dispatch must continue correctly."""
    from repro.sim.kernel import COMPACT_MIN_CANCELLED

    sim = Simulator()
    fired = []
    handles = [sim.schedule(float(i + 10), fired.append, i)
               for i in range(2 * COMPACT_MIN_CANCELLED)]

    def massacre():
        for handle in handles[:-1]:
            handle.cancel()

    sim.schedule(1.0, massacre)
    sim.schedule(5.0, fired.append, "mid")
    sim.run()
    assert fired == ["mid", len(handles) - 1]
    assert sim.pending_events == 0


class _ScriptedTies:
    """Scheduler policy whose tie-break values come from a fixed list."""

    def __init__(self, ties):
        self._ties = iter(ties)

    def tie_break(self):
        return next(self._ties)

    def message_delay(self, _wire_bytes):
        return 0.0


def test_equal_times_dispatch_in_seq_order():
    """Many events at a handful of times, scheduled out of time order
    through both entry points: each time's events fire in the order
    they were scheduled (their ``seq``), by run() and by step()."""
    for drive in ("run", "step"):
        sim = Simulator()
        fired = []
        expected = []
        for i in range(200):
            time = float((i * 7) % 5)
            if i % 2:
                sim.schedule(time, fired.append, (time, i))
            else:
                sim.schedule_at(time, fired.append, (time, i))
            expected.append((time, i))
        if drive == "run":
            sim.run()
        else:
            while sim.step():
                pass
        assert fired == sorted(expected)


def test_equal_times_dispatch_in_policy_seq_order():
    """Under a scheduler policy ``seq`` is ``(tie, n)``: equal-time
    events fire by tie-break value, then by scheduling order."""
    ties = [(i * 5) % 3 for i in range(60)]
    sim = Simulator()
    sim.set_scheduler_policy(_ScriptedTies(ties))
    fired = []
    for i in range(60):
        sim.schedule(float(i % 2), fired.append, i)
    sim.run()
    assert fired == sorted(range(60), key=lambda i: (i % 2, ties[i], i))


def test_tie_break_consulted_once_per_schedule_and_swap_keeps_counter():
    """Each ``schedule`` / ``schedule_at`` calls the installed policy's
    ``tie_break`` exactly once, in call order; dispatch never does.
    After a swap the new policy is consulted and ``n`` continues."""
    calls = []

    def ties(tag):
        for i in range(5):
            calls.append((tag, i))
            yield i % 2

    sim = Simulator()
    sim.set_scheduler_policy(_ScriptedTies(ties("first")))
    first = [sim.schedule(1.0, lambda: None),
             sim.schedule_at(2.0, lambda: None),
             sim.schedule(0.0, lambda: None)]
    assert calls == [("first", 0), ("first", 1), ("first", 2)]
    assert [h.seq for h in first] == [(0, 0), (1, 1), (0, 2)]
    sim.run(until=1.5)
    assert len(calls) == 3

    sim.swap_scheduler_policy(_ScriptedTies(ties("second")))
    second = [sim.schedule_at(3.0, lambda: None),
              sim.schedule(0.5, lambda: None)]
    assert calls[3:] == [("second", 0), ("second", 1)]
    assert [h.seq for h in second] == [(0, 3), (1, 4)]
    sim.run()
    assert len(calls) == 5


def test_policy_install_order_is_enforced():
    sim = Simulator()
    with pytest.raises(SimulationError, match="set_scheduler_policy"):
        sim.swap_scheduler_policy(_ScriptedTies([]))
    sim.schedule(1.0, lambda: None)
    with pytest.raises(SimulationError, match="before any event"):
        sim.set_scheduler_policy(_ScriptedTies([]))
