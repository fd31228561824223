"""The kernel dispatches what the reference kernel dispatches.

A hypothesis state machine drives random sequences of kernel calls
(``schedule``, ``schedule_at``, ``cancel`` — of pending, fired and
already-cancelled events — and ``run(until, max_events)``) against
:class:`Simulator` and :class:`ReferenceSimulator` at once, with and
without a tie-break policy (tuple sequence numbers), and compares the
dispatch sequence, ``now``, ``pending_events`` and
``events_dispatched`` after every step.  Fired callbacks schedule and
cancel events of their own, and one burst per run cancels enough
events to cross ``COMPACT_MIN_CANCELLED``, so compaction happens on
one side only.
"""

import math
import random

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.errors import SimulationError
from repro.sim import Simulator
from repro.sim.kernel import COMPACT_MIN_CANCELLED
from tests.sim.reference_kernel import ReferenceSimulator

#: Few distinct delays, so equal-time events (ties) are common.
delays = st.sampled_from((0.0, 0.5, 1.0, 2.0, 7.5, 40.0))
offsets = st.sampled_from((-1.0, 0.0, 0.5, 1.0, 3.0, 10.0, 100.0))


class _SeededTies:
    """Scheduler policy drawing tie-break values from a seeded RNG;
    two instances with one seed give both kernels the same values."""

    def __init__(self, seed):
        self._rng = random.Random(seed)

    def tie_break(self):
        return self._rng.randrange(3)

    def message_delay(self, _wire_bytes):
        return 0.0


class _Side:
    """One kernel, its dispatch log and its handles by event label."""

    def __init__(self, sim):
        self.sim = sim
        self.log = []
        self.handles = {}

    def fire(self, label, child_delay, victim):
        """Log the dispatch; then maybe schedule a child event and
        cancel another event (pending, fired or cancelled)."""
        self.log.append((label, self.sim.now))
        if child_delay is not None:
            self.handles[-label] = self.sim.schedule(
                child_delay, self.fire, -label, None, None)
        if victim is not None and victim in self.handles:
            self.sim.cancel(self.handles[victim])


class KernelDifferentialMachine(RuleBasedStateMachine):

    @initialize(policy=st.booleans(), seed=st.integers(0, 2**16))
    def make(self, policy, seed):
        self.sides = [_Side(Simulator()), _Side(ReferenceSimulator())]
        if policy:
            for side in self.sides:
                side.sim.set_scheduler_policy(_SeededTies(seed))
        self.next_label = 1
        self.burst_done = False

    def _label(self):
        label = self.next_label
        self.next_label += 1
        return label

    def _each(self, call):
        """``call(side)`` on both kernels; both results, or both
        errors, must agree."""
        results = []
        for side in self.sides:
            try:
                results.append(("ok", call(side)))
            except SimulationError:
                results.append(("error", None))
        assert results[0] == results[1]
        return results[0]

    @rule(delay=delays, child_delay=st.none() | delays,
          victim=st.none() | st.integers(1, 40))
    def schedule(self, delay, child_delay, victim):
        label = self._label()
        for side in self.sides:
            side.handles[label] = side.sim.schedule(
                delay, side.fire, label, child_delay, victim)

    @rule(offset=offsets, child_delay=st.none() | delays)
    def schedule_at(self, offset, child_delay):
        label = self._label()

        def call(side):
            side.handles[label] = side.sim.schedule_at(
                side.sim.now + offset, side.fire, label, child_delay, None)

        outcome, _ = self._each(call)
        assert (outcome == "error") == (offset < 0)

    @rule(bad=st.sampled_from((-1.0, math.nan)))
    def schedule_refused(self, bad):
        outcome, _ = self._each(
            lambda side: side.sim.schedule(bad, side.fire, 0, None, None))
        assert outcome == "error"

    @rule(victim=st.integers(1, 40), times=st.integers(1, 2))
    def cancel(self, victim, times):
        """Cancel an event by label, once or twice: a pending, fired or
        cancelled one alike (a no-op for the last two)."""
        for side in self.sides:
            handle = side.handles.get(victim)
            for _ in range(times if handle is not None else 0):
                side.sim.cancel(handle)

    @precondition(lambda self: not self.burst_done)
    @rule(seed=st.integers(0, 2**16))
    def burst(self, seed):
        """Schedule twice ``COMPACT_MIN_CANCELLED`` events and cancel
        all but one in eight, in a seeded order: the kernel compacts
        its heap, the reference does not."""
        self.burst_done = True
        count = 2 * COMPACT_MIN_CANCELLED
        rng = random.Random(seed)
        times = [rng.choice((0.0, 1.0, 2.5, 10.0, 100.0))
                 for _ in range(count)]
        doomed = [i for i in range(count) if i % 8]
        rng.shuffle(doomed)
        for side in self.sides:
            handles = [side.sim.schedule(time, side.fire, -1, None, None)
                       for time in times]
            for i in doomed:
                side.sim.cancel(handles[i])
        fast, reference = (side.sim for side in self.sides)
        assert len(fast._heap) < len(reference._heap)

    @rule(until=st.none() | offsets,
          max_events=st.none() | st.integers(0, 6))
    def run(self, until, max_events):
        def call(side):
            stop = math.inf if until is None else side.sim.now + until
            return side.sim.run(until=stop, max_events=max_events)

        outcome, _ = self._each(call)
        assert outcome == "ok"

    @invariant()
    def kernels_agree(self):
        fast, reference = self.sides
        assert fast.log == reference.log
        assert fast.sim.now == reference.sim.now
        assert fast.sim.pending_events == reference.sim.pending_events
        assert fast.sim.events_dispatched == reference.sim.events_dispatched
        assert fast.sim.events_dispatched == len(fast.log)


KernelDifferentialMachine.TestCase.settings = settings(
    max_examples=120, stateful_step_count=30, deadline=None)
test_kernel_matches_reference = KernelDifferentialMachine.TestCase

