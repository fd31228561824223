"""Reference (pre-fast-path) kernel the golden-determinism tests compare against.

:class:`ReferenceSimulator` restores the naive kernel semantics this
repository shipped before the hot-path work: the run loop pays a
``step()`` call per event, cancelled entries stay in the heap until
their scheduled time (no compaction), and ``pending_events`` is an
O(n) heap scan.  :meth:`ReferenceSimulator.step`, the single-event
dispatch, lives only here.

``test_golden_determinism.py`` swaps it into the testbed and asserts
byte-identical traces, telemetry and journals — proving the fast path
is a pure optimization.

Event *ordering* is identical to :class:`repro.sim.Simulator` by
construction: sequence numbers are allocated in the same order and
event times are computed with the same arithmetic, so a seeded run
produces the same trace on either kernel (the regression test pins
this).
"""

from __future__ import annotations

import heapq
import math
from typing import Optional

from repro.errors import SimulationError
from repro.sim.kernel import Simulator, _fired

__all__ = ["ReferenceSimulator"]


class ReferenceSimulator(Simulator):
    """Drop-in :class:`Simulator` with the pre-optimization hot path."""

    def cancel(self, handle: list) -> None:
        """Keep the live counter honest but never compact the heap:
        cancelled entries ride along until their scheduled time, as
        they did before compaction existed."""
        if handle[2] is None or handle[2] is _fired:
            return
        handle[2] = None
        handle[3] = ()
        self._pending -= 1

    def step(self) -> bool:
        """Dispatch the single next event.

        Returns False when the event queue is exhausted.
        """
        heap = self._heap
        while heap:
            entry = heapq.heappop(heap)
            time, _, callback, args = entry
            if callback is None:
                self._cancelled -= 1
                continue
            if time < self.now:
                raise SimulationError(
                    f"event at t={time} is in the past (now={self.now})")
            self.now = time
            entry[2] = _fired
            self._pending -= 1
            self._events_dispatched += 1
            callback(*args)
            return True
        return False

    def run(self, until: float = math.inf,
            max_events: Optional[int] = None) -> float:
        """The pre-optimization dispatch loop: peek, then delegate each
        event to :meth:`step` (one extra call per event)."""
        if self._running:
            raise SimulationError("Simulator.run() is not re-entrant")
        self._running = True
        dispatched = 0
        try:
            while self._heap:
                time, _, callback, _ = self._heap[0]
                if callback is None:
                    heapq.heappop(self._heap)
                    self._cancelled -= 1
                    continue
                if time > until:
                    break
                if max_events is not None and dispatched >= max_events:
                    # A live event at or before ``until`` stays queued:
                    # the clock stays at the last one dispatched.
                    return self.now
                self.step()
                dispatched += 1
        finally:
            self._running = False
        if until is not math.inf and until > self.now:
            self.now = until
        return self.now

    @property
    def pending_events(self) -> int:
        """O(n) heap scan, as before the live counter."""
        return sum(1 for entry in self._heap if entry[2] is not None)

    def __repr__(self) -> str:
        return (f"<ReferenceSimulator now={self.now:.1f}us "
                f"pending={self.pending_events} seed={self.seed}>")
