"""Reference (pre-fast-path) kernel the golden-determinism tests compare against.

:class:`ReferenceSimulator` restores the naive kernel semantics this
repository shipped before the hot-path work: the run loop pays a
``step()`` call per event, cancelled handles stay in the heap until
their scheduled time (no compaction), and ``pending_events`` is an
O(n) heap scan.

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
from repro.sim.kernel import Simulator

__all__ = ["ReferenceSimulator"]


class ReferenceSimulator(Simulator):
    """Drop-in :class:`Simulator` with the pre-optimization hot path."""

    def _note_cancelled(self) -> None:
        """Keep the live counter honest but never compact the heap:
        cancelled handles ride along until their scheduled time, as
        they did before compaction existed."""
        self._pending -= 1

    def run(self, until: float = math.inf,
            max_events: Optional[int] = None) -> float:
        """The pre-optimization dispatch loop: peek, then delegate each
        event to :meth:`Simulator.step` (one extra call per event)."""
        if self._running:
            raise SimulationError("Simulator.run() is not re-entrant")
        self._running = True
        dispatched = 0
        try:
            while self._heap:
                time, _, head = self._heap[0]
                if head.cancelled:
                    heapq.heappop(self._heap)
                    self._cancelled -= 1
                    continue
                if time > until:
                    break
                if max_events is not None and dispatched >= max_events:
                    break
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
        return sum(1 for _, _, h in self._heap if not h.cancelled)

    def __repr__(self) -> str:
        return (f"<ReferenceSimulator now={self.now:.1f}us "
                f"pending={self.pending_events} seed={self.seed}>")
