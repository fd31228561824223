"""Client-observed operation histories.

The linearizability checker consumes the history a *client* could
observe: an operation's interval opens when the ORB client commits to
the invocation and closes when the demarshalled reply reaches
application code.  :class:`HistoryRecorder` is the enabled counterpart
of :class:`repro.sim.NullHistory` — the ORB client calls
``sim.history.invoked(...)`` / ``sim.history.completed(...)`` guarded
by ``history.enabled``, so capture is a no-op unless a checker run
attaches a recorder.

Recording is observation-only: it never schedules simulator events,
so simulated outcomes are byte-identical with capture on or off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.canonical import canonical_json


@dataclass
class Operation:
    """One client-observed operation interval.

    ``completed_at``/``result`` stay ``None`` for operations still
    pending when the run ended (e.g. the client gave up after a
    crash) — the checker treats those as possibly-effective,
    possibly-not.
    """

    op_id: str
    object_key: str
    operation: str
    payload: Any
    invoked_at: float
    client: str
    result: Any = None
    completed_at: Optional[float] = None

    @property
    def pending(self) -> bool:
        """True when no reply was ever observed."""
        return self.completed_at is None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict (canonical form for digests/artifacts)."""
        return {
            "op_id": self.op_id,
            "object_key": self.object_key,
            "operation": self.operation,
            "payload": self.payload,
            "invoked_at": self.invoked_at,
            "client": self.client,
            "result": self.result,
            "completed_at": self.completed_at,
        }


class HistoryRecorder:
    """Enabled operation-history recorder.

    Attach with ``testbed.sim.history = HistoryRecorder()`` before the
    workload runs; operations appear in invocation order (simulator
    dispatch order, hence deterministic per schedule).
    """

    enabled = True

    def __init__(self) -> None:
        self._ops: Dict[str, Operation] = {}

    def invoked(self, op_id: str, object_key: str, operation: str,
                payload: Any, now: float, client: str = "?") -> None:
        """Open an operation interval (called by the ORB client)."""
        if op_id in self._ops:
            return  # retries reuse the request id; the interval stands
        self._ops[op_id] = Operation(
            op_id=op_id, object_key=object_key, operation=operation,
            payload=payload, invoked_at=now, client=client)

    def completed(self, op_id: str, result: Any, now: float) -> None:
        """Close an operation interval with its observed result."""
        op = self._ops.get(op_id)
        if op is None or op.completed_at is not None:
            return
        op.result = result
        op.completed_at = now

    @property
    def operations(self) -> Tuple[Operation, ...]:
        """All recorded operations, in invocation order."""
        return tuple(self._ops.values())

    @property
    def pending_count(self) -> int:
        """Number of operations still open at the end of the run."""
        return sum(1 for op in self._ops.values() if op.pending)

    def serialize(self) -> str:
        """Canonical JSONL of the history (stable across runs of the
        same schedule; feeds the schedule digest)."""
        lines = [canonical_json(op.to_dict())
                 for op in self._ops.values()]
        return "\n".join(lines) + ("\n" if lines else "")

    def __len__(self) -> int:
        return len(self._ops)

    def __repr__(self) -> str:
        return (f"<HistoryRecorder ops={len(self._ops)} "
                f"pending={self.pending_count}>")
