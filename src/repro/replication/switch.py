"""State of an in-progress replication-style switch (paper Fig. 5).

The protocol itself is driven by :class:`ServerReplicator`; this
module holds the per-replica switch state machine so the three steps
of Figure 5 are explicit and testable:

I.   INITIATE — a "switch" command is multicast AGREED; duplicates
     are discarded.
II.  PREPARE — on delivering the command, every replica starts
     enqueueing application messages; the warm-passive primary
     prepares to send one more checkpoint, backups prepare to wait for
     it; for active→passive a new primary is chosen deterministically.
III. SWITCH — the final checkpoint (or its absence, if the primary
     crashed: rollback by processing the enqueued requests) completes
     the transition and the queue is drained under the new style.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Optional

from repro.replication.styles import ReplicationStyle


class SwitchPhase(enum.Enum):
    """Progress of an in-flight style switch at one replica."""
    PREPARING = "preparing"
    COMPLETE = "complete"
    ROLLED_BACK = "rolled_back"


@dataclass
class SwitchState:
    """One replica's view of an in-flight switch."""

    switch_id: str
    from_style: ReplicationStyle
    target: ReplicationStyle
    started_at: float
    phase: SwitchPhase = SwitchPhase.PREPARING
    #: Warm-passive → active: set when the "one more checkpoint"
    #: (Fig. 5 case 1) has been observed.
    final_checkpoint_seen: bool = False
    completed_at: Optional[float] = None
    #: Telemetry trace context covering the switch (None when
    #: telemetry is off); the root span is closed at step III.
    trace_ctx: Optional[Any] = None

    @property
    def passive_to_active(self) -> bool:
        """Fig. 5 case 1: a final checkpoint must hand the primary's
        state to replicas that will start executing."""
        return (self.from_style.is_passive
                and self.target is ReplicationStyle.ACTIVE)

    def duration_us(self) -> Optional[float]:
        """Switch duration, or None while still in progress."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.started_at


@dataclass(frozen=True)
class SwitchRecord:
    """Completed-switch statistics, kept for the monitoring layer and
    the Fig. 6 benchmark ("observed delays required to complete the
    switch are comparable to the average response time")."""

    switch_id: str
    from_style: ReplicationStyle
    to_style: ReplicationStyle
    started_at: float
    completed_at: float
    rolled_back: bool = False
    queued_requests: int = 0

    @property
    def duration_us(self) -> float:
        return self.completed_at - self.started_at
