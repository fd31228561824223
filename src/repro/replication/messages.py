"""Replication-layer messages carried over the GCS.

These are the payloads the replicator instances exchange: replicated
requests and replies, checkpoints, style-switch commands (Fig. 5) and
state-transfer traffic for joining replicas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from repro.gcs.messages import MemberId
from repro.orb.giop import GiopReply, GiopRequest
from repro.replication.styles import ReplicationStyle

#: Fixed replication-layer header added to every message's wire size.
REP_HEADER_BYTES = 40


@dataclass(frozen=True, slots=True)
class RepRequest:
    """A client invocation wrapped for the replica group."""

    request: GiopRequest
    client: MemberId
    #: Set when a backup relays a misdirected request to the primary,
    #: so the relay cannot loop.
    relayed: bool = False
    #: Lowest request number the client still awaited when sending
    #: this (0: unknown); uncharged on the wire, like the trace context.
    awaiting: int = 0

    @property
    def wire_bytes(self) -> int:
        return self.request.payload_bytes + REP_HEADER_BYTES

    @property
    def trace_context(self):
        """Telemetry context, read through to the wrapped GIOP request
        (the GCS daemons use this to join a frame to its trace)."""
        return self.request.trace


@dataclass(frozen=True, slots=True)
class RepReply:
    """A server reply sent point-to-point back to the client.

    ``style`` and ``primary`` piggyback the group's current
    configuration so the client-side replicator tracks the low-level
    knob settings without extra round trips.
    """

    reply: GiopReply
    replica: MemberId
    style: ReplicationStyle
    primary: Optional[MemberId]
    #: True when the group runs broadcast-mode warm passive: clients
    #: should multicast requests so the backups can log them.
    broadcast: bool = False

    @property
    def wire_bytes(self) -> int:
        return self.reply.payload_bytes + REP_HEADER_BYTES

    @property
    def trace_context(self):
        """Telemetry context, read through to the wrapped GIOP reply."""
        return self.reply.trace


@dataclass(frozen=True)
class Checkpoint:
    """A state snapshot multicast (AGREED) within the replica group.

    ``final_for`` carries a switch id when this is the "one more
    checkpoint" of the warm-passive-to-active switch (Fig. 5), and
    ``sync_for`` carries a member id when the checkpoint exists to
    bring a newly joined replica up to date.
    """

    ckpt_id: int
    state: Any
    state_bytes: int
    source: MemberId
    final_for: Optional[str] = None
    sync_for: Optional[MemberId] = None
    #: The source's session table (client -> frozen ``Session``):
    #: whoever restores this state answers a retry of a request it holds
    #: instead of running it again.  Free on the simulated wire
    #: (``docs/calibration.md``).
    sessions: Mapping[str, Any] = field(default_factory=dict)
    #: ``ckpt_id`` of the source's checkpoint this periodic one is an
    #: increment of; 0 = complete.  A receiver applies an increment only
    #: if that checkpoint is the last one it applied.
    base: int = 0

    @property
    def wire_bytes(self) -> int:
        return self.state_bytes + REP_HEADER_BYTES + 24


@dataclass(frozen=True)
class SyncRequest:
    """A newly joined replica asks the group's oldest member for a
    state-transfer checkpoint (sent point-to-point, retried on a timer
    so a crashed donor cannot strand the joiner)."""

    joiner: MemberId

    @property
    def wire_bytes(self) -> int:
        return 48


@dataclass(frozen=True)
class Fence:
    """Quiesce the group at one point of its request total order.

    Multicast AGREED within a replica group by the shard-migration
    machinery (:mod:`repro.cluster`): every replica pauses request
    intake exactly at the fence's delivery position, so the state the
    primary captures afterwards reflects the same request prefix on
    every replica.  What happens at the fence is decided by the
    replicator's pluggable fence handler; replicators without one
    ignore the message.
    """

    fence_id: str
    initiator: MemberId

    @property
    def wire_bytes(self) -> int:
        return 56


@dataclass(frozen=True)
class SwitchCommand:
    """Step I of the Fig. 5 protocol: initiate a style switch.

    Multicast AGREED so every replica sees it at the same point in the
    request stream; duplicates (same ``switch_id``) are discarded.
    """

    switch_id: str
    target: ReplicationStyle
    initiator: MemberId

    @property
    def wire_bytes(self) -> int:
        return 64
