"""Wire-level message types of the group-communication system.

The GCS plays the role of the Spread toolkit in the paper: daemons run
one per host, application processes connect to their local daemon, and
daemons exchange the control/data messages defined here over the
simulated LAN.

Every group multicast is delivered in Spread's ``AGREED`` grade: one
total order, consistent with the view changes (virtual synchrony) —
the one guarantee the replicator needs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, List, NamedTuple, Tuple

from repro.net.frame import FrozenSlots, slot_setters


class MemberId(NamedTuple):
    """Identity of a connected process: (host, pid, name).

    Ordering is total and identical at every daemon, which the
    replication layer relies on for deterministic primary election.
    A tuple, so hashing and comparing it run in C: member ids key the
    daemons' and replicators' tables on every message.
    """

    host: str
    pid: int
    name: str

    def __str__(self) -> str:
        return f"{self.name}#{self.pid}@{self.host}"


@dataclass(frozen=True, slots=True)
class GroupView:
    """Membership of one group as installed at some point in the
    totally-ordered message stream.

    ``members`` is in **join order** (identical at every daemon), so
    ``members[0]`` is the longest-standing member — the deterministic
    leader/primary choice the replication layer uses.
    """

    group: str
    view_id: int
    members: Tuple[MemberId, ...]

    def __contains__(self, member: MemberId) -> bool:
        return member in self.members

    def __len__(self) -> int:
        return len(self.members)

@dataclass(frozen=True, slots=True)
class DaemonView:
    """Membership of the daemon layer itself (one entry per live host)."""

    view_id: int
    members: Tuple[str, ...]

    def __contains__(self, host: str) -> bool:
        return host in self.members

    def coordinator(self) -> str:
        """Lowest-named live daemon: view coordinator and sequencer."""
        return min(self.members)


# ---------------------------------------------------------------------------
# Daemon-to-daemon payloads.  All reliable traffic is wrapped in
# LinkData/LinkAck by the reliable-link layer; heartbeats and rejoin
# probes travel as raw frames.
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Heartbeat:
    """Periodic liveness beacon between daemons."""

    sender: str
    view_id: int


class LinkData(FrozenSlots):
    """Reliable-link envelope: per-(src,dst) sequence number.

    Built once per reliable transmission, so it is a positional
    :class:`~repro.net.frame.FrozenSlots` value rather than a frozen
    dataclass.
    """

    __slots__ = ("link_seq", "inner", "inner_bytes")

    def __init__(self, link_seq: int, inner: Any, inner_bytes: int):
        _set_link_seq(self, link_seq)
        _set_inner(self, inner)
        _set_inner_bytes(self, inner_bytes)


_set_link_seq, _set_inner, _set_inner_bytes = slot_setters(LinkData)


@dataclass(frozen=True, slots=True)
class LinkAck:
    """Cumulative acknowledgement for a reliable link."""

    cum_seq: int


class _CarriesTrace:
    """Mixin for payload-bearing wrappers: expose the telemetry trace
    context of the wrapped application message.

    Duck-typed read-through — replication payloads (RepRequest /
    RepReply) define ``trace_context``; control traffic and raw test
    payloads do not and yield None.  This is the GCS half of trace
    propagation: daemons look here to join a frame to its trace
    without understanding the payload.
    """

    # Keep subclasses __dict__-free: a slotted dataclass inheriting
    # from a slotless base would silently grow a per-instance dict.
    __slots__ = ()

    @property
    def trace_context(self):
        return getattr(self.payload, "trace_context", None)


@dataclass(frozen=True, slots=True)
class Forward(_CarriesTrace):
    """Origin daemon asks the sequencer to stamp a totally-ordered
    message."""

    group: str
    origin: MemberId
    payload: Any
    payload_bytes: int
    msg_id: str


class StampKind(enum.Enum):
    """Kind of a totally-ordered group event."""
    DATA = "data"
    JOIN = "join"
    LEAVE = "leave"


@dataclass(frozen=True, slots=True)
class Stamped(_CarriesTrace):
    """A sequencer-ordered event in a group's total-order stream.

    ``seq`` is contiguous per group.  JOIN/LEAVE stamps are routed to
    every daemon (they update routing state); DATA stamps go only to
    daemons hosting members.
    """

    group: str
    seq: int
    kind: StampKind
    origin: MemberId
    payload: Any = None
    payload_bytes: int = 0
    msg_id: str = ""
    crashed: bool = False


@dataclass(frozen=True, slots=True)
class JoinRequest:
    group: str
    member: MemberId
    msg_id: str


@dataclass(frozen=True, slots=True)
class LeaveRequest:
    """``crashed`` distinguishes a failure-detected leave (a dead local
    connection, as when Spread notices a client died) from a voluntary
    one; the flag rides the totally-ordered stamp so every daemon
    installs the same view with the same cause."""

    group: str
    member: MemberId
    msg_id: str
    crashed: bool = False


@dataclass(frozen=True, slots=True)
class Direct(_CarriesTrace):
    """Point-to-point message between connected processes."""

    dst: MemberId
    src: MemberId
    payload: Any
    payload_bytes: int


# ---------------------------------------------------------------------------
# View-change (flush) protocol payloads.
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class FlushRequest:
    """Coordinator proposes a new daemon view; recipients must stop
    sending application data and report their per-group progress.

    ``proposer_view_id`` is the proposer's installed daemon view at
    proposal time.  A wedged (minority-partition) daemon compares it
    against its own: a higher value proves the majority installed
    views it missed, so its local state is stale — it acks with empty
    histories and waits for the coordinator's :class:`GroupSnapshot`
    instead of polluting the union cut with forked stamps.
    """

    epoch: int
    proposer: str
    members: Tuple[str, ...]
    proposer_view_id: int = 0


@dataclass(frozen=True, slots=True)
class FlushAck:
    """A daemon's reply to FlushRequest.

    ``histories`` maps group -> {seq: Stamped} for recently received
    stamps, letting the coordinator rebuild the union cut.
    ``next_seqs`` maps group -> next unassigned sequencer seq as known
    to this daemon (max stamp seen + 1).
    """

    epoch: int
    sender: str
    histories: Dict[str, Dict[int, Stamped]]
    next_seqs: Dict[str, int]


@dataclass(frozen=True, slots=True)
class ViewInstall:
    """Coordinator finalizes the view change.

    ``recovery`` maps group -> list of Stamped that every surviving
    daemon must apply (in seq order) before installing the view, so
    that all survivors deliver the same set of messages in the old
    view (virtual synchrony).  ``next_seqs`` seeds the new sequencer.
    """

    epoch: int
    view: DaemonView
    recovery: Dict[str, List[Stamped]]
    next_seqs: Dict[str, int]


@dataclass(frozen=True, slots=True)
class RejoinRequest:
    """A wedged daemon probes a peer after a suspected partition.

    Sent as a raw (unreliable) frame, periodically, to every
    unreachable peer while wedged: once the partition heals, the copy
    that reaches the majority coordinator triggers a merge flush whose
    proposal includes the sender.  ``view_id`` is the sender's last
    installed daemon view, so the coordinator can tell a stale
    rejoiner from an echo of its own component.
    """

    sender: str
    view_id: int


@dataclass(frozen=True, slots=True)
class GroupSnapshot:
    """Coordinator -> rejoiner, ahead of the merge ViewInstall.

    A daemon re-admitted after a partition cannot trust its own group
    state: while it was wedged the majority removed its members and
    kept stamping, so flush-history recovery alone cannot rebuild
    membership.  The snapshot carries the authoritative per-group
    state — members in join order, view id, last stamp seq, and the
    recent stamp window for duplicate suppression — which the rejoiner
    adopts wholesale before applying the install; its own (stale,
    possibly forked) state is discarded.
    """

    epoch: int
    #: group -> (members in join order, view_id, last_seq)
    groups: Dict[str, Tuple[Tuple[MemberId, ...], int, int]]
    #: group -> recent Stamped window (duplicate suppression + history)
    recent: Dict[str, List[Stamped]]


def estimate_control_bytes(message: Any) -> int:
    """On-wire size estimate for control messages without a payload
    size of their own (flush traffic, acks, heartbeats)."""
    if isinstance(message, (Heartbeat, LinkAck)):
        return 16
    if isinstance(message, (JoinRequest, LeaveRequest)):
        return 64
    if isinstance(message, RejoinRequest):
        return 24
    if isinstance(message, FlushRequest):
        return 48 + 16 * len(message.members)
    if isinstance(message, GroupSnapshot):
        total = 64
        for members, _view_id, _last in message.groups.values():
            total += 32 + 16 * len(members)
        for stamps in message.recent.values():
            for stamped in stamps:
                total += 48 + stamped.payload_bytes
        return total
    if isinstance(message, FlushAck):
        total = 64
        for history in message.histories.values():
            for stamped in history.values():
                total += 48 + stamped.payload_bytes
        return total
    if isinstance(message, ViewInstall):
        total = 64 + 16 * len(message.view.members)
        for stamps in message.recovery.values():
            for stamped in stamps:
                total += 48 + stamped.payload_bytes
        return total
    return 32
