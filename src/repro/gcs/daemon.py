"""Group-communication daemon (the Spread-daemon analogue).

One daemon runs per host.  Application processes connect to their
local daemon through :class:`repro.gcs.client.GcsClient`.  Daemons
provide:

- **membership**: daemon-level views maintained by all-to-all
  heartbeats plus a coordinator-driven flush protocol; group-level
  views derived from totally-ordered JOIN/LEAVE stamps;
- **reliable ordered multicast**: AGREED (total order via a sequencer
  daemon) — the Spread service grade the paper relies on
  (Section 3.1);
- **virtual synchrony**: on a view change, survivors exchange recent
  stamp histories and reconcile, so every survivor delivers the same
  set of AGREED messages before installing the new view.  This is the
  property that makes the paper's style-switch protocol (Fig. 5)
  tolerant to the crash of any replica: "fault notifications are
  ordered consistently with respect to the switch and the other
  messages".

The sequencer and view-change coordinator are both the lowest-named
daemon in the current view, so they move deterministically when a
daemon dies.
"""

from __future__ import annotations

import functools
import itertools
from collections import OrderedDict, deque
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import GroupCommunicationError
from repro.gcs.failure_detector import (
    AdaptiveDetector,
    FixedTimeoutDetector,
)
from repro.gcs.links import ReliableLink
from repro.gcs.messages import (
    DaemonView,
    Direct,
    FlushAck,
    FlushRequest,
    Forward,
    GroupSnapshot,
    GroupView,
    Heartbeat,
    JoinRequest,
    LeaveRequest,
    LinkAck,
    LinkData,
    MemberId,
    RejoinRequest,
    Stamped,
    StampKind,
    ViewInstall,
    estimate_control_bytes,
)
from repro.net.frame import Endpoint, Frame
from repro.net.network import Network
from repro.sim.actor import Actor
from repro.sim.config import GcsCalibration
from repro.sim.host import Process
from repro.telemetry.spans import COMPONENT_GCS, KIND_CHARGED

#: Well-known daemon port (Spread's default).
GCS_PORT = 4803

#: How many recent stamps per group a daemon keeps for a FlushAck or a
#: GroupSnapshot; must exceed the largest possible divergence window
#: between survivors (bounded by retransmit timeout << failure timeout).
FLUSH_HISTORY_WINDOW = 64

#: A flushing daemon waits this long for the install before suspecting
#: the flush coordinator itself.
FLUSH_TIMEOUT_US = 500_000.0


def _ordered() -> None:
    """Completion of the sequencer's ordering job: charging the CPU is
    its whole effect."""


class _GroupState:
    """Per-group bookkeeping at one daemon (identical everywhere).

    ``fanout_hosts`` and ``local_members`` are routing caches derived
    from ``members``: the sorted unique member hosts (every multicast
    fan-out iterates them) and this daemon's co-located members (every
    local delivery iterates them).  They are recomputed only when the
    membership changes — previously each multicast paid a ``sorted()``
    plus a set build per fan-out.  ``history`` holds the stamps a flush
    reads; ``msg_ids`` the ids of the last ``history_limit`` stamps.
    """

    __slots__ = ("members", "view_id", "last_stamp", "history", "msg_ids",
                 "recent_msg_ids", "fanout_hosts", "local_members")

    def __init__(self, history_limit: int) -> None:
        self.members: List[MemberId] = []
        self.view_id = 0
        self.last_stamp = 0
        self.history: "deque[Stamped]" = deque(
            maxlen=min(history_limit, FLUSH_HISTORY_WINDOW))
        self.msg_ids: "deque[str]" = deque(maxlen=history_limit)
        self.recent_msg_ids: Set[str] = set()
        self.fanout_hosts: Tuple[str, ...] = ()
        self.local_members: Tuple[MemberId, ...] = ()


class GcsDaemon(Actor):
    """The per-host group-communication daemon."""

    def __init__(self, process: Process, network: Network,
                 peers: Sequence[str],
                 calibration: Optional[GcsCalibration] = None):
        super().__init__(process, name=f"gcsd@{process.host.name}")
        self.network = network
        self.cal = calibration or GcsCalibration()
        self.host = process.host
        if self.host.name not in peers:
            raise GroupCommunicationError(
                f"daemon host {self.host.name} missing from peer list")
        self.endpoint = Endpoint(self.host.name, GCS_PORT)
        self.view = DaemonView(view_id=0, members=tuple(sorted(peers)))

        # Transport.  ``_sends`` caches one pre-bound ``link.send`` per
        # live peer so fan-out loops skip the dict-lookup + closed-check
        # dance of :meth:`_link`; a closing link evicts its own entry.
        self._links: Dict[str, ReliableLink] = {}
        self._sends: Dict[str, Callable[[Any, int], None]] = {}
        # Per-view routing caches, rebuilt on every view install.
        self._view_set: frozenset = frozenset()
        self._hb_targets: Tuple[Endpoint, ...] = ()
        # Cached (view_id, Heartbeat, wire bytes): the beat payload
        # only changes when the view does, so the per-tick message
        # build + size estimate are paid once per view.
        self._hb_beat: Optional[Tuple[int, Heartbeat, int]] = None
        self._rebuild_view_routing()
        self.host.bind(GCS_PORT, self._on_frame)

        # Failure detection.  The detector's map of when each peer was
        # last heard is the daemon's too (the heal and flush checks).
        if self.cal.adaptive_failure_detection:
            self._detector = AdaptiveDetector(
                floor_us=self.cal.failure_timeout_us)
        else:
            self._detector = FixedTimeoutDetector(
                self.cal.failure_timeout_us)
        for peer in peers:
            if peer != self.host.name:
                self._detector.heard_from(peer, self.sim.now)
        self._last_heard = self._detector.last_heard
        self._suspects: Set[str] = set()

        # Group state (replicated identically at all daemons).
        self._groups: Dict[str, _GroupState] = {}

        # Local clients and watchers.
        self._clients: Dict[MemberId, "ClientPort"] = {}
        self._watchers: Dict[str, Set[MemberId]] = {}
        self._local_joins: Dict[MemberId, Set[str]] = {}

        # Sequencer state (used only while self is the sequencer).
        self._next_seq: Dict[str, int] = {}

        # AGREED messages forwarded but not yet seen back as stamps,
        # and membership requests awaiting their stamps; both are
        # re-routed to the new sequencer after a view change.
        self._pending_forwards: "OrderedDict[str, Forward]" = OrderedDict()
        self._pending_membership: "OrderedDict[str, Any]" = OrderedDict()
        self._forward_ids = itertools.count(1)

        # Flush / view-change state.
        self._suspended = False
        self._outbox: List[Callable[[], None]] = []
        self._flush_epoch = 0          # highest flush epoch seen
        self._flush_acks: Dict[str, FlushAck] = {}
        self._flush_proposal: Optional[Tuple[str, ...]] = None

        # Primary-partition state (only used when the calibration
        # enables primary_partition): wedged means this daemon found
        # itself in a minority component and stopped serving;
        # _rejoiners are wedged peers probing us for re-admission.
        self._wedged = False
        self._rejoiners: Set[str] = set()

        # Span site codes, interned on the first traced frame: the
        # ``gcsd.process`` hop per peer, and the local-IPC hop.
        self._hop_sites: Dict[str, int] = {}
        self._ipc_site: Optional[int] = None

        self.set_periodic_timer("liveness", self.cal.heartbeat_interval_us,
                                self._liveness_tick)

    # ==================================================================
    # Public API used by GcsClient
    # ==================================================================
    def connect(self, port: "ClientPort") -> None:
        """Attach a local client process to this daemon."""
        if not self.alive:
            raise GroupCommunicationError(
                f"daemon on {self.host.name} is down")
        if port.member in self._clients:
            raise GroupCommunicationError(
                f"{port.member} already connected")
        self._clients[port.member] = port
        self._local_joins[port.member] = set()

    def disconnect(self, member: MemberId) -> None:
        """Detach a client: leaves all its groups (fast local failure
        detection, as when Spread notices a dead local connection)."""
        port = self._clients.pop(member, None)
        if port is None:
            return
        joined = self._local_joins.pop(member, set())
        for groups in self._watchers.values():
            groups.discard(member)
        if not self.alive:
            # Host died with the client; remote daemons will detect it.
            return
        for group in sorted(joined):
            self._submit_leave(group, member, crashed=True)

    def client_join(self, group: str, member: MemberId) -> None:
        """Submit a join for a locally connected member."""
        self._require_client(member)
        msg_id = self._new_msg_id()
        request = JoinRequest(group=group, member=member, msg_id=msg_id)
        self._pending_membership[msg_id] = request
        self._enqueue_or_run(lambda: self._route_to_sequencer(request))

    def client_leave(self, group: str, member: MemberId) -> None:
        """Submit a voluntary leave for a local member."""
        self._require_client(member)
        self._submit_leave(group, member)

    def client_watch(self, group: str, member: MemberId) -> None:
        """Register a local watcher: receives group views but no data
        and is not listed in the membership (open-group semantics)."""
        self._require_client(member)
        self._watchers.setdefault(group, set()).add(member)
        state = self._groups.get(group)
        if state is not None:
            view = GroupView(group, state.view_id, tuple(state.members))
            self._deliver_view_to(member, view, joined=[], left=[],
                                  crashed=False)

    def client_multicast(self, group: str, member: MemberId, payload: Any,
                         payload_bytes: int) -> None:
        """Send a totally-ordered (AGREED) group multicast."""
        self._require_client(member)
        self._enqueue_or_run(
            lambda: self._forward_agreed(group, member, payload,
                                         payload_bytes))

    def client_send_direct(self, src: MemberId, dst: MemberId, payload: Any,
                           payload_bytes: int) -> None:
        """Send a reliable point-to-point message."""
        self._require_client(src)
        message = Direct(dst=dst, src=src, payload=payload,
                         payload_bytes=payload_bytes)
        if self._suspended:
            self._outbox.append(lambda: self._route_direct(message))
        else:
            self._route_direct(message)

    def _require_client(self, member: MemberId) -> None:
        if member not in self._clients:
            raise GroupCommunicationError(f"{member} is not connected")

    def _new_msg_id(self) -> str:
        return f"{self.host.name}:{next(self._forward_ids)}"

    def _submit_leave(self, group: str, member: MemberId,
                      crashed: bool = False) -> None:
        msg_id = self._new_msg_id()
        request = LeaveRequest(group=group, member=member, msg_id=msg_id,
                               crashed=crashed)
        self._pending_membership[msg_id] = request
        self._enqueue_or_run(lambda: self._route_to_sequencer(request))

    # ==================================================================
    # Transport plumbing
    # ==================================================================
    def _link(self, peer: str) -> ReliableLink:
        link = self._links.get(peer)
        if link is None or link.closed:
            link = ReliableLink(
                self.sim, self.network, self.cal,
                local=self.endpoint, peer=Endpoint(peer, GCS_PORT),
                deliver=functools.partial(self._on_reliable, peer),
                on_close=lambda p=peer: self._sends.pop(p, None))
            self._links[peer] = link
            self._sends[peer] = link.send
        return link

    def _send_to(self, peer: str) -> Callable[[Any, int], None]:
        """Pre-bound reliable ``send`` for ``peer`` (cached per link
        lifetime; re-bound lazily after a link closes)."""
        send = self._sends.get(peer)
        if send is None:
            send = self._link(peer).send
        return send

    def _rebuild_view_routing(self) -> None:
        """Recompute the per-daemon-view caches: the membership set
        (hot ``in`` checks), the heartbeat target endpoints, and
        ``sequencer``, the host running the sequencer/coordinator."""
        members = self.view.members
        self.sequencer = self.view.coordinator()
        self.is_sequencer = self.sequencer == self.host.name
        self._view_set = frozenset(members)
        self._hb_targets = tuple(Endpoint(peer, GCS_PORT)
                                 for peer in members
                                 if peer != self.host.name)

    def _rebuild_group_routing(self, state: _GroupState) -> None:
        """Recompute a group's fan-out / local-delivery caches after a
        membership change (the only place ``state.members`` mutates)."""
        members = state.members
        host_name = self.host.name
        state.fanout_hosts = tuple(sorted({m.host for m in members}))
        state.local_members = tuple(m for m in members
                                    if m.host == host_name)

    def _on_frame(self, frame: Frame) -> None:
        if not self.process.alive:
            return
        peer = frame.src.host
        self._detector.heard_from(peer, self.sim.now)
        payload = frame.payload
        # Dispatch on the exact type, most frequent first: heartbeats
        # are most frames on an idle cluster.
        kind = type(payload)
        if kind is Heartbeat:
            return  # liveness already recorded above
        if kind is LinkData or kind is LinkAck:
            link = self._links.get(peer)
            if link is None or link.closed:
                link = self._link(peer)
            if kind is LinkData:
                link.on_link_data(payload.link_seq, payload.inner,
                                  payload.inner_bytes)
            else:
                link.on_ack(payload.cum_seq)
        elif kind is RejoinRequest:
            self._cpu(self._on_rejoin_request, payload)
        # Any other frame kind is dropped silently, like real UDP.

    def _on_reliable(self, peer: str, inner: Any, nbytes: int) -> None:
        """In-order reliable delivery from ``peer``: charge daemon CPU
        then dispatch on the message type."""
        telemetry = self.sim.telemetry
        if telemetry.enabled:
            # Application frames carry their trace context (read
            # through the payload wrappers); the hop span nests under
            # the in-flight transit span.
            ctx = getattr(inner, "trace_context", None)
            if ctx is not None:
                site = self._hop_sites.get(peer)
                if site is None:
                    site = self._hop_sites[peer] = telemetry.site(
                        "gcsd.process", COMPONENT_GCS, self.host.name,
                        self.name, peer=peer)
                span_id = telemetry.open(ctx, site, self.sim.now)
                if span_id is not None:
                    self._cpu(self._end_hop, span_id, peer, inner)
                    return
        self.host.cpu.execute(self.cal.daemon_processing_us,
                              self._if_alive, self._dispatch, peer, inner)

    def _end_hop(self, span_id: int, peer: str, inner: Any) -> None:
        """Close a traced hop's span, then dispatch its message."""
        self.sim.telemetry.end(span_id, self.sim.now)
        self._dispatch(peer, inner)

    def _cpu(self, fn: Callable[..., None], *args: Any) -> None:
        """Charge one daemon processing job, then run ``fn(*args)``
        if the daemon is still alive."""
        self.host.cpu.execute(self.cal.daemon_processing_us,
                              self._if_alive, fn, *args)

    def _if_alive(self, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` unless the daemon died since it was
        scheduled."""
        if self.process.alive:
            fn(*args)

    def _dispatch(self, peer: str, inner: Any) -> None:
        if isinstance(inner, Forward):
            self._sequencer_stamp_data(inner)
        elif isinstance(inner, JoinRequest):
            self._sequencer_stamp_membership(StampKind.JOIN, inner.group,
                                             inner.member, inner.msg_id)
        elif isinstance(inner, LeaveRequest):
            self._sequencer_stamp_membership(StampKind.LEAVE, inner.group,
                                             inner.member, inner.msg_id,
                                             crashed=inner.crashed)
        elif isinstance(inner, Stamped):
            self._apply_stamp(inner)
        elif isinstance(inner, Direct):
            self._deliver_direct(inner)
        elif isinstance(inner, FlushRequest):
            self._on_flush_request(inner)
        elif isinstance(inner, FlushAck):
            self._on_flush_ack(inner)
        elif isinstance(inner, GroupSnapshot):
            self._on_group_snapshot(inner)
        elif isinstance(inner, ViewInstall):
            self._on_view_install(inner)
        # Any other reliable message is dropped silently.

    def _enqueue_or_run(self, op: Callable[[], None]) -> None:
        """Run an application-level send now, or buffer it while a
        view change is in progress (sends are suspended during flush)."""
        if self._suspended:
            self._outbox.append(op)
        else:
            op()

    # ==================================================================
    # AGREED grade: sequencer-based total order
    # ==================================================================
    def _forward_agreed(self, group: str, origin: MemberId, payload: Any,
                        payload_bytes: int) -> None:
        forward = Forward(group=group, origin=origin, payload=payload,
                          payload_bytes=payload_bytes,
                          msg_id=self._new_msg_id())
        # Only a host with a member sees the stamp that pops a forward;
        # elsewhere (a client) the sender's retry recovers a lost one.
        state = self._groups.get(group)
        if state is not None and state.local_members:
            self._pending_forwards[forward.msg_id] = forward
        self._route_to_sequencer(forward)

    def _route_to_sequencer(self, message: Any) -> None:
        nbytes = getattr(message, "payload_bytes", None)
        if nbytes is None:
            nbytes = estimate_control_bytes(message)
        if self.is_sequencer:
            self._cpu(self._dispatch, self.host.name, message)
        else:
            self._send_to(self.sequencer)(message, nbytes)

    def _sequencer_stamp_data(self, forward: Forward) -> None:
        if not self.is_sequencer:
            # Stale routing (sequencer just changed): re-route.
            self._route_to_sequencer(forward)
            return
        state = self._group(forward.group)
        if forward.msg_id in state.recent_msg_ids:
            return  # duplicate re-forward after a view change
        seq = self._alloc_seq(forward.group)
        stamp = Stamped(group=forward.group, seq=seq, kind=StampKind.DATA,
                        origin=forward.origin, payload=forward.payload,
                        payload_bytes=forward.payload_bytes,
                        msg_id=forward.msg_id)
        self._disseminate(stamp)

    def _sequencer_stamp_membership(self, kind: StampKind, group: str,
                                    member: MemberId, msg_id: str,
                                    crashed: bool = False) -> None:
        if not self.is_sequencer:
            if kind is StampKind.JOIN:
                request: Any = JoinRequest(group=group, member=member,
                                           msg_id=msg_id)
            else:
                request = LeaveRequest(group=group, member=member,
                                       msg_id=msg_id, crashed=crashed)
            self._route_to_sequencer(request)
            return
        state = self._group(group)
        if msg_id in state.recent_msg_ids:
            return
        # Drop no-op membership changes (duplicate join, unknown leave).
        if kind is StampKind.JOIN and member in state.members:
            return
        if kind is StampKind.LEAVE and member not in state.members:
            return
        seq = self._alloc_seq(group)
        stamp = Stamped(group=group, seq=seq, kind=kind, origin=member,
                        msg_id=msg_id, crashed=crashed)
        self._disseminate(stamp)

    def _alloc_seq(self, group: str) -> int:
        state = self._group(group)
        nxt = self._next_seq.get(group, state.last_stamp + 1)
        self._next_seq[group] = nxt + 1
        return nxt

    def _disseminate(self, stamp: Stamped) -> None:
        """Sequencer-side: charge ordering cost, apply locally, and
        push the stamp over reliable links to the daemons that need it."""
        self.host.cpu.execute(self.cal.ordering_us, _ordered)
        if stamp.kind is StampKind.DATA:
            targets = self._group(stamp.group).fanout_hosts
        else:
            # Membership stamps refresh routing state everywhere; the
            # daemon view is kept sorted and unique, so iterating it
            # matches the old sorted(set(...)) order exactly.
            targets = self.view.members
        nbytes = stamp.payload_bytes + 24
        view_set = self._view_set
        host_name = self.host.name
        for target in targets:
            if target == host_name:
                continue
            if target in view_set:
                self._send_to(target)(stamp, nbytes)
        self._apply_stamp(stamp)

    def _apply_stamp(self, stamp: Stamped) -> None:
        """Apply one totally-ordered group event at this daemon."""
        state = self._group(stamp.group)
        if stamp.seq <= state.last_stamp:
            return  # duplicate (e.g. flush recovery overlap)
        state.last_stamp = stamp.seq
        state.history.append(stamp)
        state.msg_ids.append(stamp.msg_id)
        if stamp.msg_id:
            state.recent_msg_ids.add(stamp.msg_id)
            if len(state.recent_msg_ids) > 4 * self.cal.history_limit:
                state.recent_msg_ids = {m for m in state.msg_ids if m}
        self._pending_forwards.pop(stamp.msg_id, None)
        self._pending_membership.pop(stamp.msg_id, None)

        if stamp.kind is StampKind.DATA:
            for member in state.local_members:
                self._deliver_data_to(member, stamp.group, stamp.origin,
                                      stamp.payload, stamp.payload_bytes)
        elif stamp.kind is StampKind.JOIN:
            self._apply_membership(state, stamp.group, joined=[stamp.origin],
                                   left=[], crashed=False)
        elif stamp.kind is StampKind.LEAVE:
            self._apply_membership(state, stamp.group, joined=[],
                                   left=[stamp.origin],
                                   crashed=stamp.crashed)

    def _apply_membership(self, state: _GroupState, group: str,
                          joined: List[MemberId], left: List[MemberId],
                          crashed: bool) -> None:
        changed = False
        for member in joined:
            if member not in state.members:
                state.members.append(member)
                changed = True
                if member.host == self.host.name and member in self._clients:
                    self._local_joins.setdefault(member, set()).add(group)
        for member in left:
            if member in state.members:
                state.members.remove(member)
                changed = True
                if member.host == self.host.name:
                    joins = self._local_joins.get(member)
                    if joins is not None:
                        joins.discard(group)
        if not changed:
            return
        # Members stay in join order (identical at every daemon because
        # joins are totally ordered): members[0] is the longest-standing
        # member, which the replication layer elects as primary.
        self._rebuild_group_routing(state)
        state.view_id += 1
        view = GroupView(group, state.view_id, tuple(state.members))
        journal = self.sim.journal
        if journal.enabled:
            journal.record(self.sim.now, self.host.name, "gcs",
                           "membership.view", group=group,
                           view_id=state.view_id,
                           members=[str(m) for m in state.members],
                           joined=[str(m) for m in joined],
                           left=[str(m) for m in left], crashed=crashed)
        for member in state.local_members:
            self._deliver_view_to(member, view, joined, left, crashed)
        # A local member that just left still gets the view that
        # excludes it (so its listener learns the leave completed).
        for member in left:
            if member.host == self.host.name:
                self._deliver_view_to(member, view, joined, left, crashed)
        for watcher in sorted(self._watchers.get(group, ())):
            self._deliver_view_to(watcher, view, joined, left, crashed)

    # ==================================================================
    # Direct (point-to-point) messages
    # ==================================================================
    def _route_direct(self, message: Direct) -> None:
        if message.dst.host == self.host.name:
            self._cpu(self._deliver_direct, message)
        elif message.dst.host in self._view_set:
            self._send_to(message.dst.host)(message, message.payload_bytes)
        # A direct to a host outside the view is dropped silently.

    def _deliver_direct(self, message: Direct) -> None:
        port = self._clients.get(message.dst)
        if port is None:
            return
        if self.sim.telemetry.enabled:
            self._emit_ipc_span(message)
        self.sim.schedule(self.cal.local_ipc_us, self._if_alive,
                          port.deliver_direct, message.src, message.payload,
                          message.payload_bytes)

    # ==================================================================
    # Delivery to local clients
    # ==================================================================
    def _deliver_data_to(self, member: MemberId, group: str,
                         sender: MemberId, payload: Any, nbytes: int) -> None:
        port = self._clients.get(member)
        if port is None:
            return
        if self.sim.telemetry.enabled:
            self._emit_ipc_span(payload)
        self.sim.schedule(self.cal.local_ipc_us, self._if_alive,
                          port.deliver_message, group, sender, payload,
                          nbytes)

    def _emit_ipc_span(self, payload: Any) -> None:
        """Record the daemon->client local-IPC hop as a pre-closed span
        (its cost is pure scheduling delay, no CPU involved).  Callers
        check ``telemetry.enabled`` first."""
        telemetry = self.sim.telemetry
        ctx = getattr(payload, "trace_context", None)
        if ctx is not None:
            site = self._ipc_site
            if site is None:
                site = self._ipc_site = telemetry.site(
                    "gcsd.ipc", COMPONENT_GCS, self.host.name, self.name,
                    KIND_CHARGED)
            telemetry.open(ctx, site, self.sim.now,
                           self.sim.now + self.cal.local_ipc_us)

    def _deliver_view_to(self, member: MemberId, view: GroupView,
                         joined: List[MemberId], left: List[MemberId],
                         crashed: bool) -> None:
        port = self._clients.get(member)
        if port is None:
            return
        self.sim.schedule(self.cal.local_ipc_us, self._if_alive,
                          lambda: port.deliver_view(view, list(joined),
                                                    list(left), crashed))

    # ==================================================================
    # Failure detection
    # ==================================================================
    def _liveness_tick(self) -> None:
        """One periodic tick: beat to every peer, then check who fell
        silent."""
        self._send_heartbeats()
        self._check_failures()

    def _send_heartbeats(self) -> None:
        view_id = self.view.view_id
        cached = self._hb_beat
        if cached is None or cached[0] != view_id:
            beat = Heartbeat(sender=self.host.name, view_id=view_id)
            cached = (view_id, beat, estimate_control_bytes(beat))
            self._hb_beat = cached
        _, beat, nbytes = cached
        self.network.send_each(self.endpoint, self._hb_targets, beat,
                               nbytes, "gcs.heartbeat")

    def _check_failures(self) -> None:
        if self._wedged:
            self._check_heal()
            return
        candidates = [peer for peer in self.view.members
                      if peer != self.host.name
                      and peer not in self._suspects]
        newly = self._detector.suspects(candidates, self.sim.now)
        if not newly:
            return
        self._suspects |= newly
        journal = self.sim.journal
        if journal.enabled:
            journal.record(self.sim.now, self.host.name, "gcs",
                           "detector.suspect", newly=sorted(newly),
                           suspects=sorted(self._suspects))
        self._maybe_start_flush()

    def _live_members(self) -> Tuple[str, ...]:
        return tuple(m for m in self.view.members if m not in self._suspects)

    def _has_majority(self, live: Sequence[str]) -> bool:
        """Primary-partition quorum test: strictly more than half of
        the *current view* must be reachable to keep serving."""
        return 2 * len(live) > len(self.view.members)

    def _maybe_start_flush(self) -> None:
        live = self._live_members()
        if not live or live == self.view.members:
            return
        if self.cal.primary_partition and not self._has_majority(live):
            # Minority component: never install a concurrent
            # fully-operational view — wedge and wait for heal.
            self._wedge(live)
            return
        if min(live) != self.host.name:
            return  # not the coordinator; wait (or take over on timeout)
        self._start_flush(live)

    # ==================================================================
    # Primary-partition membership: wedge, probe, heal, merge
    # ==================================================================
    def _wedge(self, live: Tuple[str, ...]) -> None:
        """Enter the degraded non-serving state: we can only reach a
        minority of the view, so forming a view would risk split-brain.
        Client operations are buffered (the ``_suspended`` outbox),
        links are closed so the eventual merge starts with fresh
        sequence state, and a periodic rejoin probe looks for heal."""
        if self._wedged:
            return
        self._wedged = True
        self._suspended = True
        for link in list(self._links.values()):
            link.close()
        self._links.clear()
        self._sends.clear()
        groups = sorted(self._groups)
        journal = self.sim.journal
        if journal.enabled:
            journal.record(self.sim.now, self.host.name, "gcs",
                           "partition.detected", live=sorted(live),
                           suspects=sorted(self._suspects),
                           members=list(self.view.members))
            journal.record(self.sim.now, self.host.name, "gcs",
                           "partition.wedged", live=sorted(live),
                           members=list(self.view.members),
                           groups=groups)
        self.set_periodic_timer("rejoin", self.cal.rejoin_probe_interval_us,
                                self._probe_rejoin)

    def _probe_rejoin(self) -> None:
        """While wedged, probe unreachable peers with raw rejoin
        frames; the copy that crosses a healed partition triggers the
        majority coordinator's merge flush."""
        if not self._wedged:
            self.cancel_timer("rejoin")
            return
        probe = RejoinRequest(sender=self.host.name,
                              view_id=self.view.view_id)
        nbytes = estimate_control_bytes(probe)
        # Probe every other member of the (stale) view, not just the
        # suspects: the wedge may have fired before every unreachable
        # peer went stale, and the coordinator of the majority side —
        # the one daemon whose reaction matters — can be any of them.
        targets = [p for p in self.view.members if p != self.host.name]
        for peer in targets:
            self.network.send(self.endpoint, Endpoint(peer, GCS_PORT),
                              probe, nbytes, kind="gcs.rejoin")

    def _check_heal(self) -> None:
        """Wedged-side heal detection: if recently-heard peers restore
        a majority, un-suspect them and (as coordinator) start the
        merge flush.  Covers the symmetric case where no component had
        a majority, so no side installed a view and heartbeats resume
        flowing after heal; the asymmetric case (majority installed
        without us) is driven by the rejoin probes instead."""
        horizon = self.sim.now - self.cal.failure_timeout_us
        recovered = {p for p in self._suspects
                     if self._last_heard.get(p, -1.0) >= horizon}
        live = tuple(m for m in self.view.members
                     if m not in self._suspects or m in recovered)
        if not self._has_majority(live):
            return
        self._suspects -= recovered
        if min(live) == self.host.name and self._flush_proposal is None:
            self._start_flush(live)

    def _on_rejoin_request(self, request: RejoinRequest) -> None:
        """A wedged peer probes for re-admission.  Only the current
        coordinator acts, and only while not itself wedged; the merge
        is an ordinary flush whose proposal includes the rejoiners."""
        if not self.cal.primary_partition or self._wedged:
            return
        sender = request.sender
        if sender == self.host.name:
            return
        if sender in self._view_set and sender not in self._suspects:
            return  # already a live member; stray probe after merge
        self._rejoiners.add(sender)
        live = self._live_members()
        if self._suspended or not live or min(live) != self.host.name:
            return  # probes repeat; a later one lands after the flush
        proposal = tuple(sorted(set(live) | self._rejoiners))
        self._start_flush(proposal)

    def _build_group_snapshot(self, epoch: int) -> GroupSnapshot:
        """Authoritative per-group state for a rejoiner, sent ahead of
        the merge install on the same reliable link."""
        groups: Dict[str, Tuple[Tuple[MemberId, ...], int, int]] = {}
        recent: Dict[str, List[Stamped]] = {}
        for group in sorted(self._groups):
            state = self._groups[group]
            groups[group] = (tuple(state.members), state.view_id,
                             state.last_stamp)
            recent[group] = list(state.history)
        return GroupSnapshot(epoch=epoch, groups=groups, recent=recent)

    def _on_group_snapshot(self, snapshot: GroupSnapshot) -> None:
        """Rejoiner side: discard stale (possibly forked) group state
        and adopt the majority's.  The merge install's recovery stamps
        apply on top, so the rejoiner ends at the same cut as every
        survivor; its own members re-join after the install."""
        if snapshot.epoch < self._flush_epoch:
            return
        self._groups = {}
        self._pending_forwards.clear()
        for group in sorted(snapshot.groups):
            members, view_id, last_seq = snapshot.groups[group]
            state = self._group(group)
            state.members = list(members)
            state.view_id = view_id
            state.last_stamp = last_seq
            for stamp in snapshot.recent.get(group, ()):
                state.history.append(stamp)
                state.msg_ids.append(stamp.msg_id)
                if stamp.msg_id:
                    state.recent_msg_ids.add(stamp.msg_id)
            self._rebuild_group_routing(state)

    def _heal_wedge(self) -> None:
        """Called on the merge install at a previously wedged daemon:
        resume serving and re-submit joins for local members the
        majority removed while we were away.

        Every member of the installed view is un-suspected and its
        detector window restarts now: a suspicion kept from the wedge
        would exempt that peer from every later failure check."""
        self._wedged = False
        self.cancel_timer("rejoin")
        now = self.sim.now
        for peer in self.view.members:
            if peer != self.host.name:
                self._suspects.discard(peer)
                self._detector.forget(peer)
                self._detector.heard_from(peer, now)
        journal = self.sim.journal
        if journal.enabled:
            journal.record(self.sim.now, self.host.name, "gcs",
                           "partition.healed", view_id=self.view.view_id,
                           members=list(self.view.members),
                           groups=sorted(self._groups))
        for member in sorted(self._local_joins):
            if member not in self._clients:
                continue
            for group in sorted(self._local_joins[member]):
                state = self._groups.get(group)
                if state is not None and member in state.members:
                    continue
                msg_id = self._new_msg_id()
                request = JoinRequest(group=group, member=member,
                                      msg_id=msg_id)
                self._pending_membership[msg_id] = request
                self._route_to_sequencer(request)

    # ==================================================================
    # View change: flush protocol
    # ==================================================================
    def _start_flush(self, proposal: Tuple[str, ...]) -> None:
        self._flush_epoch = max(self.view.view_id, self._flush_epoch) + 1
        self._flush_proposal = proposal
        self._flush_acks = {}
        self._suspended = True
        request = FlushRequest(epoch=self._flush_epoch,
                               proposer=self.host.name, members=proposal,
                               proposer_view_id=self.view.view_id)
        for peer in proposal:
            if peer == self.host.name:
                self._on_flush_request(request)
            else:
                self._link(peer).send(request,
                                      estimate_control_bytes(request))
        self.set_timer("flush", FLUSH_TIMEOUT_US, self._on_flush_timeout)

    def _on_flush_request(self, request: FlushRequest) -> None:
        if request.epoch <= self.view.view_id or request.epoch < self._flush_epoch:
            return  # stale proposal
        self._flush_epoch = request.epoch
        self._suspended = True
        histories: Dict[str, Dict[int, Stamped]] = {}
        next_seqs: Dict[str, int] = {}
        if self._wedged and request.proposer_view_id > self.view.view_id:
            # Merge after an asymmetric wedge: the proposer installed
            # views we missed, so our group state is stale and any
            # stamps we hold beyond the shared prefix are forked.
            # Report nothing — the coordinator's GroupSnapshot plus
            # the install's recovery stamps rebuild us at its cut.
            pass
        else:
            for group, state in self._groups.items():
                histories[group] = {s.seq: s for s in state.history}
                next_seqs[group] = state.last_stamp + 1
        ack = FlushAck(epoch=request.epoch, sender=self.host.name,
                       histories=histories, next_seqs=next_seqs)
        if request.proposer == self.host.name:
            self._on_flush_ack(ack)
        else:
            self._link(request.proposer).send(ack,
                                              estimate_control_bytes(ack))
            # If the proposer dies before installing, take over.
            self.set_timer("flush", FLUSH_TIMEOUT_US, self._on_flush_timeout)

    def _on_flush_ack(self, ack: FlushAck) -> None:
        if ack.epoch != self._flush_epoch or self._flush_proposal is None:
            return
        self._flush_acks[ack.sender] = ack
        waiting = set(self._flush_proposal) - set(self._flush_acks)
        if waiting:
            return
        # All survivors reported: compute the union cut per group.
        recovery: Dict[str, List[Stamped]] = {}
        next_seqs: Dict[str, int] = {}
        union: Dict[str, Dict[int, Stamped]] = {}
        for ackmsg in self._flush_acks.values():
            for group, history in ackmsg.histories.items():
                union.setdefault(group, {}).update(history)
            for group, nxt in ackmsg.next_seqs.items():
                next_seqs[group] = max(next_seqs.get(group, 1), nxt)
        for group, stamps in union.items():
            recovery[group] = [stamps[s] for s in sorted(stamps)]
            top = max(stamps) + 1 if stamps else 1
            next_seqs[group] = max(next_seqs.get(group, 1), top)
        new_view = DaemonView(view_id=self._flush_epoch,
                              members=self._flush_proposal)
        install = ViewInstall(epoch=self._flush_epoch, view=new_view,
                              recovery=recovery, next_seqs=next_seqs)
        # Hosts re-admitted after a partition (in the proposal but not
        # in our current view) first get the authoritative group state,
        # then the install — sent before our own install so that
        # anything the resumed coordinator pushes at them afterwards
        # arrives behind the snapshot on the ordered link.
        rejoiners = set(self._flush_proposal) - set(self.view.members)
        if rejoiners:
            snapshot = self._build_group_snapshot(self._flush_epoch)
            snap_bytes = estimate_control_bytes(snapshot)
            for peer in sorted(rejoiners):
                self._link(peer).send(snapshot, snap_bytes)
                self._link(peer).send(install,
                                      estimate_control_bytes(install))
        for peer in self._flush_proposal:
            if peer in rejoiners:
                continue
            if peer == self.host.name:
                self._on_view_install(install)
            else:
                self._link(peer).send(install,
                                      estimate_control_bytes(install))

    def _on_flush_timeout(self) -> None:
        """The flush stalled (coordinator or a member died mid-flush).

        Re-run failure detection with a fresh suspicion of whoever we
        were waiting for, then restart the flush if we now coordinate.
        """
        if not self._suspended:
            return
        if self._wedged:
            # A merge attempt stalled (peer died or re-partitioned
            # mid-flush); clear it so the heal check can retry.
            self._flush_proposal = None
            self._flush_acks = {}
            return
        live = self._live_members()
        if self._flush_proposal is not None and min(live) == self.host.name:
            # Suspect proposed members that never acked.
            silent = set(self._flush_proposal) - set(self._flush_acks)
            silent.discard(self.host.name)
            stalled = {
                p for p in silent
                if self.sim.now - self._last_heard.get(p, 0.0)
                > self.cal.failure_timeout_us}
            self._suspects |= stalled
        else:
            # We were a follower; the proposer must be gone.
            coordinator = min(live)
            if coordinator != self.host.name:
                self.set_timer("flush", FLUSH_TIMEOUT_US,
                               self._on_flush_timeout)
                return
        proposal = self._live_members()
        if self.cal.primary_partition and proposal \
                and not self._has_majority(proposal):
            self._wedge(proposal)
            return
        if proposal and min(proposal) == self.host.name:
            self._start_flush(proposal)

    def _on_view_install(self, install: ViewInstall) -> None:
        if install.epoch < self._flush_epoch or install.epoch <= self.view.view_id:
            return
        self.cancel_timer("flush")
        # 1. Apply recovery stamps so all survivors share one cut.
        for group in sorted(install.recovery):
            for stamp in install.recovery[group]:
                self._apply_stamp(stamp)
        # 2. Install the daemon view; close links to the departed.
        old_members = set(self.view.members)
        self.view = install.view
        dead = old_members - set(install.view.members)
        for peer in dead:
            link = self._links.pop(peer, None)
            if link is not None:
                link.close()
            self._suspects.discard(peer)
            self._detector.forget(peer)
        self._rebuild_view_routing()
        self._suspects &= set(install.view.members)
        self._next_seq = dict(install.next_seqs)
        journal = self.sim.journal
        if journal.enabled:
            journal.record(self.sim.now, self.host.name, "gcs",
                           "daemon.install", view_id=self.view.view_id,
                           members=list(self.view.members),
                           dead=sorted(dead))
        # 3. Remove group members stranded on dead daemons; every
        #    survivor computes the identical result at the same cut.
        for group in sorted(self._groups):
            state = self._groups[group]
            gone = [m for m in state.members if m.host in dead]
            if gone:
                self._apply_membership(state, group, joined=[], left=gone,
                                       crashed=True)
        # 4. Resume: re-route membership requests and AGREED messages
        #    that never got stamped (their sequencer may have died),
        #    then drain sends buffered during the flush.
        self._suspended = False
        self._flush_proposal = None
        self._flush_acks = {}
        self._rejoiners -= set(install.view.members)
        for request in list(self._pending_membership.values()):
            self._route_to_sequencer(request)
        pending = list(self._pending_forwards.values())
        for forward in pending:
            self._route_to_sequencer(forward)
        outbox, self._outbox = self._outbox, []
        for op in outbox:
            op()
        # 5. If we were wedged in a minority component, this install is
        #    the heal: resume serving and re-join our local members.
        if self._wedged:
            self._heal_wedge()

    # ==================================================================
    # Internals
    # ==================================================================
    @property
    def at_rest(self) -> bool:
        """True when no flush, wedge or suspicion is pending and no
        link holds an unacknowledged or stashed frame.  Whether the
        daemons agree on one view of the live ones is for the caller
        to compare."""
        return not (self._suspended or self._wedged or self._suspects
                    or self._flush_proposal is not None) \
            and all(link.idle for link in self._links.values())

    def _group(self, group: str) -> _GroupState:
        state = self._groups.get(group)
        if state is None:
            state = _GroupState(self.cal.history_limit)
            self._groups[group] = state
        return state

    def on_stop(self) -> None:
        """Close links and release the daemon port."""
        for link in self._links.values():
            link.close()
        self._links.clear()
        self._sends.clear()
        self.host.unbind(GCS_PORT)


class ClientPort:
    """Daemon-side handle for one connected client process.

    :class:`repro.gcs.client.GcsClient` implements this interface; the
    daemon never calls application code directly, only these three
    delivery methods (already delayed by the local IPC cost).
    """

    member: MemberId

    def deliver_message(self, group: str, sender: MemberId, payload: Any,
                        nbytes: int) -> None:
        """Deliver one group multicast to the client."""
        raise NotImplementedError

    def deliver_view(self, view: GroupView, joined: List[MemberId],
                     left: List[MemberId], crashed: bool) -> None:
        """Deliver a group membership change to the client."""
        raise NotImplementedError

    def deliver_direct(self, sender: MemberId, payload: Any,
                       nbytes: int) -> None:
        """Deliver one point-to-point message to the client."""
        raise NotImplementedError
