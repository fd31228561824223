"""Server-side replicator: the middle layer of the paper's replicator
stack.

One :class:`ServerReplicator` runs under each server replica's ORB
(it implements the :class:`ServerTransport` seam, so the server
application and ORB are replication-unaware).  It joins the replica
group, delivers totally-ordered requests to the local ORB, manages
checkpoints, elects primaries, transfers state to joining replicas,
and runs the Fig. 5 runtime style-switch protocol.

Roles by style
--------------
- **Active**: every replica processes every (AGREED-ordered) request
  and replies directly to the client; the client keeps the first
  response (or votes).
- **Warm passive**: the longest-standing member is the primary; it
  alone processes requests and multicasts a checkpoint every
  ``checkpoint_interval_requests`` requests.  With ``sync_checkpoints``
  the primary quiesces until its own checkpoint is delivered back on
  the total order — the quiescence cost the paper identifies as the
  price of passive replication.
- **Cold passive**: like warm passive, but checkpoints go to stable
  storage and no live backups exist; a :class:`ReplicaFactory`
  launches a replacement on failure.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import AdaptationError, ReplicationError
from repro.gcs.client import GcsClient
from repro.gcs.messages import GroupView, MemberId
from repro.monitoring.windows import SlidingWindow
from repro.orb.giop import GiopReply
from repro.orb.transport import RequestHandler, ServerTransport, ServiceAddress
from repro.replication.messages import (
    Checkpoint,
    Fence,
    RepReply,
    RepRequest,
    SwitchCommand,
    SyncRequest,
)
from repro.replication.session import Session, session_of
from repro.replication.store import StableStore
from repro.replication.styles import ReplicationConfig, ReplicationStyle
from repro.replication.switch import SwitchRecord, SwitchState
from repro.sim.actor import Actor
from repro.sim.config import InterposeCalibration, ReplicationCalibration
from repro.telemetry.spans import (
    COMPONENT_GCS,
    COMPONENT_REPLICATOR,
    KIND_CHARGED,
    KIND_TRANSIT,
)

#: Requests a cold backup logs at most (it applies no checkpoint that
#: would clear its log); a take-over replays the newest ones.
COLD_LOG_LIMIT = 8192

#: Joiner state-transfer request retry period.
SYNC_RETRY_US = 120_000.0


class ServerReplicator(Actor, ServerTransport):
    """Replication middleware for one server replica."""

    def __init__(self, gcs: GcsClient, config: ReplicationConfig,
                 replication_cal: Optional[ReplicationCalibration] = None,
                 interpose_cal: Optional[InterposeCalibration] = None,
                 store: Optional[StableStore] = None,
                 sync_checkpoints: bool = True):
        super().__init__(gcs.process,
                         name=f"repl:{gcs.process.name}")
        self.gcs = gcs
        self.config = config
        self.rcal = replication_cal or ReplicationCalibration()
        self.ical = interpose_cal or InterposeCalibration()
        self.store = store
        self.sync_checkpoints = sync_checkpoints
        if config.style is ReplicationStyle.COLD_PASSIVE and store is None:
            raise ReplicationError("cold passive replication needs a store")

        self.member = gcs.member
        self.group = config.group
        self.style = config.style
        self.view: Optional[GroupView] = None

        self._on_request: Optional[RequestHandler] = None
        self._state_provider: Optional[Any] = None
        self._started = False

        # At-most-once: one session per issuing client (which of its
        # requests ran here, and the replies it may still ask for).
        self._sessions: Dict[str, Session] = {}
        # Periodic checkpoints are increments: the next one extends
        # checkpoint ``_base`` (0: it goes out complete); ``_applied`` is
        # the (source, id) of the last one applied here.
        self._base = 0
        self._applied: Optional[Tuple[MemberId, int]] = None
        # Requests logged since the last checkpoint (broadcast mode).
        self._request_log: "deque[RepRequest]" = deque(
            maxlen=COLD_LOG_LIMIT)
        self._since_ckpt = 0
        self._ckpt_ids = 0
        # Pause/queue machinery (switches, sync fences, quiescence).
        self._paused = 0
        self._queue: List[RepRequest] = []
        # Ids of the two-way requests running here.  They enter their
        # client's session only once answered, so no checkpoint claims
        # a request whose effect its state may lack.
        self._running: set = set()
        self._drain_waiters: List[Callable[[], None]] = []
        # Passive primaries with synchronous checkpoints hold replies
        # until the covering checkpoint is stable, so a reply implies
        # the state it reflects survives the primary's crash.
        self._held_replies: List[Tuple[MemberId, RepReply]] = []
        # Switch protocol.
        self._switch: Optional[SwitchState] = None
        self._switches_seen: set = set()
        self.switch_history: List[SwitchRecord] = []
        # Joiner state transfer.
        self._synced = False
        # Start of the ``sync`` timer's 120 ms grid (set by start()).
        self._sync_grid_us = 0.0
        # Cluster seams (installed by repro.cluster's ShardAdmin; both
        # stay None in non-sharded deployments, costing one comparison).
        # fence_handler(fence) runs at the fence's total-order position
        # with intake already paused; owned_filter(key) -> False drops
        # requests for keys this shard no longer owns.
        self.fence_handler: Optional[Callable[[Fence], None]] = None
        self.owned_filter: Optional[Callable[[str], bool]] = None
        # Shard attribution (set by repro.cluster's deploy): journal
        # events carry the shard name when set.
        self.shard: Optional[str] = None
        # Arrival-rate sensor (feeds the adaptation layer, Fig. 6).
        self.arrivals = SlidingWindow(500_000.0)
        # Statistics.
        self.requests_processed = 0
        self.replies_sent = 0
        self.duplicates_suppressed = 0
        self.checkpoints_sent = 0
        # Span site codes, interned on the first traced request: the
        # style they were interned for with the process and redirect
        # sites (re-interned after a switch), and the plain and held
        # ``gcs.reply`` transit sites.
        self._sites: Optional[Tuple[ReplicationStyle, int, int]] = None
        self._reply_sites: Optional[Tuple[int, int]] = None
        self.checkpoints_applied = 0
        self.relays = 0

    def _journal(self, kind: str, trace_id=None, **attrs) -> None:
        """Record a dependability event (no-op when the journal is off)."""
        journal = self.sim.journal
        if journal.enabled:
            journal.record(self.sim.now, self.process.host.name,
                           "replicator", kind, trace_id=trace_id,
                           shard=self.shard,
                           process=self.process.name, **attrs)

    # ==================================================================
    # ServerTransport interface (called by OrbServer)
    # ==================================================================
    def start(self, on_request: RequestHandler) -> ServiceAddress:
        """ServerTransport hook: join the group and begin serving."""
        if self._started:
            raise ReplicationError("replicator already started")
        self._on_request = on_request
        self._started = True
        self.gcs.on_direct(self._on_direct)
        self.gcs.join(self.group, self._on_group_message, self._on_view)
        self._sync_grid_us = self.sim.now
        self.set_periodic_timer("sync", SYNC_RETRY_US, self._sync_tick)
        return ServiceAddress.replicated(self.group)

    def stop(self) -> None:
        """Leave the replica group."""
        if self._started and self.alive:
            self.gcs.leave(self.group)
            self._started = False

    def bind_state_provider(self, provider: Any) -> None:
        """Attach the object exposing ``capture_state``/``restore_state``
        (normally the :class:`OrbServer`)."""
        self._state_provider = provider

    # ==================================================================
    # Role computation
    # ==================================================================
    @property
    def primary(self) -> Optional[MemberId]:
        """Deterministic primary: the longest-standing group member."""
        if self.view is None or not self.view.members:
            return None
        return self.view.members[0]

    @property
    def is_primary(self) -> bool:
        return self.primary == self.member

    @property
    def processes_requests(self) -> bool:
        """Does this replica execute application requests right now?"""
        return self.style is ReplicationStyle.ACTIVE or self.is_primary

    @property
    def switching(self) -> bool:
        return self._switch is not None

    # ==================================================================
    # Group delivery
    # ==================================================================
    def _on_group_message(self, group: str, sender: MemberId, payload: Any,
                          nbytes: int) -> None:
        if isinstance(payload, RepRequest):
            self._receive_request(payload, via_group=True)
        elif isinstance(payload, Checkpoint):
            self._receive_checkpoint(payload)
        elif isinstance(payload, SwitchCommand):
            self._on_switch_command(payload)
        elif isinstance(payload, Fence):
            self._on_fence(payload)

    def _on_direct(self, sender: MemberId, payload: Any,
                   nbytes: int) -> None:
        if isinstance(payload, RepRequest):
            self._receive_request(payload, via_group=False)
        elif isinstance(payload, SyncRequest):
            self._on_sync_request(payload)

    # ==================================================================
    # Request path
    # ==================================================================
    def _receive_request(self, rep: RepRequest, via_group: bool) -> None:
        if not self.alive or not self._started:
            return
        self.arrivals.add(self.sim.now, 1.0)
        if self._switch is not None or self._paused or not self._synced:
            if via_group:
                self._queue.append(rep)
            else:
                # Point-to-point requests arriving mid-switch are
                # re-multicast so every (soon-to-be-active) replica
                # sees them at the same place in the total order.
                self._republish(rep)
            return
        if not via_group and not self.style.is_passive:
            # A point-to-point request reached an active replica (the
            # client has stale style knowledge, e.g. right after a
            # passive-to-active switch).  Republish on the total order
            # so every replica executes it — processing it alone would
            # diverge the state machines.
            self._republish(rep)
            return
        if not self.processes_requests:
            if via_group:
                if self.config.broadcast_requests:
                    self._request_log.append(rep)
                return
            # Misdirected point-to-point request (stale primary info at
            # the client): relay once to the current primary.
            if not rep.relayed and self.primary is not None \
                    and self.primary != self.member:
                self.relays += 1
                relay = RepRequest(request=rep.request, client=rep.client,
                                   relayed=True, awaiting=rep.awaiting)
                self.gcs.send_direct(self.primary, relay, relay.wire_bytes)
            return
        self._process(rep)

    def _republish(self, rep: RepRequest) -> None:
        again = RepRequest(request=rep.request, client=rep.client,
                           relayed=True, awaiting=rep.awaiting)
        self.gcs.multicast(self.group, again, again.wire_bytes)

    def _process(self, rep: RepRequest) -> None:
        request = rep.request
        req_id = request.request_id
        if self.owned_filter is not None \
                and not self.owned_filter(request.object_key):
            # A request for a key this shard no longer owns (it raced
            # a migration commit).  Stay silent: the client's retry
            # goes through the router's fresh map to the new owner,
            # whose transferred sessions keep it at-most-once.
            return
        # A oneway request is never retried nor answered, so it stays
        # out of the sessions (their watermark rises from ``awaiting``,
        # which a oneway request does not hold back).
        if not request.oneway:
            client, number = session_of(req_id)
            session = self._sessions.get(client)
            if session is not None and (number <= session.floor
                                        or number in session.above):
                # Ran: its reply, if the session still keeps it, is all
                # a retry gets.
                cached = session.reply(number)
                if cached is not None:
                    # At-most-once semantics: resend the cached answer,
                    # stamped with this replica's configuration — the
                    # one it carries is from whenever (and wherever) the
                    # request first ran, and the client learns from it.
                    self.duplicates_suppressed += 1
                    again = self._rep_reply(cached)
                    self.gcs.send_direct(rep.client, again,
                                         again.wire_bytes)
                return
            if req_id in self._running:
                return  # its reply, when it comes, answers the retry
            self._running.add(req_id)

        local = request.fork()
        overhead = (self.ical.redirect_us + self.rcal.duplicate_check_us
                    + self.rcal.logging_us)
        telemetry = self.sim.telemetry
        process_span = None
        ctx = None
        if telemetry.enabled:
            ctx = local.trace
            if ctx is not None:
                telemetry.finish_inflight(ctx, self.sim.now)
                ctx = ctx.at_root()
                object.__setattr__(local, "trace", ctx)
                sites = self._sites
                if sites is None or sites[0] is not self.style:
                    sites = self._intern_sites(telemetry)
                process_span = telemetry.open(ctx, sites[1], self.sim.now)

        def hand_to_orb() -> None:
            if not self.alive:
                return
            if telemetry.enabled:
                telemetry.end(process_span, self.sim.now)
            assert self._on_request is not None
            self._on_request(local, finish)

        def finish(reply: GiopReply) -> None:
            if not self.alive:
                return
            self._running.discard(req_id)
            self._session(client).answer(number, reply, rep.awaiting)
            self.requests_processed += 1
            rep_reply = self._rep_reply(reply)
            reply_ctx = reply.trace if telemetry.enabled else None
            if reply_ctx is not None:
                # The reply redirect is charged without elapsing
                # simulated time (it overlaps the reply transit), so
                # its span is recorded pre-closed rather than measured.
                sites = self._sites
                if sites is None or sites[0] is not self.style:
                    sites = self._intern_sites(telemetry)
                telemetry.open(reply_ctx, sites[2], self.sim.now,
                               self.sim.now + self.ical.redirect_us)
            if self._must_hold_reply():
                # The covering checkpoint goes out first; the reply is
                # released when that checkpoint is stable.
                self._held_replies.append((rep.client, rep_reply))
            else:
                self._send_reply(rep.client, rep_reply)
            self._after_request()
            if not self._running:
                self._fire_drain_waiters()

        self.process.host.cpu.execute(overhead, hand_to_orb)

    def _intern_sites(self, telemetry: Any
                      ) -> Tuple[ReplicationStyle, int, int]:
        """Intern the process and redirect span sites of the current
        style (on the first traced request and after a switch)."""
        host, name, style = (self.process.host.name, self.process.name,
                             self.style)
        self._sites = (
            style,
            telemetry.site("server.process", COMPONENT_REPLICATOR, host,
                           name, style=style.value),
            telemetry.site("server.redirect", COMPONENT_REPLICATOR, host,
                           name, KIND_CHARGED, style=style.value))
        return self._sites

    def _rep_reply(self, reply: GiopReply) -> RepReply:
        """``reply`` wrapped with the configuration clients learn."""
        return RepReply(reply=reply, replica=self.member, style=self.style,
                        primary=self.primary,
                        broadcast=self.config.broadcast_requests)

    def _session(self, client: str) -> Session:
        """``client``'s session, copied first if it was shipped."""
        session = self._sessions.get(client)
        if session is None:
            session = self._sessions[client] = Session()
        elif session.shipped:
            session = self._sessions[client] = session.copy()
        return session

    def ship_sessions(self) -> Dict[str, Session]:
        """The session table as it stands, for a checkpoint, the store
        or a migration.  Its sessions are frozen from now on."""
        for session in self._sessions.values():
            session.shipped = True
        return dict(self._sessions)

    def _must_hold_reply(self) -> bool:
        """True when the reply must wait for checkpoint stability:
        synchronous-checkpoint passive primary whose next checkpoint
        is due now (it will cover this request's state change)."""
        if not self.sync_checkpoints:
            return False
        if not self.style.is_passive:
            return False
        if not self.is_primary or not self.processes_requests:
            return False
        return (self._since_ckpt + 1
                >= self.config.checkpoint_interval_requests)

    def _send_reply(self, client: MemberId, rep_reply: RepReply,
                    held: bool = False) -> None:
        """Send ``rep_reply`` to ``client``; a traced reply opens its
        ``gcs.reply`` transit span, tagged ``held="1"`` when the reply
        waited for its covering checkpoint."""
        telemetry = self.sim.telemetry
        if telemetry.enabled:
            reply = rep_reply.reply
            ctx = reply.trace
            if ctx is not None:
                sites = self._reply_sites
                if sites is None:
                    host, name = self.process.host.name, self.process.name
                    sites = self._reply_sites = (
                        telemetry.site("gcs.reply", COMPONENT_GCS, host,
                                       name, KIND_TRANSIT),
                        telemetry.site("gcs.reply", COMPONENT_GCS, host,
                                       name, KIND_TRANSIT, held="1"))
                ctx = ctx.at_root()
                span_id = telemetry.open(ctx, sites[held], self.sim.now)
                object.__setattr__(reply, "trace", ctx if span_id is None
                                   else ctx.in_transit(span_id))
        self.gcs.send_direct(client, rep_reply, rep_reply.wire_bytes)
        self.replies_sent += 1

    def _release_held_replies(self) -> None:
        held, self._held_replies = self._held_replies, []
        for client, rep_reply in held:
            self._send_reply(client, rep_reply, held=True)

    def _after_request(self) -> None:
        """Post-processing hook: periodic checkpointing for the styles
        that need it."""
        if self.style is ReplicationStyle.ACTIVE:
            if self._held_replies:
                self._release_held_replies()
            return
        if not self.processes_requests or not self.is_primary:
            return
        self._since_ckpt += 1
        if self._since_ckpt >= self.config.checkpoint_interval_requests:
            self._checkpoint()
        elif self._held_replies:
            self._release_held_replies()

    # ==================================================================
    # Checkpointing and state transfer
    # ==================================================================
    def _capture(self) -> Tuple[Any, int]:
        if self._state_provider is None:
            return None, 0
        return self._state_provider.capture_state()

    def _checkpoint(self, final_for: Optional[str] = None,
                    sync_for: Optional[MemberId] = None) -> None:
        """Capture state now; publish after the serialization cost."""
        state, nbytes = self._capture()
        self._since_ckpt = 0
        self._request_log.clear()
        self._ckpt_ids += 1
        # Periodic checkpoints ship incremental state updates; the
        # final (switch) and sync (state-transfer) checkpoints must be
        # complete snapshots.
        periodic = final_for is None and sync_for is None
        to_store = periodic and self.style is ReplicationStyle.COLD_PASSIVE
        if periodic:
            wire_state = int(nbytes * self.config.checkpoint_delta_fraction)
        else:
            wire_state = nbytes
        # The sessions ride with the snapshot: any request whose effect
        # is in this state must not run again wherever it is restored.
        sessions = self.ship_sessions()
        ckpt = Checkpoint(ckpt_id=self._ckpt_ids, state=state,
                          state_bytes=wire_state, source=self.member,
                          final_for=final_for, sync_for=sync_for,
                          sessions=sessions,
                          base=self._base if periodic and not to_store
                          else 0)
        # Every member (or the store) is delivered this checkpoint, so
        # the next periodic one may extend it — if this replica is the
        # one that checkpoints periodically (an active replica
        # answering a sync request is not).
        self._base = (0 if self.style is ReplicationStyle.ACTIVE
                      else ckpt.ckpt_id)
        backups = max(0, len(self.view.members) - 1) if self.view else 0
        cost = (self.rcal.checkpoint_fixed_us
                + self.rcal.checkpoint_per_byte_us * nbytes  # full state
                + self.rcal.checkpoint_per_target_us * backups)

        def publish() -> None:
            if not self.alive:
                return
            if to_store:
                assert self.store is not None
                if self.sync_checkpoints:
                    self._pause()
                    self.store.write(self.group, ckpt.ckpt_id, ckpt.state,
                                     ckpt.state_bytes,
                                     on_done=self._on_checkpoint_stable,
                                     sessions=sessions)
                else:
                    self.store.write(self.group, ckpt.ckpt_id, ckpt.state,
                                     ckpt.state_bytes, sessions=sessions)
                self.checkpoints_sent += 1
                self._journal("checkpoint.publish", ckpt_id=ckpt.ckpt_id,
                              state_bytes=wire_state, final_for=None,
                              sync_for=None, stable_store=True)
                return
            self.gcs.multicast(self.group, ckpt, ckpt.wire_bytes)
            self.checkpoints_sent += 1
            self._journal("checkpoint.publish", ckpt_id=ckpt.ckpt_id,
                          state_bytes=wire_state, final_for=final_for,
                          sync_for=str(sync_for) if sync_for else None)
            if self.sync_checkpoints and final_for is None:
                # Quiesce until the checkpoint is delivered back on the
                # total order (the passive-style latency cost).
                self._pause()

        self.process.host.cpu.execute(cost, publish)

    def _receive_checkpoint(self, ckpt: Checkpoint) -> None:
        if ckpt.source == self.member:
            # Self-delivery: the checkpoint is stable in the total
            # order; release held replies and quiescence, or complete
            # the switch it finalizes.
            if self._switch is not None \
                    and ckpt.final_for == self._switch.switch_id:
                self._end_switch()
            elif self.sync_checkpoints and ckpt.final_for is None:
                self._on_checkpoint_stable()
            return
        apply_cost = (self.rcal.state_apply_fixed_us
                      + self.rcal.state_apply_per_byte_us * ckpt.state_bytes)

        def apply() -> None:
            if not self.alive:
                return
            if ckpt.base and self._applied != (ckpt.source, ckpt.base):
                # An increment over a checkpoint this replica did not
                # apply (it joined, or was re-admitted, after that one
                # went out): take nothing and stay unsynced; the sync
                # timer keeps asking for a complete checkpoint.
                return
            if self._state_provider is not None and ckpt.state is not None:
                self._state_provider.restore_state(ckpt.state)
            self.checkpoints_applied += 1
            self._journal("checkpoint.apply", ckpt_id=ckpt.ckpt_id,
                          source=str(ckpt.source))
            self._request_log.clear()
            self._sessions = dict(ckpt.sessions)
            self._applied = (ckpt.source, ckpt.ckpt_id)
            if not self._synced:
                if ckpt.sync_for in (None, self.member):
                    self._mark_synced()
            if self._switch is not None \
                    and ckpt.final_for == self._switch.switch_id:
                self._switch.final_checkpoint_seen = True
                self._end_switch()

        self.process.host.cpu.execute(apply_cost, apply)

    def _restore_from_store(self) -> None:
        """Cold-passive recovery: load the last persisted checkpoint and
        the sessions stored with it, then serve."""
        assert self.store is not None

        def loaded(snapshot) -> None:
            if not self.alive:
                return
            if snapshot is None or self._state_provider is None:
                self._mark_synced()
                return

            def restore() -> None:
                if not self.alive:
                    return
                self._state_provider.restore_state(snapshot.state)
                self._sessions = dict(snapshot.sessions)
                self._mark_synced()

            apply_cost = (self.rcal.state_apply_fixed_us
                          + self.rcal.state_apply_per_byte_us
                          * snapshot.state_bytes)
            self.process.host.cpu.execute(apply_cost, restore)

        self.store.read(self.group, loaded)

    def _on_checkpoint_stable(self) -> None:
        """A synchronous checkpoint reached stability: replies whose
        state it covers may go out, and intake resumes."""
        if not self.alive:
            return
        self._release_held_replies()
        self._resume()

    def _mark_synced(self) -> None:
        if self._synced:
            return
        self._synced = True
        self.cancel_timer("sync")
        self.cancel_timer("sync-retry")
        self._journal("state.sync", member=str(self.member),
                      style=self.style.value)
        self._drain_queue()

    def _unsync(self) -> None:
        """Drop back to unsynced and re-arm the ``sync`` timer that
        :meth:`_mark_synced` stopped, on the grid it ticked on from
        :meth:`start`: its next tick is the first grid instant after
        now."""
        self._synced = False
        due = self._sync_grid_us
        while due <= self.sim.now:
            due += SYNC_RETRY_US
        self.set_periodic_timer("sync", SYNC_RETRY_US, self._sync_tick,
                                first_at_us=due)

    def _sync_tick(self) -> None:
        """Joiner-driven state transfer: until synced, periodically ask
        the oldest member for a checkpoint (survives donor crashes)."""
        if self._synced or self.view is None:
            return
        if self.view.members and self.view.members[0] == self.member:
            # Everyone older than us is gone; adopt our own state.
            self._mark_synced()
            return
        donor = self.view.members[0] if self.view.members else None
        if donor is not None:
            req = SyncRequest(joiner=self.member)
            self.gcs.send_direct(donor, req, req.wire_bytes)

    def _on_sync_request(self, request: SyncRequest) -> None:
        if not self._synced or not self.alive:
            return
        if not self.style.is_passive:
            # Fence: quiesce, drain in-flight work, checkpoint at a
            # total-order-consistent point, then resume.
            self._pause()
            self._when_drained(
                lambda: (self._checkpoint(sync_for=request.joiner),
                         self._resume()))
        else:
            if self.is_primary:
                self._checkpoint(sync_for=request.joiner)

    # ==================================================================
    # Cluster fence and session transfer (repro.cluster seams)
    # ==================================================================
    def _on_fence(self, fence: Fence) -> None:
        """A cluster fence reached its total-order position: pause
        request intake here and hand control to the installed handler.
        A replicator without a handler ignores the fence entirely —
        stray fences in non-sharded groups are harmless."""
        if self.fence_handler is None:
            return
        self._pause()
        self._journal("fence", fence_id=fence.fence_id,
                      initiator=str(fence.initiator))
        self.fence_handler(fence)

    def absorb_sessions(self, sessions: Dict[str, Session]) -> None:
        """Merge sessions shipped from another group (shard migration):
        a retry of a request the old owner ran must not run again at
        the new owner, and is answered if its reply is still kept."""
        for client, theirs in sessions.items():
            mine = self._sessions.get(client)
            self._sessions[client] = (theirs if mine is None
                                      else mine.merged(theirs))

    # ==================================================================
    # Pause / drain machinery
    # ==================================================================
    def _pause(self) -> None:
        self._paused += 1

    def _resume(self) -> None:
        if self._paused > 0:
            self._paused -= 1
        if self._paused == 0 and self._switch is None:
            self._drain_queue()

    def _drain_queue(self) -> None:
        while self._queue and not self._paused and self._switch is None \
                and self._synced:
            rep = self._queue.pop(0)
            if self.processes_requests:
                self._process(rep)
            elif self.config.broadcast_requests:
                self._request_log.append(rep)

    def _when_drained(self, action: Callable[[], None]) -> None:
        if not self._running:
            action()
        else:
            self._drain_waiters.append(action)

    def _fire_drain_waiters(self) -> None:
        waiters, self._drain_waiters = self._drain_waiters, []
        for action in waiters:
            action()

    # ==================================================================
    # Style switching (paper Fig. 5)
    # ==================================================================
    def request_switch(self, target: ReplicationStyle) -> str:
        """Step I: initiate a switch by multicasting the command.

        Any replica may initiate; concurrent initiations of the same
        transition produce the same switch id and are discarded as
        duplicates, exactly as Fig. 5 prescribes.
        """
        if target is self.style and self._switch is None:
            raise AdaptationError(f"already running style {target.value}")
        epoch = len(self._switches_seen)
        switch_id = f"{self.group}:{self.style.short}->{target.short}:{epoch}"
        command = SwitchCommand(switch_id=switch_id, target=target,
                                initiator=self.member)
        self.gcs.multicast(self.group, command, command.wire_bytes)
        return switch_id

    def _on_switch_command(self, command: SwitchCommand) -> None:
        if command.switch_id in self._switches_seen:
            return  # duplicate switch message discarded
        self._switches_seen.add(command.switch_id)
        if command.target is self.style or self._switch is not None:
            return
        if command.target is ReplicationStyle.COLD_PASSIVE \
                and self.store is None:
            return  # a cold-passive style needs a stable store
        telemetry = self.sim.telemetry
        switch_ctx = None
        if telemetry.enabled:
            # A style switch gets its own trace: the root span covers
            # steps II-III at this replica (Fig. 6's switch delay).
            switch_ctx = telemetry.open_trace(
                f"switch:{command.switch_id}:{self.process.name}",
                telemetry.site("switch", host=self.process.host.name,
                               process=self.process.name,
                               from_style=self.style.value,
                               to_style=command.target.value),
                self.sim.now)
        self._switch = SwitchState(switch_id=command.switch_id,
                                   from_style=self.style,
                                   target=command.target,
                                   started_at=self.sim.now,
                                   trace_ctx=switch_ctx)
        self._journal("switch.prepare",
                      trace_id=(switch_ctx.trace_id
                                if switch_ctx is not None else None),
                      switch_id=command.switch_id,
                      from_style=self.style.value,
                      to_style=command.target.value,
                      initiator=str(command.initiator))
        # Step II: everyone starts enqueueing application messages
        # (handled by the _switch check in _receive_request).
        if self._switch.passive_to_active:
            if self.is_primary:
                # Case 1: primary sends one more checkpoint.
                self._when_drained(
                    lambda: self._checkpoint(
                        final_for=command.switch_id))
            # Backups: wait for that checkpoint (or the primary's
            # crash, handled in _on_view).
        else:
            # Case 2 (and active->cold / passive<->passive): drain
            # in-flight work, then adopt the new roles.
            self._when_drained(self._end_switch)

    def _end_switch(self, rolled_back: bool = False) -> None:
        """Step III: adopt the target style, then process the requests
        enqueued during the switch under it.  A rollback is Fig. 5 case
        1's crash branch: the passive primary died before its final
        checkpoint, so the replicas become active at once and process
        everything they logged and queued."""
        switch = self._switch
        if switch is None:
            return
        queued = len(self._queue)
        if switch.trace_ctx is not None:
            self.sim.telemetry.finish_trace(switch.trace_ctx, self.sim.now)
        self.style = switch.target
        self._switch = None
        if not rolled_back:
            self._since_ckpt = 0
        self._base = 0
        self._release_held_replies()
        self.switch_history.append(SwitchRecord(
            switch_id=switch.switch_id, from_style=switch.from_style,
            to_style=switch.target, started_at=switch.started_at,
            completed_at=self.sim.now, rolled_back=rolled_back,
            queued_requests=queued))
        self._journal("switch.rollback" if rolled_back
                      else "switch.complete",
                      trace_id=(switch.trace_ctx.trace_id
                                if switch.trace_ctx is not None else None),
                      switch_id=switch.switch_id,
                      from_style=switch.from_style.value,
                      to_style=switch.target.value, queued=queued,
                      duration_us=self.sim.now - switch.started_at)
        if rolled_back:
            # Broadcast-mode backups logged requests since the last
            # checkpoint; the rollback promotes them to executors, so
            # the log must replay (mirroring _take_over_as_primary) or
            # those acknowledged requests are lost.
            log = list(self._request_log)
            self._request_log.clear()
            for rep in log:
                self._process(rep)
        if self.style.is_passive and not self.processes_requests:
            # Fig. 5 case 2 (active->passive): a new backup processes
            # the outstanding requests, keeping its state aligned with
            # the new primary at the switch point, and *then* becomes
            # completely passive.
            outstanding, self._queue = self._queue, []
            for rep in outstanding:
                self._process(rep)
        else:
            self._drain_queue()

    # ==================================================================
    # View changes
    # ==================================================================
    def _on_view(self, view: GroupView, joined: List[MemberId],
                 left: List[MemberId], crashed: bool) -> None:
        previous = self.view
        self.view = view
        if joined:
            # A member that did not apply the checkpoint the next
            # increment would extend is in the group now (possibly this
            # replica, re-admitted).
            self._base = 0
        if self.member in joined:
            if previous is not None:
                # Re-admission after a partition: this replica held a
                # view before, was excluded while wedged in the
                # minority, and has now been re-joined by its healed
                # daemon.  Its state missed everything the majority
                # processed meanwhile — drop back to unsynced and pull
                # a fresh checkpoint before serving again.
                self._unsync()
            if len(view.members) == 1:
                # First member: no live peer to sync from.  A cold
                # passive (re)start recovers from stable storage first.
                if self.style is ReplicationStyle.COLD_PASSIVE \
                        and self.store is not None:
                    self._restore_from_store()
                else:
                    self._mark_synced()
            else:
                self.set_timer("sync-retry", 1.0, self._sync_tick)
            return
        if not left:
            return
        old_primary = previous.members[0] if previous and previous.members \
            else None
        primary_lost = old_primary is not None and old_primary in left
        if self._switch is not None and self._switch.passive_to_active \
                and primary_lost and not self._switch.final_checkpoint_seen:
            self._end_switch(rolled_back=True)
            return
        if primary_lost and self.style.is_passive and self.is_primary:
            self._take_over_as_primary()

    def _take_over_as_primary(self) -> None:
        """Passive failover: the oldest surviving backup becomes
        primary.  A warm backup's state is the last applied checkpoint,
        plus the replay of logged requests in broadcast mode.  A cold
        backup holds only the state it synced at join, so it stays
        unsynced (requests queue) until it has restored the last
        checkpoint in the stable store."""
        self._journal("failover", member=str(self.member),
                      style=self.style.value,
                      logged_requests=len(self._request_log))
        cold = self.style is ReplicationStyle.COLD_PASSIVE
        if cold:
            self._synced = False

        def promoted() -> None:
            if not self.alive:
                return
            # The backups applied the old primary's checkpoints, so the
            # re-arming checkpoint below must go out complete.
            self._base = 0
            log = list(self._request_log)
            self._request_log.clear()
            if cold:
                # The log replays after the restore, ahead of what
                # queued since (the restored sessions suppress what the
                # stored state already holds).  No re-arming checkpoint:
                # it would overwrite the store with the stale state.
                self._queue[:0] = log
                self._restore_from_store()
                return
            for rep in log:
                self._process(rep)
            # A fresh checkpoint re-arms the remaining backups.
            if len(self.view.members) > 1 if self.view else False:
                self._checkpoint()

        self.process.host.cpu.execute(self.rcal.election_us, promoted)

    # ==================================================================
    # Runtime knob setters
    # ==================================================================
    def set_checkpoint_interval(self, interval_requests: int) -> None:
        """Low-level knob: checkpoint frequency, adjustable live."""
        if interval_requests < 1:
            raise ReplicationError("checkpoint interval must be >= 1")
        from dataclasses import replace
        self.config = replace(
            self.config,
            checkpoint_interval_requests=interval_requests)

    # ==================================================================
    # Introspection
    # ==================================================================
    @property
    def synced(self) -> bool:
        return self._synced

    @property
    def at_rest(self) -> bool:
        """True when this replica holds current state and is in no
        switch."""
        return self._synced and self._switch is None

    def on_stop(self) -> None:
        """Drop queued work when the process dies."""
        self._queue.clear()
        self._running.clear()
        self._drain_waiters.clear()
        self._held_replies.clear()

