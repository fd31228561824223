"""Client-side replicator: routes invocations to the replica group.

Implements the :class:`ClientTransport` seam, so an unmodified
:class:`OrbClient` talks to a replicated service exactly as it would
to a single server (the paper's transparency requirement).

Routing policy
--------------
- **Active style**: requests are multicast AGREED to the group; the
  first reply wins (or, with voting enabled, a majority of identical
  replies — the Byzantine-client option of Section 3.1).  Duplicate
  replies from the other replicas are discarded.
- **Passive styles**: requests go point-to-point to the primary.
- The current style and primary are *learned*, not configured: every
  reply piggybacks them, and the client also watches the group so it
  knows the membership (and the join-order primary) before the first
  reply.
- **Retries** go AGREED to the whole group, which is correct in every
  style and during style switches; server-side duplicate suppression
  makes retries safe.
- **Backoff**: retry ``n`` waits ``retry_timeout_us * BACKOFF_FACTOR
  ** (n - 1)``, capped at :data:`BACKOFF_CAP_US`, plus up to
  ``±JITTER_FRAC`` of jitter hashed (crc32) from the request id and
  attempt number — never drawn from the simulation RNG, so backing off
  perturbs no other random stream.
- **Circuit breaker**: :data:`BREAKER_THRESHOLD` consecutive timeouts
  of point-to-point attempts against one endpoint open its breaker for
  :data:`BREAKER_COOLDOWN_US`; while open, first attempts stop chasing
  that primary (crashed, or wedged in a minority partition) and fall
  back to the group multicast the reachable majority serves.  Any reply
  from the endpoint closes its breaker.
"""

from __future__ import annotations

import zlib
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ReplicationError
from repro.gcs.client import GcsClient
from repro.gcs.messages import GroupView, MemberId
from repro.orb.giop import GiopRequest
from repro.orb.transport import ClientTransport, ReplyHandler
from repro.replication.messages import RepReply, RepRequest
from repro.replication.session import session_of
from repro.replication.styles import (
    ClientReplicationConfig,
    ReplicationStyle,
)
from repro.sim.actor import Actor
from repro.sim.config import InterposeCalibration
from repro.telemetry.spans import (
    COMPONENT_GCS,
    COMPONENT_REPLICATOR,
    KIND_TRANSIT,
)

#: Retry backoff: each retransmission waits this factor longer than the
#: previous one, up to the cap, with ± this fraction of hashed jitter.
BACKOFF_FACTOR = 2.0
BACKOFF_CAP_US = 2_000_000.0
JITTER_FRAC = 0.1

#: Consecutive point-to-point timeouts that open an endpoint's circuit
#: breaker, and how long it then stays open.
BREAKER_THRESHOLD = 3
BREAKER_COOLDOWN_US = 1_000_000.0


class _Outstanding:
    """Book-keeping for one not-yet-answered invocation."""

    __slots__ = ("rep", "on_reply", "attempts", "votes", "failed",
                 "last_target")

    def __init__(self, rep: RepRequest, on_reply: ReplyHandler):
        self.rep = rep
        self.on_reply = on_reply
        self.attempts = 0
        self.votes: List[RepReply] = []
        self.failed = False
        #: Endpoint of the last point-to-point attempt (circuit-breaker
        #: attribution); None when the attempt went to the group.
        self.last_target: Optional[MemberId] = None


class _Breaker:
    """Per-endpoint circuit breaker state."""

    __slots__ = ("consecutive_timeouts", "open_until_us")

    def __init__(self) -> None:
        self.consecutive_timeouts = 0
        self.open_until_us = 0.0


class ClientReplicator(Actor, ClientTransport):
    """Replication middleware under one client's ORB."""

    def __init__(self, gcs: GcsClient, config: ClientReplicationConfig,
                 interpose_cal: Optional[InterposeCalibration] = None,
                 on_failure: Optional[Callable[[GiopRequest], None]] = None):
        super().__init__(gcs.process, name=f"repl:{gcs.process.name}")
        self.gcs = gcs
        self.config = config
        self.ical = interpose_cal or InterposeCalibration()
        self.group = config.group
        # Shard attribution (set by the shard router in sharded
        # deployments): journal events carry the shard name when set.
        self.shard: Optional[str] = None
        self.style: ReplicationStyle = config.expected_style
        self.primary: Optional[MemberId] = None
        self.broadcast = False
        self.members: tuple = ()
        self.on_failure = on_failure
        self._outstanding: Dict[str, _Outstanding] = {}
        #: Request ids still awaited, lowest first (a shard router points
        #: this at its routes over all shards).
        self.awaited_ids: Dict[str, Any] = self._outstanding
        # Per-endpoint circuit breakers.
        self._breakers: Dict[MemberId, _Breaker] = {}
        self.requests_sent = 0
        self.retries = 0
        self.replies_received = 0
        self.duplicate_replies = 0
        self.failures = 0
        self.breaker_trips = 0
        self.breaker_rerouted = 0
        #: Span site codes, interned on the first traced call: redirect
        #: and accept, and the ``gcs.request`` transit per attempt.
        self._sites: Optional[Tuple[int, int]] = None
        self._transit_sites: Dict[int, int] = {}
        gcs.on_direct(self._on_direct)
        gcs.watch(self.group, self._on_view)

    # ==================================================================
    # ClientTransport interface (called by OrbClient)
    # ==================================================================
    def send_request(self, request: GiopRequest,
                     on_reply: ReplyHandler) -> None:
        """ClientTransport hook: route one invocation to the group."""
        if not self.alive:
            raise ReplicationError(f"{self.process.name} is dead")
        first = next(iter(self.awaited_ids), request.request_id)
        rep = RepRequest(request=request, client=self.gcs.member,
                         awaiting=session_of(first)[1])
        entry = _Outstanding(rep, on_reply)
        if not request.oneway:
            self._outstanding[request.request_id] = entry
        telemetry = self.sim.telemetry
        redirect_span = None
        if telemetry.enabled:
            ctx = request.trace
            if ctx is not None:
                sites = self._sites or self._intern_sites(telemetry)
                redirect_span = telemetry.open(ctx, sites[0], self.sim.now)

        def dispatch() -> None:
            if telemetry.enabled:
                telemetry.end(redirect_span, self.sim.now)
            if not self.alive:
                return
            self._transmit(entry, first_attempt=True)

        self.process.host.cpu.execute(self.ical.redirect_us, dispatch)

    def close(self) -> None:
        """Drop all outstanding invocations."""
        self._outstanding.clear()

    def recall(self, predicate: Callable[[GiopRequest], bool]
               ) -> List[Tuple[GiopRequest, ReplyHandler]]:
        """Withdraw outstanding invocations matching ``predicate``.

        Pops each matching entry and cancels its retry timer, so this
        replicator stops re-sending it; the caller (the shard router,
        after a partition-map flip) re-issues the invocation through
        the group that now owns its key.  A reply already in flight
        from the old group arrives as a harmless duplicate.
        """
        recalled: List[Tuple[GiopRequest, ReplyHandler]] = []
        for request_id in [rid for rid, entry in self._outstanding.items()
                           if predicate(entry.rep.request)]:
            entry = self._outstanding.pop(request_id)
            self.cancel_timer(f"retry:{request_id}")
            recalled.append((entry.rep.request, entry.on_reply))
        return recalled

    def _intern_sites(self, telemetry: Any) -> Tuple[int, int]:
        """Intern the redirect and accept span sites (once)."""
        host, name = self.process.host.name, self.process.name
        self._sites = (
            telemetry.site("client.redirect", COMPONENT_REPLICATOR, host,
                           name),
            telemetry.site("client.accept", COMPONENT_REPLICATOR, host,
                           name))
        return self._sites

    # ==================================================================
    # Transmission and retry
    # ==================================================================
    def _transmit(self, entry: _Outstanding, first_attempt: bool) -> None:
        entry.attempts += 1
        request = entry.rep.request
        telemetry = self.sim.telemetry
        if telemetry.enabled:
            ctx = request.trace
            if ctx is not None:
                # A retry opens a fresh transit span; the copy that
                # reaches a replica first closes the one it carried,
                # any earlier (lost) attempt's span stays open.
                site = self._transit_sites.get(entry.attempts)
                if site is None:
                    site = self._transit_sites[entry.attempts] = \
                        telemetry.site("gcs.request", COMPONENT_GCS,
                                       self.process.host.name,
                                       self.process.name, KIND_TRANSIT,
                                       attempt=str(entry.attempts))
                ctx = ctx.at_root()
                span_id = telemetry.open(ctx, site, self.sim.now)
                object.__setattr__(request, "trace", ctx if span_id is None
                                   else ctx.in_transit(span_id))
        target = self._routing_target() if first_attempt else None
        entry.last_target = target
        if target is not None:
            self.gcs.send_direct(target, entry.rep, entry.rep.wire_bytes)
        else:
            # Active style, unknown primary, or a retry: the safe path
            # is an AGREED multicast to the whole group.
            self.gcs.multicast(self.group, entry.rep, entry.rep.wire_bytes)
        if first_attempt:
            self.requests_sent += 1
        else:
            self.retries += 1
        if not request.oneway:
            self.set_timer(f"retry:{request.request_id}",
                           self._retry_delay_us(request.request_id,
                                                entry.attempts),
                           self._on_timeout, request.request_id)

    def _retry_delay_us(self, request_id: str, attempts: int) -> float:
        """Rearm interval after the ``attempts``-th transmission:
        capped exponential backoff plus jitter hashed from (request id,
        attempt)."""
        delay = min(self.config.retry_timeout_us
                    * BACKOFF_FACTOR ** (attempts - 1), BACKOFF_CAP_US)
        h = zlib.crc32(f"{request_id}:{attempts}".encode()) % 1024
        return delay * (1.0 + JITTER_FRAC * (2.0 * h / 1023.0 - 1.0))

    def _routing_target(self) -> Optional[MemberId]:
        """Point-to-point target for the first attempt, or None for
        group multicast."""
        if self.broadcast:
            # Broadcast-mode warm passive: the whole group must see
            # requests so the backups can log them for replay.
            return None
        if self.style.is_passive and self.primary is not None:
            if self._breaker_open(self.primary):
                # The primary stopped answering (crashed, wedged in a
                # minority partition, or unreachable): route around it
                # via the group multicast until its breaker cools off.
                self.breaker_rerouted += 1
                return None
            return self.primary
        return None

    # ------------------------------------------------------------------
    # Circuit breaker
    # ------------------------------------------------------------------
    def _breaker_open(self, endpoint: MemberId) -> bool:
        breaker = self._breakers.get(endpoint)
        return breaker is not None and self.sim.now < breaker.open_until_us

    def _breaker_timeout(self, endpoint: MemberId) -> None:
        breaker = self._breakers.setdefault(endpoint, _Breaker())
        breaker.consecutive_timeouts += 1
        if breaker.consecutive_timeouts < BREAKER_THRESHOLD \
                or self.sim.now < breaker.open_until_us:
            return
        breaker.open_until_us = self.sim.now + BREAKER_COOLDOWN_US
        self.breaker_trips += 1
        journal = self.sim.journal
        if journal.enabled:
            journal.record(self.sim.now, self.process.host.name,
                           "replicator", "client.breaker_open",
                           shard=self.shard, process=self.process.name,
                           endpoint=str(endpoint),
                           timeouts=breaker.consecutive_timeouts,
                           until_us=breaker.open_until_us)

    def _breaker_reset(self, endpoint: MemberId) -> None:
        breaker = self._breakers.get(endpoint)
        if breaker is not None:
            breaker.consecutive_timeouts = 0
            breaker.open_until_us = 0.0

    def _on_timeout(self, request_id: str) -> None:
        entry = self._outstanding.get(request_id)
        if entry is None or entry.failed:
            return
        if entry.last_target is not None:
            self._breaker_timeout(entry.last_target)
        if entry.attempts > self.config.max_retries:
            entry.failed = True
            self._outstanding.pop(request_id, None)
            self.failures += 1
            journal = self.sim.journal
            if journal.enabled:
                journal.record(self.sim.now, self.process.host.name,
                               "replicator", "client.giveup",
                               shard=self.shard,
                               process=self.process.name,
                               request_id=request_id,
                               attempts=entry.attempts)
            if self.on_failure is not None:
                self.on_failure(entry.rep.request)
            return
        self._transmit(entry, first_attempt=False)

    # ==================================================================
    # Replies
    # ==================================================================
    def _on_direct(self, sender: MemberId, payload: Any,
                   nbytes: int) -> None:
        if not isinstance(payload, RepReply):
            return
        self._learn(payload)
        # Any answer closes the replica's breaker.
        self._breaker_reset(payload.replica)
        request_id = payload.reply.request_id
        entry = self._outstanding.get(request_id)
        if entry is None:
            self.duplicate_replies += 1
            return
        if self.config.voting:
            self._vote(entry, payload)
        else:
            self._accept(entry, payload)

    def _learn(self, reply: RepReply) -> None:
        """Track the group's current configuration from piggybacks."""
        self.style = reply.style
        self.broadcast = reply.broadcast
        if reply.primary is not None:
            self.primary = reply.primary

    def _vote(self, entry: _Outstanding, rep_reply: RepReply) -> None:
        """Majority voting over reply payloads (Byzantine option)."""
        if any(v.replica == rep_reply.replica for v in entry.votes):
            return  # one vote per replica
        entry.votes.append(rep_reply)
        electorate = max(len(self.members), 1)
        needed = electorate // 2 + 1
        tallies: Dict[Any, int] = {}
        for vote in entry.votes:
            key = repr(vote.reply.payload)
            tallies[key] = tallies.get(key, 0) + 1
            if tallies[key] >= needed:
                self._accept(entry, vote)
                return

    def _accept(self, entry: _Outstanding, rep_reply: RepReply) -> None:
        request_id = rep_reply.reply.request_id
        self._outstanding.pop(request_id, None)
        self.cancel_timer(f"retry:{request_id}")
        self.replies_received += 1
        reply = rep_reply.reply
        telemetry = self.sim.telemetry
        accept_span = None
        if telemetry.enabled:
            ctx = reply.trace
            if ctx is not None:
                telemetry.finish_inflight(ctx, self.sim.now)
                ctx = ctx.at_root()
                object.__setattr__(reply, "trace", ctx)
                sites = self._sites or self._intern_sites(telemetry)
                accept_span = telemetry.open(ctx, sites[1], self.sim.now)

        def deliver() -> None:
            if telemetry.enabled:
                telemetry.end(accept_span, self.sim.now)
            if self.alive:
                entry.on_reply(reply)

        self.process.host.cpu.execute(self.ical.redirect_us, deliver)

    # ==================================================================
    # Group view tracking
    # ==================================================================
    def _on_view(self, view: GroupView, joined: List[MemberId],
                 left: List[MemberId], crashed: bool) -> None:
        self.members = view.members
        if view.members:
            if self.primary not in view.members:
                self.primary = view.members[0]
        else:
            self.primary = None

    def on_stop(self) -> None:
        """Drop outstanding invocations when the process dies."""
        self._outstanding.clear()
