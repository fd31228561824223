"""Shard-aware client router: one transport over many replica groups.

The :class:`ShardRouter` implements the :class:`ClientTransport` seam,
so an unmodified :class:`OrbClient` talks to a *sharded* service
exactly as it would to a single replicated one — the cluster layer
extends the paper's transparency argument one level up.  Internally
the router keeps one :class:`ClientReplicator` per shard and picks the
replicator by the partition map's owner of each request's object key.

Map changes arrive as ``MapCommit`` messages on the cluster control
group (AGREED, hence totally ordered with the migration's state
transfer).  On a commit the router atomically flips its map, then
*recalls* every outstanding invocation whose key changed owner and
re-issues it through the new owner's replicator.  The destination
shard installed the source's duplicate-suppression cache before the
commit was sequenced, so a re-issued request that the old owner had
already executed is answered from the cache, keeping the end-to-end
contract at-most-once.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.errors import ReplicationError
from repro.gcs.client import GcsClient
from repro.gcs.messages import MemberId
from repro.orb.giop import GiopRequest
from repro.orb.transport import ClientTransport, ReplyHandler
from repro.cluster.messages import MapCommit
from repro.cluster.partition import PartitionMap
from repro.replication.client import ClientReplicator
from repro.replication.messages import RepReply
from repro.replication.styles import ClientReplicationConfig
from repro.sim.actor import Actor
from repro.sim.config import InterposeCalibration
from repro.telemetry.context import context_of, set_context


def control_group(cluster: str) -> str:
    """Name of the cluster's control (map/migration) group."""
    return f"{cluster}.ctl"


class ShardRouter(Actor, ClientTransport):
    """Routes invocations to the shard owning each object key."""

    def __init__(self, gcs: GcsClient, cluster: str, pmap: PartitionMap,
                 configs: Dict[str, ClientReplicationConfig],
                 interpose_cal: Optional[InterposeCalibration] = None,
                 on_failure: Optional[Callable[[GiopRequest], None]] = None):
        super().__init__(gcs.process, name=f"router:{gcs.process.name}")
        if set(configs) != set(pmap.shards):
            raise ReplicationError(
                "router needs exactly one client config per shard: "
                f"map has {sorted(pmap.shards)}, configs for "
                f"{sorted(configs)}")
        self.gcs = gcs
        self.cluster = cluster
        self.map = pmap
        self.on_failure = on_failure
        #: request id -> owning shard, for reply demultiplexing.
        self._routes: Dict[str, str] = {}
        self.rerouted = 0
        self.stray_replies = 0
        self.map_flips = 0
        # Per-shard client replicators.  Each constructor clobbers the
        # GCS client's single direct-message handler, so the router
        # installs its own handler LAST and demultiplexes replies into
        # the owning replicator itself.
        self._replicators: Dict[str, ClientReplicator] = {}
        for shard in pmap.shards:
            replicator = ClientReplicator(
                gcs, configs[shard], interpose_cal=interpose_cal,
                on_failure=self._make_failure_hook(shard))
            replicator.shard = shard
            replicator.awaited_ids = self._routes
            self._replicators[shard] = replicator
        gcs.on_direct(self._on_direct)
        gcs.join(control_group(cluster), self._on_control)

    def _make_failure_hook(self, shard: str
                           ) -> Callable[[GiopRequest], None]:
        """Failure callback for one shard's replicator: clears the
        route, then forwards to the router-level hook."""
        def hook(request: GiopRequest) -> None:
            self._routes.pop(request.request_id, None)
            if self.on_failure is not None:
                self.on_failure(request)
        return hook

    # ==================================================================
    # ClientTransport interface (called by OrbClient)
    # ==================================================================
    def send_request(self, request: GiopRequest,
                     on_reply: ReplyHandler) -> None:
        """Route one invocation to the shard owning its object key."""
        if not self.alive:
            raise ReplicationError(f"{self.process.name} is dead")
        shard = self.map.owner_of(request.object_key)
        self._dispatch(shard, request, self._routed(request, on_reply))

    def close(self) -> None:
        """Drop all outstanding invocations in every shard."""
        self._routes.clear()
        for replicator in self._replicators.values():
            replicator.close()

    def _routed(self, request: GiopRequest,
                on_reply: ReplyHandler) -> ReplyHandler:
        """Wrap ``on_reply`` so the route entry dies with the reply."""
        if request.oneway:
            return on_reply
        request_id = request.request_id

        def routed(reply: Any) -> None:
            self._routes.pop(request_id, None)
            on_reply(reply)

        return routed

    def _dispatch(self, shard: str, request: GiopRequest,
                  on_reply: ReplyHandler) -> None:
        if not request.oneway:
            self._routes[request.request_id] = shard
        telemetry = self.sim.telemetry
        if telemetry.enabled:
            ctx = context_of(request)
            if ctx is not None:
                # Zero-width charged span: the routing decision itself
                # costs no simulated time, but the span pins the shard
                # (and epoch) onto the trace, so the trace of a
                # re-routed request shows every shard it visited.
                telemetry.emit(ctx.at_root(), "router.route", "router",
                               self.sim.now, self.sim.now,
                               host=self.process.host.name,
                               process=self.process.name,
                               shard=shard, epoch=self.map.epoch)
        self._replicators[shard].send_request(request, on_reply)

    # ==================================================================
    # Reply demultiplexing
    # ==================================================================
    def _on_direct(self, sender: MemberId, payload: Any,
                   nbytes: int) -> None:
        """The process's single direct-message handler: hand each
        reply to the replicator of the shard that served it."""
        if not isinstance(payload, RepReply):
            return
        shard = self._routes.get(payload.reply.request_id)
        if shard is None:
            # A duplicate of an already-answered request, or a late
            # reply from a shard the key migrated away from.
            self.stray_replies += 1
            return
        self._replicators[shard]._on_direct(sender, payload, nbytes)

    # ==================================================================
    # Control group: partition-map commits
    # ==================================================================
    def _on_control(self, group: str, sender: MemberId, payload: Any,
                    nbytes: int) -> None:
        if isinstance(payload, MapCommit):
            self._adopt(PartitionMap.from_dict(payload.new_map))

    def _adopt(self, new_map: PartitionMap) -> None:
        """Flip to ``new_map`` and re-route displaced invocations."""
        if new_map.epoch <= self.map.epoch:
            return  # duplicate or stale commit
        self.map = new_map
        self.map_flips += 1
        journal = self.sim.journal
        if journal.enabled:
            journal.record(self.sim.now, self.process.host.name,
                           "cluster", "router.map",
                           process=self.process.name,
                           epoch=new_map.epoch, digest=new_map.digest())
        telemetry = self.sim.telemetry
        for shard, replicator in self._replicators.items():
            recalled = replicator.recall(
                lambda req, _shard=shard:
                new_map.owner_of(req.object_key) != _shard)
            for request, on_reply in recalled:
                # ``on_reply`` is the already-wrapped routed handler,
                # so dispatching directly avoids double wrapping.
                self.rerouted += 1
                owner = new_map.owner_of(request.object_key)
                if journal.enabled:
                    journal.record(self.sim.now,
                                   self.process.host.name,
                                   "cluster", "router.reroute",
                                   shard=owner,
                                   process=self.process.name,
                                   request_id=request.request_id,
                                   from_shard=shard,
                                   epoch=new_map.epoch)
                if telemetry.enabled:
                    ctx = context_of(request)
                    if ctx is not None:
                        # Re-root the carried context so the new
                        # owner's spans hang off the original client
                        # request — one trace across the map flip, not
                        # a trace per shard attempt.
                        ctx = ctx.at_root()
                        set_context(request, ctx)
                        telemetry.emit(ctx, "router.reroute", "router",
                                       self.sim.now, self.sim.now,
                                       host=self.process.host.name,
                                       process=self.process.name,
                                       shard=owner, from_shard=shard,
                                       epoch=new_map.epoch)
                self._dispatch(owner, request, on_reply)

    # ==================================================================
    # Introspection
    # ==================================================================
    @property
    def map_digest(self) -> str:
        """Digest of the current map; equal across agreeing routers."""
        return self.map.digest()

    def replicator(self, shard: str) -> ClientReplicator:
        """The client replicator bound to ``shard``."""
        try:
            return self._replicators[shard]
        except KeyError:
            raise ReplicationError(f"unknown shard {shard!r}") from None

    def on_stop(self) -> None:
        """Drop routes when the process dies."""
        self._routes.clear()
