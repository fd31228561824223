"""Per-replica shard administration: fences, state hand-off, map flips.

One :class:`ShardAdmin` rides next to each server replica of a sharded
deployment.  It is the replica-side half of the migration protocol:

1. ``MigrationStart`` (control group) — source replicas prepare to
   fence; the source *primary's* admin multicasts a :class:`Fence` on
   the shard's own group, so every source replica pauses intake at the
   same position of the shard's request total order.
2. At the fence, the primary's admin waits for in-flight requests to
   drain, captures the moving servants plus its client sessions, and
   multicasts a
   ``MigrationState`` on the control group.
3. ``MigrationState`` — destination replicas adopt the servants and
   merge the client sessions immediately (the transfer cost rides on the
   wire), so the keys are servable before any router can re-route.
4. ``MapCommit`` — everyone flips the map; source replicas drop the
   moved servants, resume intake, and silently discard any queued
   requests for keys they no longer own (the owned-filter seam).

The protocol needs no acknowledgements: the GCS sequencer totally
orders control-group and shard-group traffic together, so every
process observes Start < Fence < State < Commit in that order.
A source primary crashing between fence and capture stalls the
migration (its shard un-fences on failover, but no state is
published); the coordinator's fault scope excludes that window.
"""

from __future__ import annotations

from typing import Any, Dict, Set

from repro.gcs.messages import MemberId
from repro.cluster.messages import MapCommit, MigrationStart, MigrationState
from repro.cluster.partition import PartitionMap
from repro.cluster.router import control_group
from repro.orb.server import OrbServer
from repro.replication.messages import Fence
from repro.replication.server import ServerReplicator
from repro.replication.session import replies_held


class ShardAdmin:
    """Migration agent attached to one server replica."""

    def __init__(self, replicator: ServerReplicator, orb: OrbServer,
                 cluster: str, pmap: PartitionMap):
        self.replicator = replicator
        self.orb = orb
        self.cluster = cluster
        self.shard = replicator.group
        self.map = pmap
        self.sim = replicator.sim
        #: migration id -> its Start, until the commit retires it.
        self._pending: Dict[str, MigrationStart] = {}
        #: migration ids this replica is currently fenced for.
        self._fenced: Set[str] = set()
        self.migrations_seen = 0
        replicator.fence_handler = self._on_fence
        replicator.owned_filter = self._owns
        replicator.gcs.join(control_group(cluster), self._on_control)

    # ------------------------------------------------------------------
    # Ownership (the replicator's owned-filter seam)
    # ------------------------------------------------------------------
    def _owns(self, object_key: str) -> bool:
        """Does this replica's shard own ``object_key`` right now?"""
        return self.map.owner_of(object_key) == self.shard

    # ------------------------------------------------------------------
    # Control-group delivery
    # ------------------------------------------------------------------
    def _on_control(self, group: str, sender: MemberId, payload: Any,
                    nbytes: int) -> None:
        if isinstance(payload, MigrationStart):
            self._on_start(payload)
        elif isinstance(payload, MigrationState):
            self._on_state(payload)
        elif isinstance(payload, MapCommit):
            self._on_commit(payload)

    def _on_start(self, start: MigrationStart) -> None:
        if start.migration_id in self._pending:
            return  # duplicate
        self._pending[start.migration_id] = start
        self.migrations_seen += 1
        if start.src == self.shard and not start.state_lost:
            if self.replicator.is_primary:
                # Fence the shard at one point of its own total order;
                # every source replica (this one included) pauses when
                # the fence is delivered back.
                fence = Fence(fence_id=start.migration_id,
                              initiator=self.replicator.member)
                self.replicator.gcs.multicast(
                    self.shard, fence, fence.wire_bytes)
        elif start.state_lost and start.src != self.shard:
            # Dead-shard reassignment (``dst`` is ``"*"``): the source
            # group is gone, so no state or sessions will ever
            # arrive.  Each survivor adopts the subset of the keys the
            # *target* map hands it, with fresh (factory) state, and
            # journals the loss.
            target = PartitionMap.from_dict(start.new_map)
            mine = [key for key in start.keys
                    if target.owner_of(key) == self.shard]
            if mine:
                adopted = sum(1 for key in mine
                              if self.orb.adopt_servant(key))
                self._journal("migrate.lost",
                              migration_id=start.migration_id,
                              src=start.src, keys=len(mine),
                              adopted=adopted)

    def _on_fence(self, fence: Fence) -> None:
        """Fence handler (installed on the replicator): runs with
        intake already paused, at the fence's total-order position."""
        start = self._pending.get(fence.fence_id)
        if start is None or start.src != self.shard:
            # A fence for a migration this replica never saw start
            # (or not ours): nothing to hold the pause for.
            self.replicator._resume()
            return
        self._fenced.add(fence.fence_id)
        if self.replicator.is_primary:
            self.replicator._when_drained(
                lambda: self._publish_state(fence.fence_id))

    def _publish_state(self, migration_id: str) -> None:
        """Source primary, fenced and drained: capture and publish the
        moving keys' state on the control group."""
        start = self._pending.get(migration_id)
        if start is None or not self.replicator.alive:
            return
        state, nbytes = self.orb.capture_keys(start.keys)
        sessions = self.replicator.ship_sessions()
        msg = MigrationState(migration_id=migration_id, state=state,
                             state_bytes=nbytes, sessions=sessions,
                             source=self.replicator.member)
        self.replicator.gcs.multicast(
            control_group(self.cluster), msg, msg.wire_bytes)
        self._journal("migrate.capture", migration_id=migration_id,
                      dst=start.dst, keys=len(start.keys),
                      state_bytes=nbytes, seen=replies_held(sessions))

    def _on_state(self, msg: MigrationState) -> None:
        start = self._pending.get(msg.migration_id)
        if start is None or start.dst != self.shard:
            return
        # Adopt synchronously: the commit that lets routers re-route
        # is sequenced after this message, so the keys must be
        # servable before this handler returns.  The transfer cost is
        # modelled on the wire (state_bytes), not on this CPU.
        for key in start.keys:
            self.orb.adopt_servant(key, msg.state.get(key))
        self.replicator.absorb_sessions(msg.sessions)
        self._journal("migrate.apply", migration_id=msg.migration_id,
                      src=start.src, keys=len(start.keys),
                      state_bytes=msg.state_bytes,
                      seen=replies_held(msg.sessions))

    def _on_commit(self, commit: MapCommit) -> None:
        new_map = PartitionMap.from_dict(commit.new_map)
        if new_map.epoch <= self.map.epoch:
            return  # duplicate or stale
        self.map = new_map
        start = self._pending.pop(commit.migration_id, None)
        if start is not None and start.src == self.shard:
            disowned = [key for key in self.orb.servant_keys
                        if new_map.owner_of(key) != self.shard]
            dropped = self.orb.drop_servants(disowned)
            self._journal("migrate.done", migration_id=commit.migration_id,
                          dst=start.dst, dropped=dropped,
                          epoch=new_map.epoch)
            if commit.migration_id in self._fenced:
                self._fenced.discard(commit.migration_id)
                self.replicator._resume()

    # ------------------------------------------------------------------
    # Journal
    # ------------------------------------------------------------------
    def _journal(self, kind: str, **attrs) -> None:
        """Record a cluster event (no-op when the journal is off)."""
        journal = self.sim.journal
        if journal.enabled:
            journal.record(self.sim.now,
                           self.replicator.process.host.name,
                           "cluster", kind,
                           process=self.replicator.process.name,
                           shard=self.shard, **attrs)
