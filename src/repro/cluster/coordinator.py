"""Cluster coordinator: the single writer of the partition map.

The coordinator runs in its own process, joins the control group, and
watches every shard's replica group.  It is the only component that
*proposes* map changes; the changes themselves take effect through the
control group's total order, so the coordinator crashing mid-protocol
never leaves two routers with different committed maps.

Two things trigger a migration:

- an operator command (:meth:`rebalance`, also reachable through the
  ``repro cluster rebalance`` CLI), which pins one key to a new shard
  and moves its state there; and
- a shard's replica group dying entirely (every member crashed), which
  re-pins the dead shard's keys to the survivors with ``state_lost``
  set — the keys come back empty, and the journal records the loss as
  a dependability event rather than papering over it.

Migrations are strictly serialized: a new trigger queues behind the
in-flight one, and the next ``MigrationStart`` is only multicast once
the previous ``MapCommit`` has been delivered back to the coordinator.
A migration whose source shard dies mid-protocol is out of scope for
the fault loads the campaign layer injects into sharded trials.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ReplicationError
from repro.gcs.client import GcsClient
from repro.gcs.messages import GroupView, MemberId
from repro.cluster.messages import MapCommit, MigrationStart, MigrationState
from repro.cluster.partition import PartitionMap
from repro.cluster.router import control_group
from repro.sim.actor import Actor


@dataclass(frozen=True)
class _PlannedMigration:
    """One queued map change, waiting for its turn on the wire."""

    migration_id: str
    src: str
    dst: str
    keys: Tuple[str, ...]
    new_map: PartitionMap
    state_lost: bool = False


class ClusterCoordinator(Actor):
    """Serializes partition-map changes onto the control group."""

    def __init__(self, gcs: GcsClient, cluster: str, pmap: PartitionMap,
                 keys: Sequence[str]):
        super().__init__(gcs.process, name=f"coord:{gcs.process.name}")
        self.gcs = gcs
        self.cluster = cluster
        self.map = pmap
        #: The key universe — needed to enumerate a dead shard's keys.
        self.keys: Tuple[str, ...] = tuple(keys)
        self._queue: List[_PlannedMigration] = []
        self._inflight: Optional[_PlannedMigration] = None
        self._mid_seq = 0
        self._shard_peak: Dict[str, int] = {}
        self._dead_shards: Set[str] = set()
        self.migrations_committed = 0
        gcs.join(control_group(cluster), self._on_control)
        for shard in pmap.shards:
            gcs.watch(shard, self._on_shard_view)

    # ------------------------------------------------------------------
    # Operator API
    # ------------------------------------------------------------------
    def rebalance(self, key: str, dst: str) -> Optional[str]:
        """Pin ``key`` to shard ``dst``, migrating its state.  Returns
        the migration id, or None when ``dst`` already owns the key."""
        if dst not in self.map.shards:
            raise ReplicationError(f"unknown shard {dst!r}")
        src = self.map.owner_of(key)
        if src == dst:
            return None
        # Build on the newest map we know *plus* queued changes, so
        # back-to-back rebalances compose instead of clobbering.
        base = self._queue[-1].new_map if self._queue else (
            self._inflight.new_map if self._inflight else self.map)
        planned = _PlannedMigration(
            migration_id=self._next_mid(src, dst), src=src, dst=dst,
            keys=(key,), new_map=base.reassign(key, dst))
        self._queue.append(planned)
        self._maybe_start()
        return planned.migration_id

    def _next_mid(self, src: str, dst: str) -> str:
        self._mid_seq += 1
        return f"{self.cluster}:m{self._mid_seq}:{src}->{dst}"

    # ------------------------------------------------------------------
    # Dead-shard handling
    # ------------------------------------------------------------------
    def _on_shard_view(self, view: GroupView, joined: List[MemberId],
                       left: List[MemberId], crashed: bool) -> None:
        shard = view.group
        if view.members:
            self._shard_peak[shard] = max(
                self._shard_peak.get(shard, 0), len(view.members))
            return
        if not crashed or self._shard_peak.get(shard, 0) == 0:
            return  # never populated, or a voluntary wind-down
        if shard in self._dead_shards or shard not in self.map.shards:
            return
        self._dead_shards.add(shard)
        lost = tuple(key for key in self.keys
                     if self.map.owner_of(key) == shard)
        self._journal("shard.lost", shard=shard, keys=len(lost))
        planned = _PlannedMigration(
            migration_id=self._next_mid(shard, "*"), src=shard, dst="*",
            keys=lost, new_map=self.map.without_shard(shard, self.keys),
            state_lost=True)
        self._queue.append(planned)
        self._maybe_start()

    # ------------------------------------------------------------------
    # Migration state machine
    # ------------------------------------------------------------------
    def _maybe_start(self) -> None:
        if self._inflight is not None or not self._queue \
                or not self.alive:
            return
        planned = self._queue.pop(0)
        self._inflight = planned
        start = MigrationStart(
            migration_id=planned.migration_id,
            new_map=planned.new_map.to_dict(), src=planned.src,
            dst=planned.dst, keys=planned.keys,
            state_lost=planned.state_lost)
        self.gcs.multicast(control_group(self.cluster), start,
                           start.wire_bytes)
        self._journal("migrate.start", shard=planned.src,
                      migration_id=planned.migration_id,
                      src=planned.src, dst=planned.dst,
                      keys=len(planned.keys),
                      state_lost=planned.state_lost)

    def _on_control(self, group: str, sender: MemberId, payload: Any,
                    nbytes: int) -> None:
        inflight = self._inflight
        if isinstance(payload, MigrationStart):
            # A lost-state migration has no capture phase: commit as
            # soon as our own Start is delivered (by then, every
            # survivor has adopted its share of the keys).
            if inflight is not None and payload.state_lost \
                    and payload.migration_id == inflight.migration_id:
                self._commit(inflight)
        elif isinstance(payload, MigrationState):
            if inflight is not None \
                    and payload.migration_id == inflight.migration_id:
                self._commit(inflight)
        elif isinstance(payload, MapCommit):
            new_map = PartitionMap.from_dict(payload.new_map)
            if new_map.epoch > self.map.epoch:
                self.map = new_map
            if inflight is not None \
                    and payload.migration_id == inflight.migration_id:
                self._inflight = None
                self.migrations_committed += 1
                self._maybe_start()

    def _commit(self, planned: _PlannedMigration) -> None:
        commit = MapCommit(migration_id=planned.migration_id,
                           new_map=planned.new_map.to_dict(),
                           map_digest=planned.new_map.digest())
        self.gcs.multicast(control_group(self.cluster), commit,
                           commit.wire_bytes)
        self._journal("map", shard=planned.src,
                      migration_id=planned.migration_id,
                      epoch=planned.new_map.epoch,
                      digest=planned.new_map.digest())

    # ------------------------------------------------------------------
    # Introspection / journal
    # ------------------------------------------------------------------
    @property
    def idle(self) -> bool:
        """True when no migration is in flight or queued."""
        return self._inflight is None and not self._queue

    def _journal(self, kind: str, shard: Optional[str] = None,
                 **attrs) -> None:
        """Record a cluster event (no-op when the journal is off)."""
        journal = self.sim.journal
        if journal.enabled:
            journal.record(self.sim.now, self.process.host.name,
                           "cluster", f"coord.{kind}", shard=shard,
                           process=self.process.name, **attrs)
