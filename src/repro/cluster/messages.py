"""Cluster control-plane messages, carried on the ``<cluster>.ctl``
group.

Every message is multicast AGREED, so all control-group members —
the coordinator, each shard admin and each router — deliver the same
sequence at the same points of the cluster-wide total order.  The
commit protocol leans on that order twice: ``MigrationState`` always
precedes its ``MapCommit``, so destination replicas install the moved
state before any router can flip the map and re-route traffic; and
two concurrent rebalances serialize, because whichever ``MapCommit``
is sequenced first bumps the epoch the second must build on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Tuple

from repro.gcs.messages import MemberId
from repro.replication.session import replies_held

#: Fixed cluster-layer header added to every message's wire size.
CLUSTER_HEADER_BYTES = 48


@dataclass(frozen=True)
class MigrationStart:
    """Phase 1: announce a migration and its target map.

    Source-shard replicas fence and quiesce on delivery; routers keep
    routing by the *old* map until the commit (requests caught behind
    the fence are recalled and re-routed then).
    """

    migration_id: str
    new_map: Dict[str, Any]
    src: str
    dst: str
    keys: Tuple[str, ...]
    #: True when the source group is gone (dead-shard reassignment):
    #: no state capture is possible, destinations adopt fresh state.
    state_lost: bool = False

    @property
    def wire_bytes(self) -> int:
        return CLUSTER_HEADER_BYTES + 32 * len(self.keys) + 128


@dataclass(frozen=True)
class MigrationState:
    """Phase 2: the captured state of the moving keys.

    Published by the source primary's admin after the fence drained;
    carries the servant snapshots plus the source's session table, so a
    retry of a request the source already ran does not run again at the
    destination, and is answered from the replies the table keeps.
    Each kept reply is charged 24 bytes.
    """

    migration_id: str
    state: Dict[str, Any]
    state_bytes: int
    sessions: Mapping[str, Any]
    source: MemberId

    @property
    def wire_bytes(self) -> int:
        return (CLUSTER_HEADER_BYTES + self.state_bytes
                + 24 * replies_held(self.sessions))


@dataclass(frozen=True)
class MapCommit:
    """Phase 3: atomically flip the partition map.

    On delivery routers adopt the new map and re-route any in-flight
    requests for moved keys; source replicas drop the moved servants
    and resume; destination replicas (which installed the state at the
    preceding ``MigrationState``) start serving the keys.
    """

    migration_id: str
    new_map: Dict[str, Any]
    map_digest: str

    @property
    def wire_bytes(self) -> int:
        return CLUSTER_HEADER_BYTES + 256
