"""Replication layer: the paper's tunable replicator.

Public surface:

- :class:`ReplicationStyle`, :class:`ReplicationConfig`,
  :class:`ClientReplicationConfig` — the low-level knob values
- :class:`ServerReplicator` — server-side replication middleware
  (active / warm passive / cold passive, runtime switching)
- :class:`ClientReplicator` — client-side routing, retries, voting
- :class:`ReplicaFactory` — redundancy-level maintenance & cold spawn
- :class:`StableStore` — checkpoint persistence for cold passive
- :class:`SwitchRecord`, :class:`SwitchState` — Fig. 5 protocol state
- message types: :class:`RepRequest`, :class:`RepReply`,
  :class:`Checkpoint`, :class:`SwitchCommand`, :class:`SyncRequest`
"""

from repro.replication.client import ClientReplicator
from repro.replication.factory import ReplicaFactory
from repro.replication.messages import (
    Checkpoint,
    REP_HEADER_BYTES,
    RepReply,
    RepRequest,
    SwitchCommand,
    SyncRequest,
)
from repro.replication.server import ServerReplicator
from repro.replication.store import StableStore, StoredCheckpoint
from repro.replication.styles import (
    ClientReplicationConfig,
    ReplicationConfig,
    ReplicationStyle,
)
from repro.replication.switch import SwitchRecord, SwitchState

__all__ = [
    "Checkpoint",
    "ClientReplicationConfig",
    "ClientReplicator",
    "REP_HEADER_BYTES",
    "RepReply",
    "RepRequest",
    "ReplicaFactory",
    "ReplicationConfig",
    "ReplicationStyle",
    "ServerReplicator",
    "StableStore",
    "StoredCheckpoint",
    "SwitchCommand",
    "SwitchRecord",
    "SwitchState",
    "SyncRequest",
]
