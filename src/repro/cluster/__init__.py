"""Sharded multi-group replication with per-shard dependability knobs.

``repro.cluster`` scales the single replica group of
:mod:`repro.replication` out to a *cluster* of them: a deterministic
partition map (consistent hashing with virtual nodes, plus explicit
per-key overrides) assigns every object key to one shard, each shard
is an independent replica group with its own replication style,
checkpoint interval and optional adaptation manager, and a
shard-aware client router demultiplexes one application connection
over all of them.

Public surface:

- :class:`PartitionMap` / :func:`build_map` — the key→shard mapping
- :class:`ShardRouter` — client-side demultiplexer over per-shard
  replicators, with in-flight re-routing on map changes
- :class:`ShardAdmin` — server-side migration participant (fence,
  state capture, adoption)
- :class:`ClusterCoordinator` — owns the map; serializes rebalances
  and dead-shard recovery over totally-ordered control multicast
- :class:`ShardSpec` / :func:`deploy_cluster` /
  :func:`deploy_cluster_client` — testbed assembly
- :func:`run_cluster_load`, :func:`run_cluster_rebalance_check`,
  :func:`run_cluster_trial` — the scenarios behind the shard-scaling
  experiment, the no-lost-acked-updates check, and sharded campaign
  trials; each returns a :class:`repro.experiments.RunRecord`
"""

from repro.cluster.admin import ShardAdmin
from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.deploy import (
    Cluster,
    ClusterClientStack,
    ShardDeployment,
    ShardSpec,
    deploy_cluster,
    deploy_cluster_client,
)
from repro.cluster.messages import (
    MapCommit,
    MigrationStart,
    MigrationState,
)
from repro.cluster.partition import PartitionMap, build_map
from repro.cluster.router import ShardRouter, control_group
from repro.cluster.scenario import (
    default_shard_styles,
    run_cluster_load,
    run_cluster_rebalance_check,
    run_cluster_trial,
)

__all__ = [
    "Cluster",
    "ClusterClientStack",
    "ClusterCoordinator",
    "MapCommit",
    "MigrationStart",
    "MigrationState",
    "PartitionMap",
    "ShardAdmin",
    "ShardDeployment",
    "ShardRouter",
    "ShardSpec",
    "build_map",
    "control_group",
    "default_shard_styles",
    "deploy_cluster",
    "deploy_cluster_client",
    "run_cluster_load",
    "run_cluster_rebalance_check",
    "run_cluster_trial",
]
