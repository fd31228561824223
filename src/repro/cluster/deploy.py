"""Cluster assembly: shards, coordinator, and shard-aware clients.

Builds a sharded deployment on an existing :class:`Testbed`: one
replica group per shard (each with its own replication style,
checkpoint interval, and — optionally — its own adaptation manager),
one coordinator process owning the partition map, and clients whose
ORB sits on a :class:`ShardRouter` instead of a single-group
replicator.

Placement rotates primaries across the server hosts: shard *i*'s
first-deployed replica (its deterministic primary) lands on host
``i mod n_hosts``, so adding shards adds *parallel* primaries and the
aggregate closed-loop throughput scales with the shard count until
the hosts saturate — the scaling ``tests/cluster/test_cluster.py``
asserts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.adaptation.manager import AdaptationManager
from repro.cluster.admin import ShardAdmin
from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.partition import PartitionMap, build_map
from repro.cluster.router import ShardRouter
from repro.core.policies import ThresholdSwitchPolicy
from repro.errors import ClusterError, Rule, check_fields
from repro.experiments.testbed import Replica, Testbed
from repro.gcs.client import GcsClient
from repro.orb import OrbClient, OrbServer, Servant
from repro.replication import (
    ClientReplicationConfig,
    ReplicationConfig,
    ReplicationStyle,
    ServerReplicator,
)
from repro.sim.host import Process


@dataclass(frozen=True)
class ShardSpec:
    """Per-shard dependability knob settings.

    Each shard is an independent replica group: its style, replica
    count and checkpoint interval are its own knobs, and ``policy``
    optionally attaches per-replica adaptation managers so one shard
    can switch styles at runtime while its neighbours stay put.
    """

    name: str
    style: ReplicationStyle = ReplicationStyle.ACTIVE
    n_replicas: int = 2
    checkpoint_interval: int = 10
    broadcast_requests: bool = False
    policy: Optional[ThresholdSwitchPolicy] = None
    #: Explicit replica placement (host of rank 0, rank 1, ...); when
    #: None, replicas rotate over the cluster's server hosts.  The
    #: bench pins backups to a spill host so primaries own their CPUs.
    hosts: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        """Validate shape (frozen dataclass, so only checks here)."""
        check_fields(vars(self), (Rule(("name",), str, ge=1), Rule((
            "n_replicas", "checkpoint_interval"), int, ge=1)), ClusterError)
        if self.hosts is not None and len(self.hosts) < self.n_replicas:
            raise ClusterError("fewer placement hosts than replicas")

    def replication_config(self) -> ReplicationConfig:
        """The server-side knob bundle this spec describes."""
        return ReplicationConfig(
            style=self.style, group=self.name,
            checkpoint_interval_requests=self.checkpoint_interval,
            broadcast_requests=self.broadcast_requests)


@dataclass
class ShardDeployment:
    """One deployed shard: its replicas, admins and managers."""

    spec: ShardSpec
    replicas: List[Replica] = field(default_factory=list)
    admins: List[ShardAdmin] = field(default_factory=list)
    managers: List[AdaptationManager] = field(default_factory=list)

    def crash(self) -> None:
        """Kill every replica of this shard (dead-shard fault)."""
        for replica in self.replicas:
            if replica.alive:
                replica.crash()


@dataclass
class ClusterClientStack:
    """One deployed shard-aware client and its middleware stack."""

    process: Process
    gcs: GcsClient
    router: ShardRouter
    orb_client: OrbClient

    @property
    def alive(self) -> bool:
        return self.process.alive


@dataclass
class Cluster:
    """A fully deployed sharded service."""

    testbed: Testbed
    name: str
    map: PartitionMap
    keys: List[str]
    shards: Dict[str, ShardDeployment]
    coordinator: ClusterCoordinator
    clients: List[ClusterClientStack] = field(default_factory=list)

    def client_configs(self) -> Dict[str, ClientReplicationConfig]:
        """One client-side config per shard (expected style seeded
        from the shard's spec; replies teach the client the truth)."""
        return {name: ClientReplicationConfig(
                    group=name, expected_style=shard.spec.style)
                for name, shard in self.shards.items()}


def deploy_cluster(testbed: Testbed, specs: Sequence[ShardSpec],
                   keys: Sequence[str],
                   servant_factory: Callable[[str], Servant]) -> Cluster:
    """Deploy every shard of ``specs`` plus the coordinator on the
    testbed's server (``s..``) hosts.

    ``keys`` are pinned to shards round-robin (as map overrides), so a
    small key set still balances exactly.  Every replica registers
    only the servants its shard owns and keeps ``servant_factory`` for
    keys migrated in later.
    """
    if not specs:
        raise ClusterError("a cluster needs >= 1 shard")
    if len({spec.name for spec in specs}) != len(specs):
        raise ClusterError("duplicate shard names")
    cluster = "cluster"
    hosts = sorted(h for h in testbed.hosts if h.startswith("s"))
    if not hosts:
        raise ClusterError("no server hosts to deploy on")
    shard_names = [spec.name for spec in specs]
    overrides = {key: shard_names[i % len(shard_names)]
                 for i, key in enumerate(keys)}
    pmap = build_map(shard_names, overrides=overrides)

    # Coordinator first: its watches see every join from view one.
    coord_process = testbed.spawn(hosts[0], f"{cluster}-coord")
    coord_gcs = testbed.connect(coord_process)
    coordinator = ClusterCoordinator(coord_gcs, cluster, pmap, keys)

    shards: Dict[str, ShardDeployment] = {}
    for index, spec in enumerate(specs):
        deployment = ShardDeployment(spec=spec)
        config = spec.replication_config()
        owned = [key for key in keys if pmap.owner_of(key) == spec.name]
        for rank in range(spec.n_replicas):
            if spec.hosts is not None:
                host = spec.hosts[rank]
            else:
                host = hosts[(index + rank) % len(hosts)]
            process = testbed.spawn(host, f"{spec.name}-r{rank + 1}")
            gcs = testbed.connect(process)
            replicator = ServerReplicator(
                gcs, config,
                replication_cal=testbed.calibration.replication,
                interpose_cal=testbed.calibration.interpose,
                store=testbed.store)
            # Per-shard attribution: journal events and latency
            # histograms from this replica carry the shard name.
            replicator.shard = spec.name
            orb_server = OrbServer(process, replicator,
                                   calibration=testbed.calibration.orb)
            orb_server.servant_factory = servant_factory
            built: Dict[str, Servant] = {}
            for key in owned:
                servant = servant_factory(key)
                orb_server.register(key, servant)
                built[key] = servant
            replicator.bind_state_provider(orb_server)
            admin = ShardAdmin(replicator, orb_server, cluster, pmap)
            orb_server.start()
            if spec.policy is not None:
                deployment.managers.append(
                    AdaptationManager(replicator, spec.policy))
            deployment.replicas.append(Replica(
                process=process, gcs=gcs, replicator=replicator,
                orb_server=orb_server, servants=built))
            deployment.admins.append(admin)
            # Let each join (and state sync) settle before the next,
            # so join order — and thus the primary — is deterministic.
            testbed.run(30_000)
        shards[spec.name] = deployment
        journal = testbed.sim.journal
        if journal.enabled:
            journal.record(testbed.sim.now, hosts[index % len(hosts)],
                           "cluster", "shard", shard=spec.name,
                           style=spec.style.value,
                           replicas=spec.n_replicas,
                           checkpoint_interval=spec.checkpoint_interval)

    return Cluster(testbed=testbed, name=cluster, map=pmap,
                   keys=list(keys), shards=shards,
                   coordinator=coordinator)


def deploy_cluster_client(cluster: Cluster, host_name: str,
                          process_name: Optional[str] = None
                          ) -> ClusterClientStack:
    """Build one shard-aware client: process + GCS connection + shard
    router + ORB client, registered with the cluster."""
    testbed = cluster.testbed
    name = process_name or f"client@{host_name}"
    process = testbed.spawn(host_name, name)
    gcs = testbed.connect(process)
    router = ShardRouter(gcs, cluster.name, cluster.map,
                         cluster.client_configs(),
                         interpose_cal=testbed.calibration.interpose)
    orb_client = OrbClient(process, router,
                           calibration=testbed.calibration.orb)
    stack = ClusterClientStack(process=process, gcs=gcs, router=router,
                               orb_client=orb_client)
    cluster.clients.append(stack)
    return stack
