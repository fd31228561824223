"""Testbed assembly: hosts, daemons, replicas and clients in one call.

This module recreates the paper's experimental setup — "a test-bed of
seven Intel x86 machines ... the Spread group communication system and
the TAO real-time ORB" — as a simulated :class:`Testbed`, and provides
the wiring helpers every example and benchmark uses.

Host naming: the GCS sequencer/coordinator is the lexicographically
first daemon, so server hosts are named ``s01, s02, ...`` and client
hosts ``w01, w02, ...`` — the sequencer colocates with the first
server replica, as in a well-configured Spread segment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.gcs import GcsClient, GcsDaemon
from repro.net import Network
from repro.orb import OrbClient, OrbServer, Servant
from repro.replication import (
    ClientReplicationConfig,
    ClientReplicator,
    ReplicationConfig,
    ServerReplicator,
    StableStore,
)
from repro.sim import (
    Host,
    Process,
    Simulator,
    SubstrateCalibration,
    default_calibration,
)


class Testbed:
    """A simulated LAN of hosts, each running a GCS daemon."""

    __test__ = False  # not a pytest test class despite the name

    def __init__(self, host_names: Sequence[str], seed: int = 0,
                 calibration: Optional[SubstrateCalibration] = None,
                 scheduler_policy: Optional[object] = None):
        if not host_names:
            raise ConfigurationError("a testbed needs at least one host")
        self.calibration = calibration or default_calibration()
        self.calibration.validate()
        self.sim = Simulator(seed=seed)
        if scheduler_policy is not None:
            # Must happen before daemons schedule their first timers:
            # the policy rewrites the kernel's tie-break sequence.
            self.sim.set_scheduler_policy(scheduler_policy)
        if self.calibration.telemetry.enabled:
            from repro.telemetry.spans import Telemetry
            self.sim.telemetry = Telemetry(
                max_spans=self.calibration.telemetry.max_spans)
        if self.calibration.journal.enabled:
            from repro.journal.events import Journal
            self.sim.journal = Journal(
                max_events=self.calibration.journal.max_events)
        self.network = Network(self.sim, self.calibration.network)
        self.hosts: Dict[str, Host] = {}
        self.daemons: Dict[str, GcsDaemon] = {}
        self.store = StableStore(self.sim)
        names = list(host_names)
        for name in names:
            self.hosts[name] = self.network.add_host(
                name, calibration=self.calibration.host)
        for name in names:
            proc = Process(self.hosts[name], f"gcsd-{name}")
            self.daemons[name] = GcsDaemon(proc, self.network, names,
                                           self.calibration.gcs)

    @staticmethod
    def paper_testbed(n_server_hosts: int = 3, n_client_hosts: int = 5,
                      seed: int = 0,
                      calibration: Optional[SubstrateCalibration] = None,
                      scheduler_policy: Optional[object] = None
                      ) -> "Testbed":
        """The paper's 7-8 machine layout: server hosts sort first so
        the sequencer daemon colocates with the first replica."""
        names = ([f"s{i:02d}" for i in range(1, n_server_hosts + 1)]
                 + [f"w{i:02d}" for i in range(1, n_client_hosts + 1)])
        return Testbed(names, seed=seed, calibration=calibration,
                       scheduler_policy=scheduler_policy)

    # ------------------------------------------------------------------
    # Processes and connections
    # ------------------------------------------------------------------
    def spawn(self, host_name: str, process_name: str) -> Process:
        """Create a process on the named host."""
        return Process(self.hosts[host_name], process_name)

    def connect(self, process: Process) -> GcsClient:
        """Connect a process to its host's GCS daemon."""
        return GcsClient(process, self.daemons[process.host.name])

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, duration_us: float) -> None:
        """Advance simulated time by ``duration_us``."""
        self.sim.run(until=self.sim.now + duration_us)

    @property
    def now(self) -> float:
        return self.sim.now


@dataclass
class Replica:
    """One deployed server replica and its full middleware stack."""

    process: Process
    gcs: GcsClient
    replicator: ServerReplicator
    orb_server: OrbServer
    servants: Dict[str, Servant] = field(default_factory=dict)

    @property
    def alive(self) -> bool:
        return self.process.alive

    def crash(self) -> None:
        """Process-level crash fault on this replica."""
        self.process.kill()


@dataclass
class ClientStack:
    """One deployed client and its middleware stack."""

    process: Process
    gcs: GcsClient
    replicator: ClientReplicator
    orb_client: OrbClient

    @property
    def alive(self) -> bool:
        return self.process.alive


def deploy_replica(testbed: Testbed, host_name: str,
                   config: ReplicationConfig,
                   servants: Dict[str, Callable[[], Servant]],
                   process_name: Optional[str] = None,
                   sync_checkpoints: bool = True) -> Replica:
    """Build one replica: process + GCS connection + replicator + ORB
    server + servants, started and joined to the group."""
    name = process_name or f"{config.group}@{host_name}"
    process = testbed.spawn(host_name, name)
    gcs = testbed.connect(process)
    replicator = ServerReplicator(
        gcs, config,
        replication_cal=testbed.calibration.replication,
        interpose_cal=testbed.calibration.interpose,
        store=testbed.store,
        sync_checkpoints=sync_checkpoints)
    orb_server = OrbServer(process, replicator,
                           calibration=testbed.calibration.orb)
    built: Dict[str, Servant] = {}
    for key, factory in servants.items():
        servant = factory()
        orb_server.register(key, servant)
        built[key] = servant
    replicator.bind_state_provider(orb_server)
    orb_server.start()
    return Replica(process=process, gcs=gcs, replicator=replicator,
                   orb_server=orb_server, servants=built)


def deploy_replica_group(testbed: Testbed, host_names: Sequence[str],
                         config: ReplicationConfig,
                         servants: Dict[str, Callable[[], Servant]],
                         sync_checkpoints: bool = True) -> List[Replica]:
    """Deploy one replica per host, in order (the first deployed ends
    up the longest-standing member, i.e. the primary)."""
    replicas = []
    for index, host_name in enumerate(host_names, start=1):
        replicas.append(deploy_replica(
            testbed, host_name, config, servants,
            process_name=f"{config.group}-r{index}",
            sync_checkpoints=sync_checkpoints))
        # Let each join (and state sync) settle before the next, so
        # join order — and thus the primary — is deterministic.
        testbed.run(30_000)
    return replicas


def deploy_client(testbed: Testbed, host_name: str,
                  config: ClientReplicationConfig,
                  process_name: Optional[str] = None) -> ClientStack:
    """Build one client: process + GCS connection + client replicator
    + ORB client."""
    name = process_name or f"client@{host_name}"
    process = testbed.spawn(host_name, name)
    gcs = testbed.connect(process)
    replicator = ClientReplicator(
        gcs, config, interpose_cal=testbed.calibration.interpose)
    orb_client = OrbClient(process, replicator,
                           calibration=testbed.calibration.orb)
    return ClientStack(process=process, gcs=gcs, replicator=replicator,
                       orb_client=orb_client)
