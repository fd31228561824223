"""Replica factory: maintains a target redundancy level.

The factory is the mechanism behind two of the paper's needs:

- **cold passive replication** — "a backup is launched only when the
  primary crashes" (Section 3.1): with a target of one replica, the
  factory respawns the service (which then restores from stable
  storage);
- the **number-of-replicas low-level knob** at runtime: raising the
  target spawns additional replicas (which state-transfer in via the
  group's sync protocol); lowering it retires the youngest replicas.

The factory watches the replica group through the GCS, so it reacts to
real membership changes (including host crashes) rather than guesses.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.errors import ReplicationError
from repro.gcs.client import GcsClient
from repro.gcs.messages import GroupView, MemberId
from repro.sim.actor import Actor
from repro.sim.config import ReplicationCalibration
from repro.sim.host import Host

#: A spawn function builds one replica process on a host and returns a
#: handle with ``replicator`` (ServerReplicator) and ``process`` attrs.
SpawnFn = Callable[[Host], object]


class ReplicaFactory(Actor):
    """Keeps ``target`` replicas of one group alive on a host pool."""

    def __init__(self, gcs: GcsClient, group: str, hosts: List[Host],
                 spawn: SpawnFn, target: int,
                 calibration: Optional[ReplicationCalibration] = None):
        super().__init__(gcs.process, name=f"factory:{group}")
        if target < 0:
            raise ReplicationError("target replica count must be >= 0")
        self.gcs = gcs
        self.group = group
        self.hosts = list(hosts)
        self.spawn = spawn
        self._target = target
        self.cal = calibration or ReplicationCalibration()
        self._members: tuple = ()
        #: Hosts with a spawn pending or a freshly launched replica
        #: that has not yet appeared in the group view.
        self._spawning_hosts: Dict[str, float] = {}
        self.spawned = 0
        self.retired = 0
        self._handles: List[object] = []
        gcs.watch(group, _FactoryWatch(self))
        # The watch only fires once the group exists; bootstrap (and
        # guard against missed views) with a periodic reconcile.
        self.set_timer("bootstrap", 1.0, self._reconcile)
        self.set_periodic_timer("reconcile", 500_000.0, self._reconcile)

    # ------------------------------------------------------------------
    # The number-of-replicas knob
    # ------------------------------------------------------------------
    @property
    def target(self) -> int:
        return self._target

    def set_target(self, target: int) -> None:
        """Adjust the redundancy level at runtime (low-level knob)."""
        if target < 0:
            raise ReplicationError("target replica count must be >= 0")
        self._target = target
        self._reconcile()

    @property
    def live_count(self) -> int:
        return len(self._members)

    # ------------------------------------------------------------------
    # Reconciliation
    # ------------------------------------------------------------------
    def _on_view(self, view: GroupView) -> None:
        self._members = view.members
        # A spawn has fully landed once its host appears in the view.
        for member in view.members:
            self._spawning_hosts.pop(member.host, None)
        self._reconcile()

    def _reconcile(self) -> None:
        if not self.alive:
            return
        self._expire_stale_spawns()
        deficit = (self._target - self.live_count
                   - len(self._spawning_hosts))
        while deficit > 0:
            host = self._free_host()
            if host is None:
                break  # no free host: retry on the next reconcile
            self._spawn_on(host)
            deficit -= 1
        surplus = self.live_count - self._target
        if surplus > 0:
            self._retire(surplus)

    def _expire_stale_spawns(self) -> None:
        """Forget spawns that never joined (e.g. the host died)."""
        deadline = 8 * self.cal.spawn_replica_us
        stale = [host for host, started in self._spawning_hosts.items()
                 if self.sim.now - started > deadline]
        for host in stale:
            del self._spawning_hosts[host]

    def _free_host(self) -> Optional[Host]:
        occupied = {m.host for m in self._members}
        occupied |= set(self._spawning_hosts)
        for host in self.hosts:
            if host.alive and host.name not in occupied:
                return host
        return None

    def _spawn_on(self, host: Host) -> None:
        self._spawning_hosts[host.name] = self.sim.now

        def launch() -> None:
            if not self.alive or not host.alive:
                self._spawning_hosts.pop(host.name, None)
                return
            handle = self.spawn(host)
            self._handles.append(handle)
            self.spawned += 1

        # Process launch + initialization cost.
        self.sim.schedule(self.cal.spawn_replica_us, launch)

    def _retire(self, count: int) -> None:
        """Retire the youngest replicas (never the primary)."""
        victims = list(self._members)[-count:] if count else []
        for member in victims:
            if member == self._members[0]:
                continue  # never retire the longest-standing member
            self._kill_member(member)

    def _kill_member(self, member: MemberId) -> None:
        for handle in self._handles:
            process = getattr(handle, "process", None)
            if process is not None and process.alive \
                    and process.pid == member.pid:
                process.kill(reason="retired by factory")
                self.retired += 1
                return
        # Replica not spawned by us: ask politely via its host.
        for host in self.hosts:
            if host.name == member.host:
                for process in list(host.processes):
                    if process.pid == member.pid:
                        process.kill(reason="retired by factory")
                        self.retired += 1
                        return


class _FactoryWatch:
    def __init__(self, factory: ReplicaFactory):
        self._factory = factory

    def on_message(self, group, sender, payload, nbytes) -> None:
        """Watchers receive no data."""

    def on_view(self, view: GroupView, joined, left, crashed) -> None:
        self._factory._on_view(view)
