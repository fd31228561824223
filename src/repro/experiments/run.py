"""The staged scenario runner: build -> warm -> drive -> collect.

Every scenario function (in :mod:`repro.experiments.scenarios`,
:mod:`repro.experiments.trial`, :mod:`repro.check.scenario` and
:mod:`repro.cluster.scenario`) keeps the *description* of its run —
what is deployed, which faults and mid-window actions, which workload,
which result record — and goes through one :class:`ScenarioRun` for
the mechanics.  The run is also the object a fault load receives: the
campaign dictionary and every ``inject`` hook read ``testbed``,
``replicas``, ``stacks``, ``injector``, ``config``, ``duration_us``,
``t0`` and ``respawn_replica()`` off it.

Observer, checker and digest imports stay inside the methods that need
them: a run with everything off must not pay for loading them (a
module-level ``import hashlib`` alone costs ~3.5 MiB of peak RSS).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.adaptation import AdaptationManager
from repro.core.policies import ThresholdSwitchPolicy
from repro.experiments.testbed import (
    Replica,
    Testbed,
    deploy_client,
    deploy_replica,
    deploy_replica_group,
)
from repro.faults import FaultInjector
from repro.orb import Servant
from repro.replication import ClientReplicationConfig, ReplicationConfig
from repro.sim import SubstrateCalibration, default_calibration

#: Simulated warm-up (µs) before the load window opens: long enough
#: for the groups to form, elect their primaries and settle.
WARMUP_US = 150_000.0

#: Fault kinds that take the service (or part of it) down; the gap
#: until the next completed request counts as downtime.
OUTAGE_KINDS = ("process_crash", "host_crash", "crash_restart")


class ScenarioRun:
    """One simulated run, from testbed assembly to the closed books."""

    def __init__(self, n_server_hosts: int, n_client_hosts: int,
                 seed: int = 0,
                 calibration: Optional[SubstrateCalibration] = None,
                 telemetry: bool = False, journal: bool = False,
                 history: bool = False, primary_partition: bool = False,
                 scheduler_policy: Optional[object] = None,
                 duration_us: Optional[float] = None):
        """``telemetry`` / ``journal`` switch the observers on over
        ``calibration``; ``history`` attaches the client-observed
        operation recorder the checkers read; ``duration_us`` is the
        planned open-loop window fault loads scale themselves by."""
        calibration = calibration or default_calibration()
        if telemetry:
            calibration = replace(calibration, telemetry=replace(
                calibration.telemetry, enabled=True))
        if journal:
            calibration = replace(calibration, journal=replace(
                calibration.journal, enabled=True))
        if primary_partition:
            calibration = replace(calibration, gcs=replace(
                calibration.gcs, primary_partition=True))
        self.testbed = Testbed.paper_testbed(
            n_server_hosts, n_client_hosts, seed=seed,
            calibration=calibration, scheduler_policy=scheduler_policy)
        self.history: Optional[Any] = None
        if history:
            from repro.check.history import HistoryRecorder
            self.history = HistoryRecorder()
            self.testbed.sim.history = self.history
        self.injector = FaultInjector(self.testbed.sim,
                                      self.testbed.network)
        self.duration_us = duration_us
        self.config: Optional[ReplicationConfig] = None
        self._servants: Dict[str, Callable[[], Servant]] = {}
        self.replicas: List[Replica] = []
        self.managers: List[AdaptationManager] = []
        self.stacks: List[Any] = []
        self.loaders: List[Any] = []
        self.t0 = 0.0
        self._start_bytes = 0
        #: Set when the window closes: its length and the bytes it put
        #: on the wire (later settle periods do not count).
        self.elapsed_us = 0.0
        self.wire_bytes = 0.0

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def deploy_group(self, config: ReplicationConfig,
                     servants: Dict[str, Callable[[], Servant]],
                     n_replicas: int, n_clients: int,
                     policy: Optional[ThresholdSwitchPolicy] = None,
                     **client_knobs: Any) -> None:
        """The paper's layout: one replica group on ``s01..`` (with an
        adaptation manager beside each replica when ``policy`` is set)
        and one client per ``w01..``."""
        self.config = config
        self._servants = servants
        self.replicas = deploy_replica_group(
            self.testbed, [f"s{i:02d}" for i in range(1, n_replicas + 1)],
            config, servants)
        if policy is not None:
            self.managers = [AdaptationManager(r.replicator, policy)
                             for r in self.replicas]
        self.stacks = [
            deploy_client(self.testbed, f"w{i:02d}", ClientReplicationConfig(
                group=config.group, expected_style=config.style,
                **client_knobs))
            for i in range(1, n_clients + 1)]

    def respawn_replica(self, index: int) -> Replica:
        """Redeploy the replica at ``index`` on its original host (the
        recovery half of a crash-and-restart fault)."""
        old = self.replicas[index]
        replica = deploy_replica(
            self.testbed, old.process.host.name, self.config,
            self._servants, process_name=f"{old.process.name}+")
        self.replicas[index] = replica
        return replica

    # ------------------------------------------------------------------
    # Warm
    # ------------------------------------------------------------------
    def warm(self) -> float:
        """Let the deployment settle; returns ``t0``, the instant the
        load window opens (fault times are offsets from it)."""
        self.testbed.run(WARMUP_US)
        self.t0 = self.testbed.now
        return self.t0

    # ------------------------------------------------------------------
    # Drive
    # ------------------------------------------------------------------
    def start(self, loaders: Sequence[Any]) -> None:
        """Open the load window: start every workload driver."""
        self.loaders = list(loaders)
        self._start_bytes = self.testbed.network.stats.total_bytes
        for loader in self.loaders:
            loader.start()

    def drain(self, max_rounds: int = 200_000) -> None:
        """Run closed-loop drivers until every cycle is done, polling
        in 50 ms rounds (``max_rounds`` is the safety valve: 1e10 µs
        by default); the window closes at the last completion, not at
        the polling granularity."""
        rounds = 0
        while rounds < max_rounds \
                and not all(loader.done for loader in self.loaders):
            self.testbed.run(50_000)
            rounds += 1
        last_completion = max((loader.stats.completion_times[-1]
                               for loader in self.loaders
                               if loader.stats.completion_times),
                              default=self.testbed.now)
        self._close(max(last_completion - self.t0, 1.0))

    def offer(self, settle_us: float) -> None:
        """Run the ``duration_us`` open-loop window plus ``settle_us``
        for in-flight requests to resolve, then close the books."""
        self.testbed.run(self.duration_us + settle_us)
        self._close(self.testbed.now - self.t0)

    def _close(self, elapsed_us: float) -> None:
        self.elapsed_us = elapsed_us
        self.wire_bytes = float(self.testbed.network.stats.total_bytes
                                - self._start_bytes)

    # ------------------------------------------------------------------
    # Collect
    # ------------------------------------------------------------------
    @property
    def sent(self) -> int:
        return sum(loader.stats.sent for loader in self.loaders)

    @property
    def completed(self) -> int:
        return sum(loader.stats.completed for loader in self.loaders)

    @property
    def latencies(self) -> List[float]:
        return [v for loader in self.loaders
                for v in loader.stats.latencies_us]

    @property
    def telemetry(self) -> Optional[Any]:
        """The span/metrics recorder, or None when telemetry is off."""
        telemetry = self.testbed.sim.telemetry
        return telemetry if telemetry.enabled else None

    @property
    def journal(self) -> Optional[Any]:
        """The dependability journal, or None when journaling is off."""
        journal = self.testbed.sim.journal
        return journal if journal.enabled else None

    def outages(self, elapsed_us: float, duration_us: float
                ) -> Tuple[float, List[float]]:
        """Time-based availability over a ``duration_us`` window and
        the recovery time of every outage-kind fault injected in it:
        the gap until the next completed request (``elapsed_us`` less
        the fault's offset when none follows) is that fault's recovery
        time, and its downtime up to the window end."""
        window_end = self.t0 + duration_us
        completions = sorted(t for loader in self.loaders
                             for t in loader.stats.completion_times)
        recoveries: List[float] = []
        downtime = 0.0
        for fault in self.injector.injected:
            if fault.kind not in OUTAGE_KINDS or fault.at_us >= window_end:
                continue
            after = [t for t in completions if t > fault.at_us]
            if after:
                recoveries.append(after[0] - fault.at_us)
            else:
                recoveries.append(elapsed_us - (fault.at_us - self.t0))
            downtime += min(recoveries[-1], window_end - fault.at_us)
        return max(0.0, 1.0 - downtime / duration_us), recoveries

    def outcome_digest(self, survivors: Any) -> str:
        """sha256 over the journal, the operation history and the
        surviving replica state: equal digests mean equal outcomes."""
        import hashlib
        from repro.journal.io import events_to_jsonl
        hasher = hashlib.sha256()
        hasher.update(
            events_to_jsonl(self.testbed.sim.journal.events).encode())
        hasher.update(self.history.serialize().encode())
        hasher.update(repr(survivors).encode())
        return hasher.hexdigest()
