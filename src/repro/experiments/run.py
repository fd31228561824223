"""The staged scenario runner: build -> warm -> drive -> collect.

Every scenario function (in :mod:`repro.experiments.scenarios`,
:mod:`repro.experiments.trial`, :mod:`repro.check.scenario` and
:mod:`repro.cluster.scenario`) keeps the *description* of its run —
what is deployed, which faults and mid-window actions, which workload,
which result record — and goes through one :class:`ScenarioRun` for
the mechanics.  The run is also the object a fault load receives: the
campaign dictionary and every ``inject`` hook read ``testbed``,
``replicas``, ``stacks``, ``injector``, ``config``, ``duration_us``,
``t0`` and ``respawn_replica()`` off it.  Every engine returns the
one :class:`RunRecord` that :meth:`ScenarioRun.record` builds.

Observer, checker and digest imports stay inside the methods that need
them: a run with everything off must not pay for loading them (a
module-level ``import hashlib`` alone costs ~3.5 MiB of peak RSS).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
from repro.workload import latency_stats

#: Simulated warm-up (µs) before the load window opens: long enough
#: for the groups to form, elect their primaries and settle.
WARMUP_US = 150_000.0

#: Fault kinds that take the service (or part of it) down; the gap
#: until the next completed request counts as downtime.
OUTAGE_KINDS = ("process_crash", "host_crash", "crash_restart")


@dataclass
class RunRecord:
    """What one run measured: the result every scenario engine returns.

    The fields up to ``journal`` are common: :meth:`ScenarioRun.record`
    derives them from the run, ``duration_us`` being the window the
    scenario defines.  The rest are scenario-specific and stay None
    unless the engine sets them (``docs/api.md`` lists which)."""

    duration_us: float
    #: The instant the load window opened.
    t0: float
    sent: int
    completed: int
    latency_mean_us: float
    jitter_us: float
    wire_bytes: float
    #: ``wire_bytes`` per microsecond of the closed window.
    bandwidth_mbps: float
    #: Completions per second of ``duration_us``.
    throughput_per_s: float
    events_dispatched: int
    #: The span/metrics recorder, or None when telemetry was off.
    telemetry: Optional[Any]
    #: The dependability journal, or None when journaling was off.
    journal: Optional[Any]
    # Fault trials: outcome and faults; ``check`` / ``slo`` verdicts
    # when the trial ran with them (a rebalance check sets ``check``).
    failed: Optional[int] = None
    late: Optional[int] = None
    availability: Optional[float] = None
    mean_recovery_us: Optional[float] = None
    injected: Optional[List[Any]] = None
    check: Optional[Dict[str, Any]] = None
    slo: Optional[Dict[str, Any]] = None
    # Sharded runs: per-shard style and rollups (summed over each
    # shard's replicas), one map digest per router, map state.
    per_shard: Optional[Dict[str, Dict[str, Any]]] = None
    map_digests: Optional[List[str]] = None
    map_epoch: Optional[int] = None
    rerouted: Optional[int] = None
    migrations_committed: Optional[int] = None
    # Adaptive runs: the series Fig. 6 plots.
    rate_series: Optional[List[Tuple[float, float]]] = None
    style_series: Optional[List[Tuple[float, str]]] = None
    switch_events: Optional[List[Any]] = None
    max_latency_us: Optional[float] = None
    # Checked runs: surviving replica state and the outcome digest.
    giveups: Optional[int] = None
    survivor_values: Optional[Dict[str, List[int]]] = None
    digest: Optional[str] = None

    @property
    def routers_agree(self) -> bool:
        """Did every router end the run on the same committed map?"""
        return len(set(self.map_digests or ())) <= 1

    def metrics(self) -> Dict[str, object]:
        """The JSON view (a campaign trial's record payload): the load
        figures, a trial's outcome and faults, and the telemetry and
        journal summaries, built from the recorders on each call."""
        out: Dict[str, object] = {
            "sent": self.sent,
            "completed": self.completed,
            "latency_mean_us": self.latency_mean_us,
            "jitter_us": self.jitter_us,
            "bandwidth_mbps": self.bandwidth_mbps,
            "wire_bytes": self.wire_bytes,
            "duration_us": self.duration_us,
        }
        if self.injected is not None:
            out.update(
                failed=self.failed, late=self.late,
                failed_fraction=(self.failed / self.sent
                                 if self.sent else 0.0),
                late_fraction=(self.late / self.completed
                               if self.completed else 0.0),
                availability=self.availability,
                mean_recovery_us=self.mean_recovery_us,
                faults=[{"kind": f.kind, "target": f.target,
                         "at_us": f.at_us, "until_us": f.until_us}
                        for f in self.injected])
        if self.telemetry is not None:
            from repro.telemetry.analysis import telemetry_summary
            out["telemetry"] = telemetry_summary(self.telemetry)
        if self.journal is not None:
            from repro.journal.io import journal_digest
            out["journal"] = journal_digest(
                self.journal, window_start_us=self.t0,
                window_end_us=self.t0 + self.duration_us)
        if self.check is not None:
            out["check"] = self.check
        if self.slo is not None:
            out["slo"] = self.slo
        return out


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

    def record(self, duration_us: float, **scenario: Any) -> RunRecord:
        """The run's :class:`RunRecord`: the common fields from the
        closed books, throughput over ``duration_us``, plus the
        engine's ``scenario``-specific fields."""
        completed = self.completed
        mean, jitter = latency_stats(self.latencies)
        return RunRecord(
            duration_us=duration_us, t0=self.t0, sent=self.sent,
            completed=completed, latency_mean_us=mean, jitter_us=jitter,
            wire_bytes=self.wire_bytes,
            bandwidth_mbps=self.wire_bytes / self.elapsed_us,
            throughput_per_s=completed / duration_us * 1e6,
            events_dispatched=self.testbed.sim.events_dispatched,
            telemetry=self.telemetry, journal=self.journal, **scenario)

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
