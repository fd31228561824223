"""One fault-injection trial: the unit of work of a campaign.

A *trial* drives an open-loop workload against a replicated service
for a fixed window while a fault load plays out, then reduces the run
to the dependability metrics of the paper's trade-off space:
availability, failed/late request fractions, recovery time, latency
and bandwidth.  The campaign engine (:mod:`repro.campaign`) sweeps
this scenario over knob configurations x fault loads x seeds; it is
equally usable stand-alone (see ``examples/fault_campaign.py``).

The open loop matters: a closed-loop client stops offering load the
moment a reply goes missing, which would hide exactly the outages a
dependability benchmark must expose.  Rate-driven arrivals keep
offering requests through the outage, so unanswered requests surface
as *failed* and slow ones as *late*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.experiments.scenarios import (
    DEFAULT_PROCESSING_US,
    DEFAULT_REPLY_BYTES,
    DEFAULT_REQUEST_BYTES,
    DEFAULT_STATE_BYTES,
    _servant_factory,
)
from repro.experiments.testbed import (
    ClientStack,
    Replica,
    Testbed,
    deploy_client,
    deploy_replica,
    deploy_replica_group,
)
from repro.faults import FaultInjector, InjectedFault
from repro.replication import (
    ClientReplicationConfig,
    ReplicationConfig,
    ReplicationStyle,
)
from repro.sim import PAPER_LATENCY_LIMIT_US, SubstrateCalibration
from repro.workload import ConstantRate, OpenLoopClient

#: Fault kinds that take the service (or part of it) down; the gap
#: until the next completed request counts as downtime.
OUTAGE_KINDS = ("process_crash", "host_crash", "crash_restart")

#: Post-window settle time: long enough for heartbeat failure
#: detection plus flush, so in-flight requests resolve to completed
#: or given-up before the books close.
DEFAULT_SETTLE_US = 1_500_000.0
DEFAULT_WARMUP_US = 150_000.0


@dataclass
class TrialContext:
    """Everything a fault load needs to schedule itself.

    Handed to the ``inject`` hook after deployment and warm-up, just
    before the workload starts.  ``t0`` is the start of the load
    window; fault times are usually expressed relative to it.
    """

    testbed: Testbed
    replicas: List[Replica]
    stacks: List[ClientStack]
    injector: FaultInjector
    config: ReplicationConfig
    duration_us: float
    t0: float
    _servants: Dict[str, Callable] = field(default_factory=dict)
    _sync_checkpoints: bool = True

    def respawn_replica(self, index: int) -> Replica:
        """Redeploy the replica at ``index`` on its original host (the
        recovery half of a crash-and-restart fault)."""
        old = self.replicas[index]
        replica = deploy_replica(
            self.testbed, old.process.host.name, self.config,
            self._servants, process_name=f"{old.process.name}+",
            sync_checkpoints=self._sync_checkpoints)
        self.replicas[index] = replica
        return replica


@dataclass
class FaultTrialResult:
    """Dependability metrics of one trial."""

    style: ReplicationStyle
    n_replicas: int
    n_clients: int
    duration_us: float
    sent: int
    completed: int
    failed: int
    late: int
    availability: float
    mean_recovery_us: float
    recovery_times_us: List[float]
    latency_mean_us: float
    jitter_us: float
    bandwidth_mbps: float
    wire_bytes: float
    injected: List[InjectedFault]
    #: Span-recorder summary (``telemetry_summary``) when the trial ran
    #: with telemetry on; None otherwise, keeping default records (and
    #: campaign JSONL) byte-identical to pre-telemetry runs.
    telemetry: Optional[Dict[str, object]] = None
    #: Journal digest (``journal_digest``) when the trial ran with the
    #: journal on; None otherwise — same byte-identical guarantee.
    journal: Optional[Dict[str, object]] = None
    #: The raw journal events of the run (for per-trial JSONL capture
    #: and the operator observatory); never serialized into metrics.
    journal_events: Optional[List[object]] = None
    #: Consistency-verification verdict (``repro.check``) when the
    #: trial ran with ``check=True``; None otherwise — same
    #: byte-identical guarantee as telemetry/journal.
    check: Optional[Dict[str, object]] = None
    #: SLO evaluation (``repro.slo``) when the trial ran with
    #: ``slo=True``: per-shard budget verdict + ledger; None otherwise
    #: — same byte-identical guarantee as telemetry/journal/check.
    slo: Optional[Dict[str, object]] = None

    @property
    def failed_fraction(self) -> float:
        return self.failed / self.sent if self.sent else 0.0

    @property
    def late_fraction(self) -> float:
        return self.late / self.completed if self.completed else 0.0

    def metrics(self) -> Dict[str, object]:
        """JSON-ready metric dict (the campaign record payload)."""
        return {
            "sent": self.sent,
            "completed": self.completed,
            "failed": self.failed,
            "late": self.late,
            "failed_fraction": self.failed_fraction,
            "late_fraction": self.late_fraction,
            "availability": self.availability,
            "mean_recovery_us": self.mean_recovery_us,
            "latency_mean_us": self.latency_mean_us,
            "jitter_us": self.jitter_us,
            "bandwidth_mbps": self.bandwidth_mbps,
            "wire_bytes": self.wire_bytes,
            "duration_us": self.duration_us,
            "faults": [
                {"kind": f.kind, "target": f.target, "at_us": f.at_us,
                 "until_us": f.until_us}
                for f in self.injected],
            **({"telemetry": self.telemetry}
               if self.telemetry is not None else {}),
            **({"journal": self.journal}
               if self.journal is not None else {}),
            **({"check": self.check}
               if self.check is not None else {}),
            **({"slo": self.slo}
               if self.slo is not None else {}),
        }


def run_fault_trial(style: ReplicationStyle, n_replicas: int,
                    n_clients: int, duration_us: float,
                    rate_per_s: float, seed: int = 0,
                    checkpoint_interval: int = 1,
                    deadline_us: float = PAPER_LATENCY_LIMIT_US,
                    inject: Optional[Callable[[TrialContext], None]] = None,
                    warmup_us: float = DEFAULT_WARMUP_US,
                    settle_us: float = DEFAULT_SETTLE_US,
                    request_bytes: int = DEFAULT_REQUEST_BYTES,
                    reply_bytes: int = DEFAULT_REPLY_BYTES,
                    state_bytes: int = DEFAULT_STATE_BYTES,
                    processing_us: float = DEFAULT_PROCESSING_US,
                    calibration: Optional[SubstrateCalibration] = None,
                    telemetry: bool = False,
                    journal: bool = False,
                    check: bool = False,
                    slo: bool = False) -> FaultTrialResult:
    """Run one open-loop load window with an optional fault load.

    ``inject`` receives a :class:`TrialContext` after warm-up and may
    schedule any mix of faults against it.  Requests answered after
    ``deadline_us`` count as *late*; requests never answered (lost,
    given up, or still outstanding after the settle window) count as
    *failed*.  Availability is time-based: for every outage-kind fault
    the gap until the next completed request (capped at the window
    end) is downtime.

    ``check=True`` records the client-observed operation history and
    runs the :mod:`repro.check` verifiers over it and the journal
    (which it forces on), attaching the verdict to the result.

    ``slo=True`` evaluates the default SLO set (:mod:`repro.slo`)
    against the journal (also forced on) and attaches the error-budget
    ledger, alerts and fault/alert cross-check to the result.
    """
    if n_replicas < 1:
        raise ConfigurationError("trial needs at least one replica")
    if n_clients < 1:
        raise ConfigurationError("trial needs at least one client")
    if duration_us <= 0:
        raise ConfigurationError("trial duration must be positive")
    if rate_per_s <= 0:
        raise ConfigurationError("trial request rate must be positive")
    if deadline_us <= 0:
        raise ConfigurationError("deadline must be positive")

    if check or slo:
        journal = True  # both verdicts are computed from journal events
    if telemetry or journal:
        from dataclasses import replace
        from repro.sim import default_calibration
        calibration = calibration or default_calibration()
        if telemetry:
            calibration = replace(
                calibration,
                telemetry=replace(calibration.telemetry, enabled=True))
        if journal:
            calibration = replace(
                calibration,
                journal=replace(calibration.journal, enabled=True))
    testbed = Testbed.paper_testbed(n_replicas, max(n_clients, 1),
                                    seed=seed, calibration=calibration)
    history = None
    if check:
        from repro.check import HistoryRecorder
        history = HistoryRecorder()
        testbed.sim.history = history
    config = ReplicationConfig(
        style=style, group="svc",
        checkpoint_interval_requests=checkpoint_interval)
    servants = {"bench": _servant_factory(processing_us, reply_bytes,
                                          state_bytes)}
    replicas = deploy_replica_group(
        testbed, [f"s{i:02d}" for i in range(1, n_replicas + 1)],
        config, servants)
    stacks = [deploy_client(testbed, f"w{i:02d}", ClientReplicationConfig(
        group="svc", expected_style=style))
        for i in range(1, n_clients + 1)]
    testbed.run(warmup_us)

    injector = FaultInjector(testbed.sim, testbed.network)
    context = TrialContext(
        testbed=testbed, replicas=replicas, stacks=stacks,
        injector=injector, config=config, duration_us=duration_us,
        t0=testbed.now, _servants=servants)
    if inject is not None:
        inject(context)

    loaders = [OpenLoopClient(stack, ConstantRate(rate_per_s),
                              duration_us, object_key="bench",
                              payload_bytes=request_bytes)
               for stack in stacks]
    start = testbed.now
    start_bytes = testbed.network.stats.total_bytes
    for loader in loaders:
        loader.start()
    testbed.run(duration_us + settle_us)
    window_end = start + duration_us
    wire_bytes = float(testbed.network.stats.total_bytes - start_bytes)
    elapsed = testbed.now - start

    sent = sum(l.stats.sent for l in loaders)
    completed = sum(l.stats.completed for l in loaders)
    latencies = [v for l in loaders for v in l.stats.latencies_us]
    completions = sorted(t for l in loaders
                         for t in l.stats.completion_times)
    mean = sum(latencies) / len(latencies) if latencies else 0.0
    jitter = 0.0
    if len(latencies) > 1:
        jitter = (sum((v - mean) ** 2 for v in latencies)
                  / len(latencies)) ** 0.5

    recoveries: List[float] = []
    downtime = 0.0
    for fault in injector.injected:
        if fault.kind not in OUTAGE_KINDS or fault.at_us >= window_end:
            continue
        after = [t for t in completions if t > fault.at_us]
        if after:
            recoveries.append(after[0] - fault.at_us)
        else:
            recoveries.append(elapsed - (fault.at_us - start))
        downtime += min(recoveries[-1], window_end - fault.at_us)
    availability = max(0.0, 1.0 - downtime / duration_us)
    mean_recovery = (sum(recoveries) / len(recoveries)
                     if recoveries else 0.0)

    telemetry_digest = None
    if testbed.sim.telemetry.enabled:
        from repro.telemetry.analysis import telemetry_summary
        telemetry_digest = telemetry_summary(testbed.sim.telemetry)

    journal_events = None
    journal_summary = None
    if testbed.sim.journal.enabled:
        from repro.journal.io import journal_digest
        journal_events = list(testbed.sim.journal.events)
        journal_summary = journal_digest(testbed.sim.journal,
                                         window_start_us=start,
                                         window_end_us=window_end)

    check_digest = None
    if check:
        assert history is not None and journal_events is not None
        from repro.check import (
            IncrementSpec,
            check_invariants,
            check_linearizability,
        )
        bench_ops = tuple(op for op in history.operations
                          if op.object_key == "bench")
        violations = list(check_invariants(journal_events))
        lin = check_linearizability(bench_ops, IncrementSpec())
        check_digest = {
            "ok": bool(lin.ok and not violations),
            "operations": len(bench_ops),
            "violations": [v.to_dict() for v in violations],
            "linearizable": lin.ok,
            "linearizability_skipped": lin.skipped,
            "truncated_rings": dict(
                testbed.sim.journal.truncated_rings()),
        }

    slo_digest = None
    if slo:
        assert journal_events is not None
        slo_digest = slo_trial_digest(
            journal_events, window_start_us=start,
            window_end_us=window_end,
            registry=getattr(testbed.sim.telemetry, "metrics", None))

    return FaultTrialResult(
        style=style, n_replicas=n_replicas, n_clients=n_clients,
        duration_us=duration_us, sent=sent, completed=completed,
        failed=max(sent - completed, 0),
        late=sum(1 for v in latencies if v > deadline_us),
        availability=availability, mean_recovery_us=mean_recovery,
        recovery_times_us=recoveries, latency_mean_us=mean,
        jitter_us=jitter,
        bandwidth_mbps=wire_bytes / elapsed if elapsed > 0 else 0.0,
        wire_bytes=wire_bytes, injected=list(injector.injected),
        telemetry=telemetry_digest, journal=journal_summary,
        journal_events=journal_events, check=check_digest,
        slo=slo_digest)


def slo_trial_digest(journal_events, window_start_us: float,
                     window_end_us: float,
                     registry=None) -> Dict[str, object]:
    """Evaluate the default SLO set over one trial's journal.

    The JSON-ready digest a ``--slo`` campaign attaches to each trial
    record: verdict counters, the full per-shard budget ledger, every
    burn-rate alert, and the fault/alert consistency cross-check —
    deterministic, so serial and parallel campaign runs serialize it
    byte-identically.
    """
    from repro.slo import evaluate_slos, match_fault_alerts
    outcome = evaluate_slos(journal_events,
                            window_start_us=window_start_us,
                            window_end_us=window_end_us,
                            registry=registry)
    matches = match_fault_alerts(journal_events, outcome)
    return {
        **outcome.verdict(),
        "budgets": [b.to_dict() for b in outcome.budgets],
        "alert_log": [a.to_dict() for a in outcome.alerts],
        "cross_check": {
            "faults": len(matches),
            "consistent": sum(1 for m in matches if m.ok),
            "ok": all(m.ok for m in matches),
        },
    }
