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

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.errors import ConfigurationError
from repro.experiments.run import ScenarioRun
from repro.experiments.scenarios import (
    DEFAULT_REQUEST_BYTES,
    _bench_servants,
)
from repro.faults import InjectedFault
from repro.replication import ReplicationConfig, ReplicationStyle
from repro.sim import PAPER_LATENCY_LIMIT_US
from repro.workload import ConstantRate, OpenLoopClient, latency_stats

#: Post-window settle time: long enough for heartbeat failure
#: detection plus flush, so in-flight requests resolve to completed
#: or given-up before the books close.
DEFAULT_SETTLE_US = 1_500_000.0


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
                    inject: Optional[Callable[[ScenarioRun], None]] = None,
                    settle_us: float = DEFAULT_SETTLE_US,
                    telemetry: bool = False,
                    journal: bool = False,
                    check: bool = False,
                    slo: bool = False) -> FaultTrialResult:
    """Run one open-loop load window with an optional fault load.

    ``inject`` receives the :class:`ScenarioRun` after warm-up and may
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
    run = begin_trial(n_replicas, n_clients, duration_us, rate_per_s,
                      deadline_us, seed, telemetry, journal, check, slo)
    run.deploy_group(
        ReplicationConfig(style=style, group="svc",
                          checkpoint_interval_requests=checkpoint_interval),
        _bench_servants(), n_replicas, n_clients)
    run.warm()
    if inject is not None:
        inject(run)
    loaders = [OpenLoopClient(stack, ConstantRate(rate_per_s),
                              duration_us, object_key="bench",
                              payload_bytes=DEFAULT_REQUEST_BYTES)
               for stack in run.stacks]
    return finish_trial(run, loaders, style, n_replicas, settle_us,
                        deadline_us, ["bench"], slo)


def begin_trial(n_server_hosts: int, n_clients: int, duration_us: float,
                rate_per_s: float, deadline_us: float, seed: int,
                telemetry: bool, journal: bool, check: bool,
                slo: bool) -> ScenarioRun:
    """The head every trial shares: validate the load window, then
    build the run (``check`` and ``slo`` verdicts are computed from
    journal events, so either forces the journal on)."""
    if n_clients < 1:
        raise ConfigurationError("trial needs at least one client")
    if duration_us <= 0:
        raise ConfigurationError("trial duration must be positive")
    if rate_per_s <= 0:
        raise ConfigurationError("trial request rate must be positive")
    if deadline_us <= 0:
        raise ConfigurationError("deadline must be positive")
    return ScenarioRun(n_server_hosts, n_clients, seed=seed,
                       telemetry=telemetry,
                       journal=journal or check or slo, history=check,
                       duration_us=duration_us)


def finish_trial(run: ScenarioRun, loaders: Sequence[Any],
                 style: ReplicationStyle, n_replicas: int,
                 settle_us: float, deadline_us: float,
                 object_keys: Sequence[str], slo: bool) -> FaultTrialResult:
    """The tail every trial shares: drive the open-loop window, then
    reduce the run to a :class:`FaultTrialResult`.  A run built with
    the history recorder gets the :mod:`repro.check` verdict, with
    linearizability (a single-object property) checked per key of
    ``object_keys``."""
    run.start(loaders)
    run.offer(settle_us)
    duration_us, elapsed = run.duration_us, run.elapsed_us
    window_end = run.t0 + duration_us
    sent, completed, latencies = run.sent, run.completed, run.latencies
    mean, jitter = latency_stats(latencies)
    availability, recoveries = run.outages(elapsed, duration_us)

    telemetry_digest = None
    if run.telemetry is not None:
        from repro.telemetry.analysis import telemetry_summary
        telemetry_digest = telemetry_summary(run.telemetry)

    journal_events = None
    journal_summary = None
    if run.journal is not None:
        from repro.journal.io import journal_digest
        journal_events = list(run.journal.events)
        journal_summary = journal_digest(run.journal,
                                         window_start_us=run.t0,
                                         window_end_us=window_end)

    check_digest = None
    if run.history is not None:
        from repro.check import (
            IncrementSpec,
            check_invariants,
            check_linearizability,
        )
        violations = list(check_invariants(journal_events))
        lin_ok, lin_skipped, n_ops = True, False, 0
        for key in object_keys:
            ops = tuple(op for op in run.history.operations
                        if op.object_key == key)
            n_ops += len(ops)
            lin = check_linearizability(ops, IncrementSpec())
            lin_ok = lin_ok and lin.ok
            lin_skipped = lin_skipped or lin.skipped
        check_digest = {
            "ok": bool(lin_ok and not violations),
            "operations": n_ops,
            "violations": [v.to_dict() for v in violations],
            "linearizable": lin_ok,
            "linearizability_skipped": lin_skipped,
            "truncated_rings": dict(run.journal.truncated_rings()),
        }

    slo_digest = None
    if slo:
        slo_digest = slo_trial_digest(
            journal_events, window_start_us=run.t0,
            window_end_us=window_end,
            registry=getattr(run.testbed.sim.telemetry, "metrics", None))

    return FaultTrialResult(
        style=style, n_replicas=n_replicas, n_clients=len(loaders),
        duration_us=duration_us, sent=sent, completed=completed,
        failed=max(sent - completed, 0),
        late=sum(1 for v in latencies if v > deadline_us),
        availability=availability,
        mean_recovery_us=(sum(recoveries) / len(recoveries)
                          if recoveries else 0.0),
        recovery_times_us=recoveries, latency_mean_us=mean,
        jitter_us=jitter,
        bandwidth_mbps=run.wire_bytes / elapsed,
        wire_bytes=run.wire_bytes, injected=list(run.injector.injected),
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
