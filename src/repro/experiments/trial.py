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

from typing import Any, Callable, Dict, Optional, Sequence

from repro.errors import ConfigurationError, Rule, check_fields
from repro.experiments.run import RunRecord, ScenarioRun
from repro.experiments.scenarios import (
    DEFAULT_REQUEST_BYTES,
    _bench_servants,
)
from repro.replication import ReplicationConfig, ReplicationStyle
from repro.sim import PAPER_LATENCY_LIMIT_US
from repro.workload import ConstantRate, OpenLoopClient

#: Post-window settle time: long enough for heartbeat failure
#: detection plus flush, so in-flight requests resolve to completed
#: or given-up before the books close.
DEFAULT_SETTLE_US = 1_500_000.0

#: The declared rules of a trial's load window and settle time.
WINDOW_RULES = (Rule(("n_clients",), int, ge=1),
                Rule(("duration_us", "rate_per_s", "deadline_us"), float,
                     gt=0))
SETTLE_RULES = (Rule(("settle_us",), float, ge=0),)


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
                    slo: bool = False) -> RunRecord:
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
    return finish_trial(run, loaders, settle_us, deadline_us, ["bench"],
                        slo)


def begin_trial(n_server_hosts: int, n_clients: int, duration_us: float,
                rate_per_s: float, deadline_us: float, seed: int,
                telemetry: bool, journal: bool, check: bool,
                slo: bool) -> ScenarioRun:
    """The head every trial shares: validate the load window, then
    build the run (``check`` and ``slo`` verdicts are computed from
    journal events, so either forces the journal on)."""
    check_fields({"n_clients": n_clients, "duration_us": duration_us,
                  "rate_per_s": rate_per_s, "deadline_us": deadline_us},
                 WINDOW_RULES)
    return ScenarioRun(n_server_hosts, n_clients, seed=seed,
                       telemetry=telemetry,
                       journal=journal or check or slo, history=check,
                       duration_us=duration_us)


def finish_trial(run: ScenarioRun, loaders: Sequence[Any],
                 settle_us: float, deadline_us: float,
                 object_keys: Sequence[str], slo: bool) -> RunRecord:
    """The tail every trial shares: drive the open-loop window, then
    reduce the run to its :class:`RunRecord`.  A run built with the
    history recorder gets the :mod:`repro.check` verdict, with
    linearizability (a single-object property) checked per key of
    ``object_keys``."""
    check_fields({"settle_us": settle_us}, SETTLE_RULES)
    run.start(loaders)
    run.offer(settle_us)
    duration_us, journal = run.duration_us, run.journal
    latencies = run.latencies
    availability, recoveries = run.outages(run.elapsed_us, duration_us)

    check_digest = None
    if run.history is not None:
        from repro.check import (
            IncrementSpec,
            check_invariants,
            check_linearizability,
        )
        violations = list(check_invariants(journal.events))
        lin_ok, lin_skipped, n_ops = True, False, 0
        for key in object_keys:
            ops = tuple(op for op in run.history.operations
                        if op.object_key == key)
            n_ops += len(ops)
            lin = check_linearizability(ops, IncrementSpec())
            lin_ok = lin_ok and lin.ok
            lin_skipped = lin_skipped or lin.skipped
        # A journal that dropped events past its cap hides evidence,
        # so its verdict fails (the rule ``verify_outcome`` applies to
        # walks).
        check_digest = {
            "ok": bool(lin_ok and not violations and not journal.dropped),
            "operations": n_ops,
            "violations": [v.to_dict() for v in violations],
            "linearizable": lin_ok,
            "linearizability_skipped": lin_skipped,
            "journal_dropped": journal.dropped,
        }

    slo_digest = None
    if slo:
        slo_digest = slo_trial_digest(
            journal.events, window_start_us=run.t0,
            window_end_us=run.t0 + duration_us)

    return run.record(
        duration_us, failed=max(run.sent - run.completed, 0),
        late=sum(1 for v in latencies if v > deadline_us),
        availability=availability,
        mean_recovery_us=(sum(recoveries) / len(recoveries)
                          if recoveries else 0.0),
        injected=list(run.injector.injected), check=check_digest,
        slo=slo_digest)


def slo_trial_digest(journal_events, window_start_us: float,
                     window_end_us: float) -> Dict[str, object]:
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
                            window_end_us=window_end_us)
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
