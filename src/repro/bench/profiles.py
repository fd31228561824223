"""The fixed bench suite: calibrated performance profiles.

Seven profiles, each reporting wall-clock-grounded throughput numbers
plus peak RSS:

- ``kernel_events`` — pure event-loop throughput: an event-chain
  workload (the dispatch fast path) and a timer-churn workload (the
  cancel/compaction path), each run on both the optimized kernel and
  the :class:`~repro.bench.reference.ReferenceSimulator`, so the
  artifact carries a same-machine ``speedup_vs_reference``;
- ``rtt`` — the paper's round-trip scenario (active and warm-passive
  replication over the full GCS/ORB stack), reporting events/sec and
  simulated-µs per wall-ms;
- ``campaign`` — a small fault-injection campaign through the
  persistent worker pool, reporting trials/sec;
- ``check`` — the ``repro.check`` canonical scenario with and without
  verification, reporting the schedule-exploration overhead ratio;
- ``cluster`` — the sharded closed-loop load at 1 vs. 4 shards on the
  same host set, reporting the aggregate-throughput scaling factor;
- ``slo`` — the same sharded fault trial with and without the SLO
  plane, asserting the journal bytes are identical (observation-only)
  and reporting the post-hoc error-budget evaluation throughput;
- ``partition`` — the per-link topology-filter path: a clean trial vs
  the same trial with an idle filter installed (byte-identical
  journal required) plus a live split-and-heal trial.

``quick=True`` shrinks every workload to CI-smoke size (seconds, not
minutes); the metric *names* are identical either way so baselines
stay diffable.
"""

from __future__ import annotations

import resource
import tempfile
import time
from typing import Any, Callable, Dict, List, Tuple

from repro.bench.artifact import BenchReport
from repro.bench.reference import ReferenceSimulator
from repro.sim.kernel import Simulator

__all__ = ["PROFILE_NAMES", "profile_summaries", "run_profile",
           "run_suite"]


def _peak_rss_kb() -> float:
    """Peak resident set size of this process, in KiB."""
    return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def _timed(fn: Callable[[], Any]) -> Tuple[Any, float]:
    """Run ``fn`` and return ``(result, wall_seconds)``."""
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


# ---------------------------------------------------------------------------
# kernel_events: raw event-loop throughput
# ---------------------------------------------------------------------------

def _chain_workload(sim: Simulator, n_chains: int, length: int) -> int:
    """``n_chains`` interleaved event chains, each ``length`` deep —
    the shape of cascaded network/CPU completions.  Returns the event
    count dispatched."""

    def tick(remaining: int) -> None:
        if remaining:
            sim.schedule(1.0, tick, remaining - 1)

    for lane in range(n_chains):
        sim.schedule(float(lane % 7) * 0.25, tick, length - 1)
    sim.run()
    return sim.events_dispatched


def _churn_workload(sim: Simulator, n_ticks: int, horizon: float) -> int:
    """Retransmit-timer churn: every tick arms a far-future timeout
    and cancels the previous one, exactly the pattern the reliable
    links and failure detectors produce.  Cancelled timers accumulate
    ahead of the clock, which is what heap compaction targets.
    Returns the event count dispatched."""
    live: List[Any] = [None]

    def timeout() -> None:
        """The timer body that (almost) never runs."""

    def tick(remaining: int) -> None:
        if live[0] is not None:
            live[0].cancel()
        live[0] = sim.schedule(horizon, timeout)
        if remaining:
            sim.schedule(1.0, tick, remaining - 1)

    sim.schedule(0.0, tick, n_ticks - 1)
    sim.run()
    return sim.events_dispatched


def _kernel_events(quick: bool) -> BenchReport:
    """Run chain + churn on both kernels; report throughput ratios."""
    n_chains, length = (8, 25_000) if not quick else (8, 5_000)
    n_ticks, horizon = (200_000, 10_000.0) if not quick else (40_000, 10_000.0)

    metrics: Dict[str, float] = {}
    total_events = 0
    total_wall = 0.0
    total_ref_wall = 0.0
    for key, run in (
            ("chain", lambda sim: _chain_workload(sim, n_chains, length)),
            ("churn", lambda sim: _churn_workload(sim, n_ticks, horizon))):
        fast_events, fast_wall = _timed(lambda: run(Simulator(seed=1)))
        ref_events, ref_wall = _timed(lambda: run(ReferenceSimulator(seed=1)))
        fast_rate = fast_events / max(fast_wall, 1e-9)
        ref_rate = ref_events / max(ref_wall, 1e-9)
        metrics[f"{key}_events_per_sec"] = fast_rate
        metrics[f"{key}_reference_events_per_sec"] = ref_rate
        metrics[f"{key}_speedup_vs_reference"] = fast_rate / ref_rate
        total_events += fast_events
        total_wall += fast_wall
        total_ref_wall += ref_wall

    metrics["events_per_sec"] = total_events / max(total_wall, 1e-9)
    # Both kernels dispatch the same events, so the suite-level
    # speedup reduces to the wall-clock ratio.
    metrics["speedup_vs_reference"] = total_ref_wall / max(total_wall, 1e-9)
    metrics["wall_s"] = total_wall
    metrics["peak_rss_kb"] = _peak_rss_kb()
    return BenchReport(
        profile="kernel_events", quick=quick,
        parameters={"n_chains": n_chains, "chain_length": length,
                    "churn_ticks": n_ticks, "churn_horizon_us": horizon},
        metrics=metrics)


# ---------------------------------------------------------------------------
# rtt: the full-stack round-trip scenario
# ---------------------------------------------------------------------------

def _rtt(quick: bool) -> BenchReport:
    """Active vs. warm-passive closed-loop round trips over the whole
    GCS/ORB stack — the workload every figure in the paper runs."""
    from repro.experiments.scenarios import run_replicated_load
    from repro.replication import ReplicationStyle

    n_requests = 60 if quick else 250
    metrics: Dict[str, float] = {}
    total_events = 0
    total_sim_us = 0.0
    total_wall = 0.0
    for style in (ReplicationStyle.ACTIVE, ReplicationStyle.WARM_PASSIVE):
        result, wall = _timed(lambda: run_replicated_load(
            style, n_replicas=3, n_clients=2, n_requests=n_requests,
            seed=1))
        key = style.value
        metrics[f"{key}_latency_mean_us"] = result.latency_mean_us
        metrics[f"{key}_events_per_sec"] = (result.events_dispatched
                                            / max(wall, 1e-9))
        total_events += result.events_dispatched
        total_sim_us += result.duration_us
        total_wall += wall

    metrics["events_per_sec"] = total_events / max(total_wall, 1e-9)
    metrics["sim_us_per_wall_ms"] = total_sim_us / max(total_wall * 1e3, 1e-9)
    metrics["wall_s"] = total_wall
    metrics["peak_rss_kb"] = _peak_rss_kb()
    return BenchReport(
        profile="rtt", quick=quick,
        parameters={"n_replicas": 3, "n_clients": 2,
                    "n_requests": n_requests},
        metrics=metrics)


# ---------------------------------------------------------------------------
# campaign: worker-pool wall clock
# ---------------------------------------------------------------------------

def _campaign(quick: bool) -> BenchReport:
    """A small fault-injection sweep through the persistent worker
    pool (2 workers), measuring end-to-end campaign wall clock."""
    from repro.campaign import CampaignSpec, ResultsStore, run_campaign

    seeds = [0] if quick else [0, 1]
    duration_us = 250_000.0 if quick else 500_000.0
    spec = CampaignSpec(
        name="bench", styles=["active", "warm_passive"],
        replica_counts=[2], checkpoint_intervals=[1],
        fault_loads=["none", "process_crash"], seeds=seeds,
        n_clients=2, duration_us=duration_us, rate_per_s=150.0,
        settle_us=250_000.0)
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        store = ResultsStore(f"{tmp}/results.jsonl")
        summary, wall = _timed(
            lambda: run_campaign(spec, store, workers=2))
    metrics = {
        "trials": float(summary.total),
        "failed": float(summary.failed),
        "trials_per_sec": summary.total / max(wall, 1e-9),
        "sim_us_per_wall_ms": (summary.total * (duration_us + 250_000.0)
                               / max(wall * 1e3, 1e-9)),
        "wall_s": wall,
        "peak_rss_kb": _peak_rss_kb(),
    }
    return BenchReport(
        profile="campaign", quick=quick,
        parameters={"trials": summary.total, "workers": 2,
                    "duration_us": duration_us, "seeds": len(seeds)},
        metrics=metrics)


# ---------------------------------------------------------------------------
# cluster: throughput scaling with shard count
# ---------------------------------------------------------------------------

def _cluster(quick: bool) -> BenchReport:
    """Aggregate closed-loop throughput at 1 vs. 4 shards.

    Both runs use the same host set, client fleet and key universe —
    only the shard count changes — so ``scaling_x`` isolates the win
    of parallel primaries.  ``styles_distinct`` asserts, from the
    journal's per-shard deployment events, that the 4-shard run really
    mixes replication styles (one active, three warm-passive).
    """
    from repro.cluster import run_cluster_load

    n_requests = 15 if quick else 40
    n_clients = 12
    n_server_hosts = 5

    r1, wall1 = _timed(lambda: run_cluster_load(
        n_shards=1, n_clients=n_clients, n_requests=n_requests,
        n_server_hosts=n_server_hosts, seed=1, journal=True))
    r4, wall4 = _timed(lambda: run_cluster_load(
        n_shards=4, n_clients=n_clients, n_requests=n_requests,
        n_server_hosts=n_server_hosts, seed=1, journal=True))
    assert r4.journal is not None
    deployed_styles = {event.attrs.get("style")
                       for event in r4.journal.events
                       if event.component == "cluster"
                       and event.kind == "shard"}
    total_events = r1.events_dispatched + r4.events_dispatched
    total_wall = wall1 + wall4
    metrics = {
        "shards1_throughput_per_s": r1.throughput_per_s,
        "shards4_throughput_per_s": r4.throughput_per_s,
        "scaling_x": (r4.throughput_per_s
                      / max(r1.throughput_per_s, 1e-9)),
        "styles_distinct": float(len(deployed_styles)),
        "latency_mean_us": r4.latency_mean_us,
        "events_per_sec": total_events / max(total_wall, 1e-9),
        "wall_s": total_wall,
        "peak_rss_kb": _peak_rss_kb(),
    }
    return BenchReport(
        profile="cluster", quick=quick,
        parameters={"n_requests": n_requests, "n_clients": n_clients,
                    "n_server_hosts": n_server_hosts,
                    "shard_counts": [1, 4]},
        metrics=metrics)


# ---------------------------------------------------------------------------
# check: schedule-exploration overhead
# ---------------------------------------------------------------------------

def _check(quick: bool) -> BenchReport:
    """The ``repro.check`` canonical scenario, plain vs. verified.

    The *baseline* loop runs the scenario under the kernel's native
    ordering with no history capture; the *checked* loop runs it the
    way ``python -m repro check --explore`` does — per schedule a
    random-walk policy, history recording and linearizability +
    invariant verification — so ``check_overhead_ratio`` is the price
    of one verified schedule.
    """
    from repro.check import (
        RandomWalkPolicy,
        canonical_scenario,
        run_schedule,
    )
    from repro.check.explorer import verify_outcome

    n_schedules = 8 if quick else 40
    scenario = canonical_scenario()

    def baseline_loop() -> int:
        events = 0
        for _ in range(n_schedules):
            events += run_schedule(scenario).events_dispatched
        return events

    def checked_loop() -> int:
        events = 0
        for i in range(n_schedules):
            outcome = run_schedule(
                scenario,
                RandomWalkPolicy(seed=i, tie_choices=4,
                                 delay_bound_us=150.0))
            if verify_outcome(outcome):
                raise AssertionError("bench scenario must verify clean")
            events += outcome.events_dispatched
        return events

    base_events, base_wall = _timed(baseline_loop)
    checked_events, checked_wall = _timed(checked_loop)
    base_rate = base_events / max(base_wall, 1e-9)
    checked_rate = checked_events / max(checked_wall, 1e-9)
    metrics = {
        "events_per_sec": checked_rate,
        "baseline_events_per_sec": base_rate,
        "check_overhead_ratio": base_rate / max(checked_rate, 1e-9),
        "schedules_per_sec": n_schedules / max(checked_wall, 1e-9),
        "wall_s": base_wall + checked_wall,
        "peak_rss_kb": _peak_rss_kb(),
    }
    return BenchReport(
        profile="check", quick=quick,
        parameters={"n_schedules": n_schedules, "tie_choices": 4,
                    "delay_bound_us": 150.0},
        metrics=metrics)


# ---------------------------------------------------------------------------
# slo: observability-plane overhead and evaluation throughput
# ---------------------------------------------------------------------------

def _slo(quick: bool) -> BenchReport:
    """The SLO plane priced against the trial it observes.

    The *baseline* run captures a sharded crash trial's journal with
    no SLO evaluation; the *slo* run is the identical trial with the
    per-shard error-budget/alert evaluation on.  The journal streams
    must match byte for byte — the plane is post-hoc and observation-
    only, so turning it on cannot perturb the simulation — and
    ``slo_overhead_ratio`` is then pure evaluation cost.
    ``events_per_sec`` is the re-evaluation throughput over the
    captured stream (the ``repro slo`` CLI's hot path).
    """
    from repro.cluster import run_cluster_trial
    from repro.journal.io import events_to_jsonl
    from repro.replication import ReplicationStyle
    from repro.slo import evaluate_slos

    duration_us = 400_000.0 if quick else 1_500_000.0
    n_rounds = 10 if quick else 50

    def trial(slo: bool):
        return run_cluster_trial(
            style=ReplicationStyle.WARM_PASSIVE, n_shards=3,
            n_clients=6, duration_us=duration_us, rate_per_s=200.0,
            seed=1, fault_load="process_crash", journal=True, slo=slo)

    base, base_wall = _timed(lambda: trial(False))
    tagged, slo_wall = _timed(lambda: trial(True))
    assert base.journal_events is not None
    assert tagged.journal_events is not None
    if (events_to_jsonl(base.journal_events)
            != events_to_jsonl(tagged.journal_events)):
        raise AssertionError(
            "SLO evaluation must not perturb the journal")
    assert tagged.slo is not None
    events = tagged.journal_events

    def eval_loop() -> int:
        seen = 0
        for _ in range(n_rounds):
            evaluate_slos(events)
            seen += len(events)
        return seen

    evaluated, eval_wall = _timed(eval_loop)
    metrics = {
        "events_per_sec": evaluated / max(eval_wall, 1e-9),
        "slo_overhead_ratio": slo_wall / max(base_wall, 1e-9),
        "journal_events": float(len(events)),
        "budgets": float(tagged.slo["slos"]),
        "alerts": float(tagged.slo["alerts"]),
        "wall_s": base_wall + slo_wall + eval_wall,
        "peak_rss_kb": _peak_rss_kb(),
    }
    return BenchReport(
        profile="slo", quick=quick,
        parameters={"n_shards": 3, "n_clients": 6,
                    "duration_us": duration_us, "n_rounds": n_rounds,
                    "fault_load": "process_crash"},
        metrics=metrics)


# ---------------------------------------------------------------------------
# partition: per-link topology-filter path overhead
# ---------------------------------------------------------------------------

def _partition(quick: bool) -> BenchReport:
    """Price the per-link topology-filter path against a clean trial.

    The *baseline* trial runs with no topology faults at all; the
    *filtered* trial is the identical workload with a never-active
    :class:`~repro.net.PartitionFilter` installed directly on the
    network (its window lies beyond the run, and bypassing the
    injector keeps the ground-truth journal untouched).  Every frame
    now pays the filter consultation, but the journal streams must
    match byte for byte — the filter path may not consume RNG or
    perturb timing while inactive — and ``filter_overhead_ratio`` is
    then the pure cost of consulting installed-but-idle filters.  A
    third trial runs a real mid-window split-and-heal to report the
    live partition path's throughput.
    """
    from repro.experiments.trial import run_fault_trial
    from repro.journal.io import events_to_jsonl
    from repro.net import PartitionFilter
    from repro.replication import ReplicationStyle

    duration_us = 400_000.0 if quick else 1_500_000.0
    rate_per_s = 200.0

    def trial(inject=None):
        return run_fault_trial(
            ReplicationStyle.ACTIVE, n_replicas=3, n_clients=2,
            duration_us=duration_us, rate_per_s=rate_per_s, seed=1,
            inject=inject, journal=True)

    def install_idle(ctx) -> None:
        """An installed filter whose window never opens."""
        names = sorted(ctx.testbed.network.hosts)
        horizon = ctx.t0 + 1_000.0 * ctx.duration_us
        ctx.testbed.network.add_link_filter(PartitionFilter(
            (frozenset(names[:1]), frozenset(names[1:])),
            horizon, horizon + 1.0))

    def split_and_heal(ctx) -> None:
        """A real one-host split for the middle third of the window."""
        minority = ctx.replicas[-1].process.host.name
        start = ctx.t0 + 0.3 * ctx.duration_us
        ctx.injector.partition_at([[minority]], start,
                                  start + 0.3 * ctx.duration_us)

    base, base_wall = _timed(lambda: trial())
    idle, idle_wall = _timed(lambda: trial(install_idle))
    assert base.journal_events is not None
    assert idle.journal_events is not None
    if (events_to_jsonl(base.journal_events)
            != events_to_jsonl(idle.journal_events)):
        raise AssertionError(
            "an inactive topology filter must not perturb the journal")
    live, live_wall = _timed(lambda: trial(split_and_heal))
    assert live.journal_events is not None

    metrics = {
        "events_per_sec": (len(idle.journal_events)
                           / max(idle_wall, 1e-9)),
        "filter_overhead_ratio": idle_wall / max(base_wall, 1e-9),
        "journal_events": float(len(idle.journal_events)),
        "partition_events_per_sec": (len(live.journal_events)
                                     / max(live_wall, 1e-9)),
        "partition_completed": float(live.completed),
        "wall_s": base_wall + idle_wall + live_wall,
        "peak_rss_kb": _peak_rss_kb(),
    }
    return BenchReport(
        profile="partition", quick=quick,
        parameters={"n_replicas": 3, "n_clients": 2,
                    "duration_us": duration_us,
                    "rate_per_s": rate_per_s},
        metrics=metrics)


_PROFILES: Dict[str, Callable[[bool], BenchReport]] = {
    "kernel_events": _kernel_events,
    "rtt": _rtt,
    "campaign": _campaign,
    "check": _check,
    "cluster": _cluster,
    "slo": _slo,
    "partition": _partition,
}

#: Names of the fixed suite, in run order.
PROFILE_NAMES: Tuple[str, ...] = tuple(_PROFILES)


def profile_summaries() -> Dict[str, str]:
    """Map each profile name to the first line of its docstring."""
    return {name: (fn.__doc__ or "").strip().splitlines()[0]
            for name, fn in _PROFILES.items()}


def run_profile(name: str, quick: bool = False) -> BenchReport:
    """Run one profile by name; raises ``KeyError`` on unknown names."""
    return _PROFILES[name](quick)


def run_suite(names: Tuple[str, ...] = PROFILE_NAMES,
              quick: bool = False) -> List[BenchReport]:
    """Run the given profiles in order and return their reports."""
    return [run_profile(name, quick=quick) for name in names]
