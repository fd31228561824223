"""The five workloads, driven through the documented entry points only.

Each workload is one function ``run(seed, shrink)`` that performs one
*repeat*: it builds the system, drives it, checks the outputs and
returns an :class:`Observation`.  ``shrink`` divides the shape: 1 is
the measured shape, larger values give the warm-up and ``--smoke``
sizings.  ``repro`` is imported inside the functions so that a child
process pays (and ``setup_s`` sees) the import.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@dataclass
class Observation:
    """What one repeat produced."""

    #: User-level operations attempted / not completed correctly.
    ops: int
    failed: int
    #: Simulated-clock results; repeat exactly for a fixed seed.
    sim: Dict[str, float]
    #: Boundary counts carried by the result object (exact).
    counts: Dict[str, float] = field(default_factory=dict)
    #: Output checks that did not hold (empty means correct).
    problems: List[str] = field(default_factory=list)
    #: Anything else that must repeat exactly (digests, per-trial rows).
    extra: object = None

    def fingerprint(self) -> str:
        """Everything a repeat with the same seed must reproduce."""
        return json.dumps([self.ops, self.failed, self.sim, self.counts,
                           self.extra], sort_keys=True)


@dataclass(frozen=True)
class Workload:
    name: str
    #: The unit of ``ops_per_s``.
    op: str
    run: Callable[[int, int], Observation]
    #: Shape divisor of the untimed warm-up repeat.
    warm_shrink: int = 10
    #: Same shape with every observer off (``observers.on_off_wall_x``).
    observers_off: Optional[Callable[[int, int], Observation]] = None


def _closed_loop(result, n_expected: int, wire_bytes: float,
                 counts: Dict[str, float]) -> Observation:
    completed = result.completed
    problems = []
    if completed != n_expected:
        problems.append(f"{completed} of {n_expected} requests completed")
    return Observation(
        ops=n_expected, failed=n_expected - completed,
        sim={"latency_mean_us": result.latency_mean_us,
             "throughput_rps": result.throughput_per_s,
             "availability": completed / n_expected,
             "wire_bytes_per_op": wire_bytes / max(completed, 1)},
        counts={"events": result.events_dispatched, **counts},
        problems=problems)


def _rtt(style_name: str, n_requests: int, seed: int,
         shrink: int) -> Observation:
    from repro.experiments import run_replicated_load
    from repro.replication import ReplicationStyle

    n_clients = 4
    per_client = max(n_requests // shrink, 5)
    result = run_replicated_load(
        ReplicationStyle[style_name], n_replicas=3, n_clients=n_clients,
        n_requests=per_client, seed=seed, checkpoint_interval=1)
    # bandwidth_mbps is bytes per simulated microsecond.
    wire_bytes = result.bandwidth_mbps * result.duration_us
    return _closed_loop(result, n_clients * per_client, wire_bytes, {})


def rtt_active(seed: int, shrink: int = 1) -> Observation:
    return _rtt("ACTIVE", 2000, seed, shrink)


def rtt_passive(seed: int, shrink: int = 1) -> Observation:
    return _rtt("WARM_PASSIVE", 500, seed, shrink)


def _cluster(seed: int, shrink: int, observers: bool) -> Observation:
    from repro.cluster import run_cluster_load

    n_clients = 12
    per_client = max(600 // shrink, 8)
    result = run_cluster_load(
        n_shards=4, n_clients=n_clients, n_requests=per_client,
        n_server_hosts=5, seed=seed, journal=observers,
        telemetry=observers)
    shards = result.per_shard.values()
    spans = getattr(result.telemetry, "spans", None)
    observation = _closed_loop(
        result, n_clients * per_client, result.wire_bytes,
        {"checkpoints": sum(s["checkpoints"] for s in shards),
         "duplicates": sum(s["duplicates"] for s in shards),
         "rerouted": result.rerouted,
         "spans": len(spans) if spans is not None else 0})
    if not result.routers_agree:
        observation.problems.append("routers disagree on the map digest")
    return observation


def cluster_observed(seed: int, shrink: int = 1) -> Observation:
    return _cluster(seed, shrink, observers=True)


def cluster_unobserved(seed: int, shrink: int = 1) -> Observation:
    return _cluster(seed, shrink, observers=False)


def campaign_faults(seed: int, shrink: int = 1) -> Observation:
    from repro.campaign import CampaignSpec, ResultsStore, run_campaign

    if shrink == 1:
        styles = ["active", "warm_passive", "cold_passive"]
        loads = ["none", "process_crash", "crash_and_restart", "partition"]
        seeds, duration_us = [seed, seed + 1], 1e6
    else:
        styles, loads = ["active", "warm_passive"], ["none", "process_crash"]
        seeds, duration_us = [seed], 2.5e5
    spec = CampaignSpec(
        name="perfbench", styles=styles, replica_counts=[3],
        checkpoint_intervals=[1], fault_loads=loads, seeds=seeds,
        n_clients=2, duration_us=duration_us, rate_per_s=200,
        settle_us=250e3)
    # workers=1: a busy second process slows the first (README: "Noise").
    with tempfile.TemporaryDirectory(dir=ROOT,
                                     prefix=".perfbench_tmp_") as tmp:
        summary = run_campaign(
            spec, ResultsStore(os.path.join(tmp, "results.jsonl")),
            workers=1, journal_dir=tmp)
    rows = [r.metrics for r in summary.records if r.ok]
    problems = []
    if summary.failed or summary.ran != summary.total:
        problems.append(f"{summary.failed} trials failed, "
                        f"{summary.ran} of {summary.total} ran")
    sent = sum(m["sent"] for m in rows)
    completed = sum(m["completed"] for m in rows)
    faulted = [m["mean_recovery_us"] for m in rows if m["faults"]]
    sim = {}
    if rows:
        sim = {
            "latency_mean_us": _mean([m["latency_mean_us"] for m in rows]),
            "throughput_rps": completed / sum(m["duration_us"]
                                              for m in rows) * 1e6,
            "availability": _mean([m["availability"] for m in rows]),
            "wire_bytes_per_op": sum(m["wire_bytes"] for m in rows)
            / max(completed, 1),
            "recovery_ms": _mean(faulted) / 1000.0 if faulted else 0.0,
            "request_failed_share": sum(m["failed"] for m in rows)
            / max(sent, 1)}
    return Observation(
        ops=summary.total, failed=summary.total - len(rows), sim=sim,
        problems=problems,
        extra=[[r.trial_id, r.metrics["sent"], r.metrics["completed"],
                r.metrics["availability"], r.metrics["latency_mean_us"],
                r.metrics["wire_bytes"]] for r in summary.records if r.ok])


def check_explore(seed: int, shrink: int = 1) -> Observation:
    from repro.check import (canonical_partition_scenario,
                             canonical_scenario, explore, run_schedule)

    scenarios = [(canonical_scenario(seed=seed), max(200 // shrink, 4)),
                 (canonical_partition_scenario(seed=seed),
                  max(80 // shrink, 2))]
    # explore() reports verdicts and digests only.  One run of each
    # scenario under the kernel's native order gives the workload its
    # simulated-clock results (about 1 % of the repeat): the closed
    # loop of "add" requests, without the closing read after the horizon.
    latencies: List[float] = []
    invoked = window_us = 0.0
    for scenario, _ in scenarios:
        operations = [op for op in run_schedule(scenario).operations
                      if op.operation == "add"]
        done = [op for op in operations if op.completed_at is not None]
        latencies += [op.completed_at - op.invoked_at for op in done]
        invoked += len(operations)
        window_us += (max(op.completed_at for op in done)
                      - min(op.invoked_at for op in operations))
    digests: List[str] = []
    failed = 0
    problems = []
    for scenario, budget in scenarios:
        result = explore(scenario, budget=budget, stop_on_violation=False)
        digests += [report.digest for report in result.reports]
        failed += len(result.violating) + budget - result.schedules_run
        if not result.ok:
            problems.append(f"{len(result.violating)} schedules violate "
                            f"an invariant")
    return Observation(
        ops=sum(budget for _, budget in scenarios), failed=failed,
        sim={"latency_mean_us": _mean(latencies),
             "throughput_rps": len(latencies) / window_us * 1e6,
             "availability": len(latencies) / invoked,
             "distinct_schedules": len(set(digests))},
        problems=problems, extra=digests)


def _mean(values: List[float]) -> float:
    return sum(values) / len(values)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("rtt_active", "completed request", rtt_active),
    Workload("rtt_passive", "completed request", rtt_passive),
    Workload("cluster_observed", "completed request", cluster_observed,
             observers_off=cluster_unobserved),
    # Full-shape warm-up: it fills the per-process snapshot cache, so
    # the timed repeats fork warm snapshots and setup_s pays the capture.
    Workload("campaign_faults", "trial", campaign_faults, warm_shrink=1),
    Workload("check_explore", "verified schedule", check_explore),
)}
