"""One workload in one fresh process (spawned by ``bench.py``).

Imports ``repro`` and runs the warm-up repeat, prints ``ready`` (the
parent clocks ``setup_s`` up to that line), then — unless ``--mode
setup`` — measures and prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import cProfile
import functools
import gc
import heapq
import importlib
import json
import pstats
import resource
import statistics
import sys
import time
from typing import Callable, Dict, List, Tuple

from perfbench import layers
from perfbench.workloads import WORKLOADS, Observation

#: Shape divisor of ``--smoke`` (applied on top of the warm-up's own).
SMOKE_SHRINK = 20
#: Untraced repeats beside the traced one (``trace.overhead_x``).
UNTRACED_REPEATS = 3
SPIN_DRIFT_WARN = 0.10
#: About 0.2 s on the sizing box.
SPIN_ITERATIONS = 600_000


def spin_mops(n: int) -> float:
    """Speed of a fixed pure-Python heap/dict loop, in million
    iterations per second: machine-speed drift made visible."""
    heap: List[int] = []
    table: Dict[int, int] = {}
    started = time.perf_counter()
    for i in range(n):
        heapq.heappush(heap, (i * 7919) % 10007)
        table[i & 1023] = i
        if i & 1:
            heapq.heappop(heap)
    return n / (time.perf_counter() - started) / 1e6


def timed(run: Callable[[], Observation]) -> Tuple[float, Observation]:
    gc.collect()
    started = time.perf_counter()
    observation = run()
    return time.perf_counter() - started, observation


#: Documented public functions whose calls are counted in the profile,
#: as ``module:attribute.path``.  A name a later PR removes reads as
#: absent (zero), never as a crash.
BOUNDARIES: Dict[str, Tuple[str, ...]] = {
    "sim.kernel.schedules": (
        "repro.sim:Simulator.schedule", "repro.sim:Simulator.schedule_at",
        "repro.sim:Simulator.schedule_fast",
        "repro.sim:Simulator.schedule_at_fast"),
    "sim.rest.cpu_jobs": ("repro.sim:Cpu.execute",),
    "net.transmits": ("repro.net:Network.transmit",),
    "gcs.multicasts": ("repro.gcs:GcsClient.multicast",),
    "gcs.directs": ("repro.gcs:GcsClient.send_direct",),
    "orb.invokes": ("repro.orb:OrbClient.invoke",),
    "replication.checkpoints": (
        "repro.replication:ServerReplicator.completed_seen",),
    "journal.records": ("repro.journal:Journal.record",),
    "sim.snapshot.forks": ("repro.sim:SimSnapshot.fork",),
    "check.verifies": ("repro.check.explorer:verify_outcome",),
}


def probe(stats: pstats.Stats) -> Dict[str, Tuple[int, float]]:
    """``(calls, cumulative seconds)`` per boundary; absent reads 0."""
    out = {}
    for name, paths in BOUNDARIES.items():
        keys = []
        for path in paths:
            module, _, attributes = path.partition(":")
            try:
                function = functools.reduce(
                    getattr, attributes.split("."),
                    importlib.import_module(module))
            except (ImportError, AttributeError):
                continue
            keys.append(layers.key_of(function))
        out[name] = layers.calls_and_seconds(stats, keys)
    return out


def fig3(seed: int) -> Dict[str, float]:
    """The simulated-time column set beside host time (Fig. 3), with
    its error against the paper's total — the repo's only reference
    result."""
    from repro.experiments import run_rtt_breakdown
    from repro.sim import PAPER_FIG3_BREAKDOWN

    breakdown = run_rtt_breakdown(n_requests=500, seed=seed)
    paper_total = sum(PAPER_FIG3_BREAKDOWN.values())
    out = {f"fig3.sim_us.{component}": breakdown.get(component, 0.0)
           for component in PAPER_FIG3_BREAKDOWN}
    out["fig3.total_err_pct"] = abs(
        sum(breakdown.values()) - paper_total) / paper_total * 100.0
    return out


def check_repeats(observations: List[Observation]) -> List[str]:
    problems = list(dict.fromkeys(
        p for o in observations for p in o.problems))
    if len({o.fingerprint() for o in observations}) > 1:
        problems.append("nondeterministic: repeats with one seed differ")
    return problems


def measure_timed(run: Callable[[], Observation], spin: Callable[[], float],
                  seconds: float) -> dict:
    """Repeat until ``seconds`` of timed wall have passed (at least
    twice, so the determinism check has something to compare), with a
    spin before the first repeat and after each one."""
    walls: List[float] = []
    spins = [spin()]
    observations: List[Observation] = []
    while len(walls) < 2 or sum(walls) < seconds:
        wall, observation = timed(run)
        walls.append(wall)
        spins.append(spin())
        observations.append(observation)
    return {"walls_s": walls, "spin_mops": spins,
            "observations": observations}


def profiled(run: Callable[[], Observation]
             ) -> Tuple[float, Observation, pstats.Stats]:
    profile = cProfile.Profile()
    gc.collect()
    started = time.perf_counter()
    profile.enable()
    try:
        observation = run()
    finally:
        profile.disable()
    return time.perf_counter() - started, observation, pstats.Stats(profile)


def layer_metrics(stats: pstats.Stats, ops: int,
                  us_per_op: float) -> Dict[str, float]:
    """Per layer: share of traced self-time, that share of the
    *untraced* host time per op, and Python-level calls per op."""
    seconds, calls = layers.fold(stats)
    total_s = sum(seconds.values())
    out = {}
    for layer in layers.LAYERS:
        share = seconds[layer] / total_s
        out[f"{layer}.host_share"] = share
        out[f"{layer}.host_us_per_op"] = share * us_per_op
        out[f"{layer}.py_calls_per_op"] = calls[layer] / ops
    return out


def boundary_metrics(stats: pstats.Stats,
                     observation: Observation) -> Dict[str, float]:
    """Counts and timings at the layer boundaries: from the profile,
    and from the result object where it carries its own count."""
    ops, counts, sim = observation.ops, observation.counts, observation.sim
    probes = probe(stats)
    verifies, verify_s = probes.pop("check.verifies")
    forks, fork_s = probes["sim.snapshot.forks"]
    out = {f"{name}_per_op": n_calls / ops
           for name, (n_calls, _) in probes.items()}
    out["sim.snapshot.fork_ms_traced"] = \
        fork_s / forks * 1e3 if forks else 0.0
    out["check.verify_ms_per_schedule_traced"] = \
        verify_s / verifies * 1e3 if verifies else 0.0
    out["sim.kernel.events_per_op"] = counts.get("events", 0) / ops
    if "checkpoints" in counts:
        out["replication.checkpoints_per_op"] = counts["checkpoints"] / ops
    out["replication.duplicates_suppressed"] = counts.get("duplicates", 0)
    out["cluster.rerouted"] = counts.get("rerouted", 0)
    out["telemetry.spans_per_op"] = counts.get("spans", 0) / ops
    out["net.sim_wire_bytes_per_op"] = sim.get("wire_bytes_per_op", 0.0)
    out["campaign.sim_recovery_ms"] = sim.get("recovery_ms", 0.0)
    out["campaign.sim_request_failed_share"] = \
        sim.get("request_failed_share", 0.0)
    out["check.distinct_schedules"] = sim.get("distinct_schedules", 0)
    return out


def measure_traced(workload, run: Callable[[], Observation],
                   spin: Callable[[], float], seed: int, shrink: int) -> dict:
    """Untraced repeats for the host time per op, then one repeat
    under cProfile folded into per-layer numbers."""
    spins = [spin()]
    untraced = [timed(run) for _ in range(UNTRACED_REPEATS)]
    walls = [wall for wall, _ in untraced]
    observations = [observation for _, observation in untraced]
    untraced_s = statistics.median(walls)
    ops = observations[0].ops

    per_layer: Dict[str, float] = {}
    if workload.observers_off is not None:
        off_s = statistics.median(
            timed(lambda: workload.observers_off(seed, shrink))[0]
            for _ in range(UNTRACED_REPEATS))
        per_layer["observers.on_off_wall_x"] = untraced_s / off_s

    traced_s, observation, stats = profiled(run)
    observations.append(observation)
    per_layer.update(layer_metrics(stats, ops, untraced_s / ops * 1e6))
    per_layer.update(boundary_metrics(stats, observation))
    per_layer["trace.overhead_x"] = traced_s / untraced_s
    per_layer["host.ops_per_wall_s"] = ops / untraced_s
    per_layer.update(fig3(seed))
    spins.append(spin())
    return {"walls_s": walls, "traced_s": traced_s, "spin_mops": spins,
            "observations": observations, "per_layer": per_layer}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.child")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("setup", "timed", "traced"))
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    shrink = SMOKE_SHRINK if args.smoke else 1
    warm = workload.run(args.seed, shrink * workload.warm_shrink)
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    def run() -> Observation:
        return workload.run(args.seed, shrink)

    spin = functools.partial(spin_mops, SPIN_ITERATIONS // shrink)
    if args.mode == "timed":
        result = measure_timed(run, spin, args.seconds)
    else:
        result = measure_traced(workload, run, spin, args.seed, shrink)
    spin_before, spin_after = result["spin_mops"][0], result["spin_mops"][-1]
    if abs(spin_after / spin_before - 1.0) > SPIN_DRIFT_WARN:
        print(f"perfbench: warning: host.spin_mops moved "
              f"{spin_before:.3f} -> {spin_after:.3f} during "
              f"{workload.name}; suspect a noisy neighbour before a "
              f"regression", file=sys.stderr)

    observations = result.pop("observations")
    if workload.warm_shrink == 1:  # same shape: the warm-up must agree too
        observations = [warm] + observations
    first = observations[0]
    result.update(
        problems=check_repeats(observations),
        ops=first.ops, failed=max(o.failed for o in observations),
        sim=first.sim,
        peak_rss_mb=resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
