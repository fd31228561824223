"""Parent side of the benchmark: spawn one child per measurement, fold
its output into named metrics with units, print and write them.

Two ways in, one code path:

- ``python3 perfbench/run.py --workload W --seed N --seconds S --trace T``
  measures one workload in one mode and prints the ``BENCHMARK.json``
  contract's JSON object as the last line of standard output;
- ``PYTHONPATH=src python -m perfbench --seed N --out FILE`` measures
  every workload in both modes and writes one JSON result.

Children run one at a time, never two together: a second busy process
slows the first by 10-25 % on the sizing box (README: "Noise").
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from perfbench.workloads import ROOT, WORKLOADS

#: Fresh processes whose import + warm-up is clocked per run (the
#: median is ``setup_s``): three, then up to five while they are cheap.
SETUP_RUNS = (3, 5)
SETUP_BUDGET_S = 3.0
#: The contract allows a run 180 s; leave the parent time to report.
CHILD_TIMEOUT_S = 170.0
SMOKE_SECONDS = 0.3
#: ``ops_per_s`` is reported for a host whose spin loop
#: (``child.spin_mops``) runs at this rate: the sizing box when no
#: neighbour shares its core.
REFERENCE_SPIN_MOPS = 3.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def summarize(values: List[float]) -> Dict[str, float]:
    """Median with the spread fields kept beside it."""
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 \
        else [values[0]] * 3
    return {"value": statistics.median(values), "min": min(values),
            "max": max(values), "iqr": quartiles[2] - quartiles[0],
            "n": len(values)}


def run_child(workload: str, seed: int, mode: str, seconds: float,
              smoke: bool) -> Tuple[float, Optional[dict]]:
    """Run one child to completion; ``(setup_s, its JSON result)``."""
    paths = [ROOT, os.path.join(ROOT, "src"),
             *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(paths))
    command = [sys.executable, "-m", "perfbench.child",
               "--workload", workload, "--seed", str(seed),
               "--mode", mode, "--seconds", str(seconds)]
    if smoke:
        command.append("--smoke")
    started = time.perf_counter()
    child = subprocess.Popen(command, cwd=ROOT, env=env, text=True,
                             stdout=subprocess.PIPE)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, child.kill)
    watchdog.start()
    try:
        ready = child.stdout.readline()
        setup_s = time.perf_counter() - started
        rest = child.stdout.read()
    finally:
        watchdog.cancel()
        if child.poll() is None:
            child.kill()
        child.wait()
    if child.returncode != 0 or ready.strip() != "ready":
        raise BenchError(f"{workload}: child failed in mode {mode} "
                         f"(exit code {child.returncode})")
    lines = rest.strip().splitlines()
    return setup_s, json.loads(lines[-1]) if lines else None


def measure(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False) -> dict:
    """One workload in one mode: end-to-end metrics with tracing off,
    or per-layer metrics from one traced repeat."""
    contract = load_contract()
    setup_s, result = run_child(workload, seed,
                                "traced" if trace else "timed",
                                seconds, smoke)
    repeats = len(result["walls_s"]) + (1 if trace else 0)
    spins = result["spin_mops"]
    record = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "op": WORKLOADS[workload].op,
        "problems": result["problems"],
        "attempted": result["ops"] * repeats,
        "failed": result["failed"] * repeats,
        "walls_s": result["walls_s"],
        "spin_mops": spins,
    }
    if trace:
        values = dict(result["per_layer"])
        values["host.spin_mops"] = statistics.median(spins)
        values["host.spin_drift_x"] = spins[-1] / spins[0]
        record["traced_s"] = result["traced_s"]
        record["metrics"] = {
            spec["name"]: {"value": values.get(spec["name"], 0.0),
                           "unit": spec["unit"]}
            for spec in contract["per_layer"]}
        return record

    setups = [setup_s]
    budget_s = 0.0 if smoke else SETUP_BUDGET_S
    while len(setups) < SETUP_RUNS[0] or (
            len(setups) < SETUP_RUNS[1] and sum(setups) < budget_s):
        setups.append(run_child(workload, seed, "setup", 0.0, smoke)[0])
    sim = result["sim"]
    values = {
        "setup_s": summarize(setups),
        # Each repeat's rate, scaled by the machine speed seen in the
        # spins on either side of it (see README: "Noise").
        "ops_per_s": summarize([
            result["ops"] / wall * REFERENCE_SPIN_MOPS
            / ((before + after) / 2.0)
            for wall, before, after
            in zip(result["walls_s"], spins, spins[1:])]),
        "peak_rss_mb": {"value": result["peak_rss_mb"]},
        "completed_share": {"value": 1.0 - result["failed"] / result["ops"]},
        "sim_latency_mean_us": {"value": sim.get("latency_mean_us", 0.0)},
        "sim_throughput_rps": {"value": sim.get("throughput_rps", 0.0)},
        "sim_availability": {"value": sim.get("availability", 0.0)},
    }
    record["metrics"] = {
        spec["name"]: {**values[spec["name"]], "unit": spec["unit"]}
        for spec in contract["end_to_end"]}
    return record


def render(record: dict) -> str:
    """Every metric of one record by name, with its unit."""
    mode = "traced, per layer" if record["trace"] else "end to end"
    lines = [f"== {record['workload']} ({mode}; seed {record['seed']}; "
             f"op = {record['op']}; repeats "
             f"{', '.join(f'{w:.2f}' for w in record['walls_s'])} s)"]
    for name, metric in record["metrics"].items():
        if record["trace"] and metric["value"] == 0:
            continue  # a layer or boundary this workload never enters
        spread = ""
        if "n" in metric:
            spread = (f"   [min {metric['min']:.6g}  max {metric['max']:.6g}"
                      f"  iqr {metric['iqr']:.3g}  n {metric['n']}]")
        lines.append(f"  {name:<44}{metric['value']:>16.6g} "
                     f"{metric['unit']}{spread}")
    for problem in record["problems"]:
        lines.append(f"  INCORRECT: {problem}")
    return "\n".join(lines)


def contract_line(record: dict) -> str:
    """The one JSON object the ``BENCHMARK.json`` contract asks for."""
    return json.dumps({
        "correct": not record["problems"],
        "attempted": record["attempted"], "failed": record["failed"],
        "metrics": {name: {"value": metric["value"],
                           "unit": metric["unit"]}
                    for name, metric in record["metrics"].items()}})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench",
        description="Measure the repository's benchmark workloads.")
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="timed region per workload "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="one mode, and print the contract's JSON "
                             "line last (default: both modes)")
    parser.add_argument("--smoke", action="store_true",
                        help="1/20 shapes; checks the harness, "
                             "measures nothing")
    parser.add_argument("--out", help="write every record as JSON")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: src/repro not found: nothing to measure",
              file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.smoke \
            else load_contract()["run_seconds"]
    names = [args.workload] if args.workload else list(WORKLOADS)
    modes = [bool(args.trace)] if args.trace is not None else [False, True]

    records = []
    try:
        for name in names:
            for trace in modes:
                record = measure(name, args.seed, seconds, trace, args.smoke)
                print(render(record), flush=True)
                records.append(record)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.out:
        out = {"version": 1, "seed": args.seed, "seconds": seconds,
               "smoke": args.smoke, "workloads": {}}
        for record in records:
            section = "per_layer" if record["trace"] else "end_to_end"
            out["workloads"].setdefault(record["workload"], {})[section] = \
                record
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(out, f, indent=1)
    if args.trace is not None and args.workload:
        print(contract_line(records[0]))
    return 1 if any(record["problems"] for record in records) else 0
