"""Paper Fig. 3 — break-down of the average round-trip time.

Paper values (one client, one server replica, micro-benchmark):
application 15 µs, ORB 398 µs, group communication 620 µs,
replicator 154 µs.  The simulated substrate is calibrated to these
anchors, so the benchmark checks both the reproduction machinery and
the calibration.

The breakdown is a view over the run's telemetry spans: the mean per
component is :func:`~repro.telemetry.component_breakdown`, and the
per-component p99 and the round-trip total come from each completed
trace's :func:`~repro.telemetry.trace_component_us`.
"""

import pytest

from conftest import BENCH_REQUESTS, print_header

from repro.experiments import run_replicated_load
from repro.replication import ReplicationStyle
from repro.sim import PAPER_FIG3_BREAKDOWN
from repro.telemetry import (
    completed_traces,
    component_breakdown,
    trace_component_us,
)


def _p99(samples):
    """Nearest-rank 99th percentile."""
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]


@pytest.fixture(scope="module")
def fig3_run():
    result = run_replicated_load(
        ReplicationStyle.ACTIVE, n_replicas=1, n_clients=1,
        n_requests=max(BENCH_REQUESTS, 200), seed=0, telemetry=True)
    assert result.telemetry.dropped == 0
    return result


def test_fig3_breakdown(benchmark, fig3_run):
    result = benchmark.pedantic(lambda: fig3_run, rounds=1, iterations=1)
    spans = result.telemetry.spans
    breakdown = component_breakdown(spans)
    per_request = [trace_component_us(trace)
                   for trace in completed_traces(spans).values()]
    assert len(per_request) == result.completed
    print_header("Fig. 3 — break-down of the average round-trip time")
    print(f"{'component':24s} {'mean [us]':>12s} {'p99 [us]':>12s} "
          f"{'paper [us]':>12s}")
    p99 = {}
    for component, paper_value in PAPER_FIG3_BREAKDOWN.items():
        p99[component] = _p99([parts.get(component, 0.0)
                               for parts in per_request])
        print(f"{component:24s} {breakdown[component]:12.1f} "
              f"{p99[component]:12.1f} {paper_value:12.1f}")
    totals = [sum(parts.values()) for parts in per_request]
    total = sum(totals) / len(totals)
    paper_total = sum(PAPER_FIG3_BREAKDOWN.values())
    print(f"{'TOTAL':24s} {total:12.1f} {_p99(totals):12.1f} "
          f"{paper_total:12.1f}")

    # Shape claims:
    # 1. Group communication dominates the round trip.
    assert breakdown["group_communication"] == max(breakdown.values())
    # 2. The replicator adds only a small overhead (~154 us, "fairly
    #    small compared to the GC and ORB latencies").
    assert breakdown["replicator"] < breakdown["orb"]
    assert breakdown["replicator"] < breakdown["group_communication"]
    # 3. The application share is tiny (micro-benchmark).
    assert breakdown["application"] < 0.05 * total
    # 4. p99 never undercuts the mean.
    for component in PAPER_FIG3_BREAKDOWN:
        assert p99[component] >= breakdown[component] * 0.999


def test_fig3_calibration_within_tolerance(benchmark, fig3_run):
    """Each component lands within 20 % of the paper's measurement
    (the calibration contract stated in DESIGN.md)."""
    result = benchmark.pedantic(lambda: fig3_run, rounds=1, iterations=1)
    breakdown = component_breakdown(result.telemetry.spans)
    for component, paper_value in PAPER_FIG3_BREAKDOWN.items():
        assert breakdown[component] == pytest.approx(
            paper_value, rel=0.20), component
