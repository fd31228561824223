"""End-to-end telemetry tests across the replication stack.

The system-level guarantees:

1. **Determinism** — simulated results are byte-identical with
   telemetry on or off (recording never schedules events).
2. **Propagation invariants** — even under crashes and lost frames,
   spans are never orphaned or cross-wired (they may stay *open*).
"""

import pytest

from repro.experiments import run_fault_trial, run_replicated_load
from repro.replication import ReplicationStyle
from repro.telemetry import (
    completed_traces,
    component_breakdown,
    critical_path,
    parse_prometheus_text,
    prometheus_text,
    style_aggregates,
    telemetry_summary,
    validate_spans,
)

REQUESTS = 40


def _load(style=ReplicationStyle.ACTIVE, **kwargs):
    defaults = dict(n_replicas=1, n_clients=1, n_requests=REQUESTS,
                    seed=0)
    defaults.update(kwargs)
    return run_replicated_load(style, **defaults)


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------

@pytest.mark.parametrize("style", [ReplicationStyle.ACTIVE,
                                   ReplicationStyle.WARM_PASSIVE])
def test_results_identical_with_telemetry_on_or_off(style):
    off = _load(style, n_replicas=2, n_clients=2, telemetry=False)
    on = _load(style, n_replicas=2, n_clients=2, telemetry=True)
    assert off.telemetry is None
    assert on.telemetry is not None
    assert on.latency_mean_us == off.latency_mean_us
    assert on.jitter_us == off.jitter_us
    assert on.duration_us == off.duration_us
    assert on.completed == off.completed
    assert on.bandwidth_mbps == off.bandwidth_mbps


# ----------------------------------------------------------------------
# Trace shape
# ----------------------------------------------------------------------

def test_every_request_yields_one_completed_valid_trace():
    result = _load(telemetry=True)
    recorder = result.telemetry
    assert recorder.dropped == 0
    assert recorder.open_spans == 0
    assert len(completed_traces(recorder.spans)) == result.completed
    assert validate_spans(recorder.spans) == []


def test_critical_path_covers_most_of_the_round_trip():
    result = _load(telemetry=True)
    for trace_spans in completed_traces(result.telemetry.spans).values():
        root = next(s for s in trace_spans if s.is_root)
        path = critical_path(trace_spans)
        busy = sum(seg.duration_us for seg in path)
        gaps = sum(seg.gap_us for seg in path)
        # Leaves plus surfaced gaps account for the full round trip
        # (the only untracked remainder is the tail after the last
        # leaf, i.e. the client accept already being a leaf -> ~0).
        assert busy + gaps <= root.duration_us + 1e-6
        assert busy > 0.5 * root.duration_us


def test_style_attribute_reaches_server_spans():
    result = _load(ReplicationStyle.WARM_PASSIVE, telemetry=True)
    aggregates = style_aggregates(result.telemetry.spans)
    assert "warm_passive" in aggregates
    assert aggregates["warm_passive"]["server.process"].count > 0


# ----------------------------------------------------------------------
# Metrics are views over the spans
# ----------------------------------------------------------------------

def test_summary_quantiles_are_nearest_rank_over_root_request_spans():
    result = _load(ReplicationStyle.WARM_PASSIVE, n_replicas=2,
                   n_clients=2, telemetry=True, n_requests=30)
    rounds = sorted(s.duration_us for s in result.telemetry.spans
                    if s.is_root and s.name == "request" and s.finished)
    assert len(rounds) == result.completed == 60
    # The root spans time exactly what the clients observed.
    assert sum(rounds) / len(rounds) == pytest.approx(
        result.latency_mean_us, rel=1e-12)
    summary = telemetry_summary(result.telemetry)
    # Nearest rank: the 30th and the 60th of 60 sorted round trips.
    assert summary["latency_p50_us"] == round(rounds[29], 3)
    assert summary["latency_p99_us"] == round(rounds[59], 3)


def _capped(max_spans):
    from dataclasses import replace

    from repro.sim import default_calibration

    base = default_calibration()
    calibration = replace(base, telemetry=replace(base.telemetry,
                                                  max_spans=max_spans))
    return _load(n_replicas=3, n_clients=2, n_requests=20, seed=1,
                 calibration=calibration, telemetry=True).telemetry


def test_summary_leaves_out_traces_that_lost_spans():
    """A trace whose root finished but which lost spans to
    ``max_spans`` is not a completed round trip in the summary."""
    capped, full = _capped(137), _capped(200_000)
    assert capped.dropped == 43 and full.dropped == 0
    # The span view alone cannot tell: four roots finished, but two of
    # those traces hold 34 and 31 of their 36 spans, which pulls the
    # mean breakdown down (orb 1,507.7 and gcs 1,071.1 us uncapped).
    rooted = completed_traces(capped.spans)
    assert sorted(map(len, rooted.values())) == [31, 34, 36, 36]
    breakdown = component_breakdown(capped.spans)
    assert round(breakdown["orb"], 1) == 1413.6
    assert round(breakdown["group_communication"], 1) == 980.4
    uncapped = component_breakdown(full.spans)
    assert round(uncapped["orb"], 1) == 1507.7
    assert round(uncapped["group_communication"], 1) == 1071.1
    # The summary counts the two whole traces, as they read uncapped.
    whole = {trace_id for trace_id, spans in rooted.items()
             if len(spans) == 36}
    assert capped.dropped_traces.isdisjoint(whole)
    summary = telemetry_summary(capped)
    assert summary["traces_completed"] == 2
    assert summary["breakdown_us"] == {
        component: round(micros, 3) for component, micros in
        component_breakdown(s for s in full.spans
                            if s.trace_id in whole).items()}
    assert set(summary) == set(telemetry_summary(full))


def test_prometheus_text_sums_every_finished_span():
    result = _load(ReplicationStyle.WARM_PASSIVE, n_replicas=2,
                   telemetry=True)
    spans = [s for s in result.telemetry.spans if s.finished]
    series = parse_prometheus_text(prometheus_text(result.telemetry.spans))
    counts = [v for k, v in series.items()
              if k.startswith("span_duration_us_count{")]
    sums = [v for k, v in series.items()
            if k.startswith("span_duration_us_sum{")]
    assert len(counts) == len(sums) == len(series) // 2
    assert sum(counts) == len(spans)
    assert sum(sums) == pytest.approx(sum(s.duration_us for s in spans),
                                      rel=1e-9)


# ----------------------------------------------------------------------
# Propagation invariants under fault injection
# ----------------------------------------------------------------------

def _trial(inject=None, style=ReplicationStyle.ACTIVE, **kwargs):
    defaults = dict(n_replicas=2, n_clients=1, duration_us=300_000.0,
                    rate_per_s=100.0, seed=1, settle_us=400_000.0,
                    telemetry=True)
    defaults.update(kwargs)
    return run_fault_trial(style, inject=inject, **defaults)


def test_trace_invariants_hold_across_replica_crash():
    def crash_backup(ctx):
        ctx.injector.crash_process_at(ctx.replicas[1].process,
                                      ctx.t0 + 100_000.0)

    result = _trial(crash_backup)
    assert result.telemetry is not None
    assert result.metrics()["telemetry"]["traces_completed"] \
        >= result.completed
    # Crash mid-request leaves spans open at worst — never orphaned
    # or cross-wired (validated inside the worker-free trial run).


def test_trace_invariants_hold_under_lost_frames():
    def lossy(ctx):
        ctx.injector.loss_burst(ctx.t0 + 50_000.0, ctx.t0 + 150_000.0,
                                rate=0.4)

    result = _trial(lossy, style=ReplicationStyle.WARM_PASSIVE)
    summary = result.metrics()["telemetry"]
    assert summary["spans"] > 0
    assert summary["dropped"] == 0
    # Lost frames may leave transit spans open, but completed traces
    # still at least match completed requests.
    assert summary["traces_completed"] >= result.completed


def test_validate_spans_clean_after_crash_with_recorder_access():
    """Drive the testbed directly so the recorder is in hand, crash a
    replica mid-run, and assert the span-tree invariants."""
    from dataclasses import replace

    from repro.experiments.testbed import (
        Testbed, deploy_client, deploy_replica_group)
    from repro.faults import FaultInjector
    from repro.orb import BusyServant
    from repro.replication import (
        ClientReplicationConfig, ReplicationConfig)
    from repro.sim import default_calibration
    from repro.workload import ClosedLoopClient

    base = default_calibration()
    calibration = replace(base,
                          telemetry=replace(base.telemetry, enabled=True))
    testbed = Testbed.paper_testbed(2, 1, seed=3, calibration=calibration)
    config = ReplicationConfig(style=ReplicationStyle.ACTIVE, group="svc")
    servants = {"bench": lambda: BusyServant(processing_us=15,
                                             reply_bytes=128,
                                             state_bytes=1024)}
    replicas = deploy_replica_group(testbed, ["s01", "s02"], config,
                                    servants)
    stack = deploy_client(testbed, "w01",
                          ClientReplicationConfig(group="svc"))
    testbed.run(150_000)

    injector = FaultInjector(testbed.sim, testbed.network)
    injector.crash_process_at(replicas[1].process, testbed.now + 20_000.0)
    injector.loss_burst(testbed.now + 10_000.0, testbed.now + 60_000.0,
                        rate=0.3)
    loader = ClosedLoopClient(stack, 30, object_key="bench")
    loader.start()
    testbed.run(3_000_000)

    recorder = testbed.sim.telemetry
    assert recorder.enabled
    assert len(recorder.spans) > 0
    # The hard invariants: no orphans, no cross-wiring, children
    # inside parents — even though some spans stay open.
    assert validate_spans(recorder.spans) == []
    # Completed requests closed their root span.
    assert len(completed_traces(recorder.spans)) >= loader.stats.completed


# ----------------------------------------------------------------------
# Campaign integration
# ----------------------------------------------------------------------

def test_trial_record_gains_telemetry_key_only_when_enabled():
    from repro.experiments.trial import run_fault_trial

    plain = run_fault_trial(ReplicationStyle.ACTIVE, n_replicas=1,
                            n_clients=1, duration_us=100_000.0,
                            rate_per_s=50.0, seed=0,
                            settle_us=200_000.0)
    traced = run_fault_trial(ReplicationStyle.ACTIVE, n_replicas=1,
                             n_clients=1, duration_us=100_000.0,
                             rate_per_s=50.0, seed=0,
                             settle_us=200_000.0, telemetry=True)
    assert "telemetry" not in plain.metrics()
    digest = traced.metrics()["telemetry"]
    assert digest["traces_completed"] == traced.completed
    assert digest["dropped"] == 0
    # Default records stay byte-identical to pre-telemetry trials.
    without = {k: v for k, v in traced.metrics().items()
               if k != "telemetry"}
    assert without == plain.metrics()
