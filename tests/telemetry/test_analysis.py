"""Unit tests for trace analysis on hand-built span trees."""

import pytest

from repro.telemetry import (
    Telemetry,
    completed_traces,
    component_breakdown,
    critical_path,
    exclusive_durations,
    style_aggregates,
    telemetry_summary,
    trace_component_us,
    validate_spans,
)


def _toy_trace(t: Telemetry, trace_id: str = "req-1"):
    """One request: root > [orb 10us, transit 100us > hop 20us]."""
    ctx = t.start_trace(trace_id, host="w01", process="client", now=0.0)
    orb = t.begin(ctx, "marshal", "orb", now=0.0)
    t.end(orb, 10.0)
    transit, carried = t.begin_transit(ctx, "gcs.request",
                                       "group_communication", 10.0)
    hop = t.begin(carried, "gcsd.process", "group_communication",
                  now=40.0, style="active")
    t.end(hop, 60.0)
    t.finish_inflight(carried, 110.0)
    t.finish_trace(ctx, 110.0)
    return ctx, orb, transit, hop


def test_exclusive_durations_subtract_children():
    t = Telemetry()
    ctx, orb, transit, hop = _toy_trace(t)
    exclusive = exclusive_durations(t.spans)
    # Transit 100us minus the nested 20us hop.
    assert exclusive[transit] == pytest.approx(80.0)
    assert exclusive[hop] == pytest.approx(20.0)
    # Root 110us minus orb (10) + transit (100) = 0.
    assert exclusive[ctx.root_id] == pytest.approx(0.0)


def test_trace_component_us_skips_rootless_component():
    t = Telemetry()
    _toy_trace(t)
    per_component = trace_component_us(t.spans)
    # Root has NO component, so only the named layers appear and the
    # nested hop never double-counts its parent transit.
    assert per_component == {"orb": pytest.approx(10.0),
                             "group_communication": pytest.approx(100.0)}


def test_component_breakdown_averages_completed_traces_only():
    t = Telemetry()
    _toy_trace(t, "req-1")
    _toy_trace(t, "req-2")
    dangling = t.start_trace("req-3", now=0.0)  # never finished
    assert dangling is not None
    assert set(completed_traces(t.spans)) == {"req-1", "req-2"}
    breakdown = component_breakdown(t.spans)
    assert breakdown["orb"] == pytest.approx(10.0)
    assert breakdown["group_communication"] == pytest.approx(100.0)
    assert breakdown["application"] == 0.0


def test_critical_path_is_leaf_chain_with_gaps():
    t = Telemetry()
    _toy_trace(t)
    path = critical_path(t.spans)
    names = [segment.span.name for segment in path]
    # Leaves in time order; the transit span is a parent (hop nests
    # inside it) so it does not appear.
    assert names == ["marshal", "gcsd.process"]
    assert path[0].gap_us == 0.0
    # 30us of un-instrumented wire time between marshal end (10) and
    # the daemon hop start (40).
    assert path[1].gap_us == pytest.approx(30.0)


def test_style_aggregates_group_by_style_attr():
    t = Telemetry()
    _toy_trace(t)
    aggregates = style_aggregates(t.spans)
    assert aggregates["active"]["gcsd.process"].count == 1
    assert aggregates["active"]["gcsd.process"].mean_us == pytest.approx(20.0)
    assert "marshal" in aggregates["-"]


def test_validate_spans_clean_trace():
    t = Telemetry()
    _toy_trace(t)
    assert validate_spans(t.spans) == []


def test_validate_spans_flags_cross_wiring_and_escapes():
    from repro.telemetry import Span
    spans = [
        Span(span_id=1, trace_id="a", parent_id=0, name="root",
             component="", host="", process="", start_us=0.0, end_us=10.0),
        # Parent id 99 does not exist in trace "a".
        Span(span_id=2, trace_id="a", parent_id=99, name="lost",
             component="orb", host="", process="", start_us=1.0, end_us=2.0),
        # Child escapes its parent's interval.
        Span(span_id=3, trace_id="a", parent_id=1, name="late",
             component="orb", host="", process="", start_us=5.0, end_us=20.0),
        # Second root in trace "b" plus the real one.
        Span(span_id=4, trace_id="b", parent_id=0, name="root",
             component="", host="", process="", start_us=0.0, end_us=1.0),
        Span(span_id=5, trace_id="b", parent_id=0, name="root2",
             component="", host="", process="", start_us=0.0, end_us=1.0),
    ]
    problems = validate_spans(spans)
    assert any("cross-wired" in p for p in problems)
    assert any("escapes" in p for p in problems)
    assert any("2 root spans" in p for p in problems)


def test_validate_spans_allows_children_outliving_transit_parents():
    """First-arrival-wins closes a transit span while slower fan-out
    replicas' hops are still running; that is not a violation."""
    t = Telemetry()
    ctx = t.start_trace("req-1", now=0.0)
    transit, carried = t.begin_transit(ctx, "gcs.request",
                                       "group_communication", 0.0)
    fast = t.begin(carried, "gcsd.process", "group_communication", now=10.0)
    t.end(fast, 20.0)
    t.finish_inflight(carried, 30.0)  # first replica arrived
    slow = t.begin(carried, "gcsd.process", "group_communication", now=40.0)
    t.end(slow, 60.0)  # ends after the transit span closed
    t.finish_trace(ctx, 100.0)
    assert t.spans[transit - 1].kind == "transit"
    assert validate_spans(t.spans) == []


def test_telemetry_summary_shape():
    t = Telemetry()
    _toy_trace(t)
    summary = telemetry_summary(t)
    assert summary["spans"] == 4
    assert summary["open_spans"] == 0
    assert summary["dropped"] == 0
    assert summary["traces"] == 1
    assert summary["traces_completed"] == 1
    assert summary["breakdown_us"]["orb"] == pytest.approx(10.0)
    # One 110 us round trip: every quantile is that round trip.
    assert summary["latency_p50_us"] == 110.0
    assert summary["latency_p99_us"] == 110.0


def test_telemetry_summary_quantiles_are_nearest_rank():
    t = Telemetry()
    for i, length in enumerate([40.0, 10.0, 30.0, 20.0]):
        ctx = t.start_trace(f"req-{i}", now=0.0)
        t.finish_trace(ctx, length)
    t.start_trace("req-open", now=0.0)  # an open round trip is no sample
    t.finish_trace(t.start_trace("sw", name="switch", now=0.0), 99.0)
    summary = telemetry_summary(t)
    assert summary["latency_p50_us"] == 20.0
    assert summary["latency_p99_us"] == 40.0
    assert "latency_p50_us" not in telemetry_summary(Telemetry())
