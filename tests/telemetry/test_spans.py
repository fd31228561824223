"""Unit tests for the span recorder lifecycle."""

import pytest

from repro.sim import NULL_TELEMETRY, Simulator
from repro.telemetry import Telemetry, TraceContext, spans_by_trace
from repro.telemetry.spans import KIND_CHARGED, KIND_MEASURED, Span


def test_start_trace_opens_root():
    t = Telemetry()
    ctx = t.start_trace("req-1", host="w01", process="client", now=10.0)
    assert isinstance(ctx, TraceContext)
    assert ctx.trace_id == "req-1"
    assert ctx.root_id == ctx.span_id
    assert ctx.inflight == 0
    root = t.spans[0]
    assert root.is_root and not root.finished
    assert root.start_us == 10.0
    assert t.open_spans == 1


def test_begin_end_child_span():
    t = Telemetry()
    ctx = t.start_trace("req-1", now=0.0)
    span_id = t.begin(ctx, "marshal", "orb", now=5.0, operation="add")
    assert span_id == 2
    span = t.spans[span_id - 1]
    assert span.span_id == span_id and span.parent_id == ctx.root_id
    assert span.attrs == {"operation": "add"}
    assert span.kind == KIND_MEASURED and not span.finished
    t.end(span_id, 8.0)
    assert t.spans[1].duration_us == 3.0
    t.end(span_id, 99.0)  # double-close is a no-op
    assert t.spans[1].end_us == 8.0


def test_none_context_is_safe_everywhere():
    t = Telemetry()
    assert t.begin(None, "x", "orb") is None
    assert t.emit(None, "x", "orb", 0.0, 1.0) is None
    assert t.begin_transit(None, "x", "gcs", 0.0) == (None, None)
    assert t.finish_inflight(None, 1.0) is None
    assert t.finish_trace(None, 1.0) is None
    t.end(None, 1.0)
    assert len(t) == 0


def test_emit_records_closed_charged_span():
    t = Telemetry()
    ctx = t.start_trace("req-1", now=0.0)
    span = t.spans[t.emit(ctx, "redirect", "replicator", 10.0, 42.0) - 1]
    assert span.finished and span.kind == KIND_CHARGED
    assert span.duration_us == 32.0
    assert t.open_spans == 1  # only the root stays open


def test_transit_round_trip():
    t = Telemetry()
    ctx = t.start_trace("req-1", now=0.0)
    span_id, carried = t.begin_transit(ctx, "gcs.request", "gcs", 100.0)
    assert carried.inflight == span_id
    assert carried.span_id == span_id  # hops nest under transit
    # Receiver-side hop span parents to the transit span.
    hop = t.begin(carried, "gcsd.process", "gcs", now=120.0)
    assert t.spans[hop - 1].parent_id == span_id
    t.end(hop, 140.0)
    assert t.finish_inflight(carried, 150.0) == span_id
    assert t.spans[span_id - 1].end_us == 150.0
    # First arrival wins: a second replica's close is a no-op.
    assert t.finish_inflight(carried, 200.0) is None
    assert t.spans[span_id - 1].end_us == 150.0
    back_at_root = carried.at_root()
    assert back_at_root.span_id == ctx.root_id
    assert back_at_root.inflight == 0


def test_finish_trace_closes_root():
    t = Telemetry()
    ctx = t.start_trace("req-1", now=0.0)
    assert t.finish_trace(ctx, 500.0) == ctx.root_id
    root = t.spans[0]
    assert root.finished and root.duration_us == 500.0
    assert t.finish_trace(ctx, 600.0) is None
    assert t.open_spans == 0


def test_capacity_drop_counts_and_traces():
    t = Telemetry(max_spans=2)
    ctx = t.start_trace("req-1", now=0.0)
    t.begin(ctx, "a", "orb", now=1.0)
    assert t.begin(ctx, "b", "orb", now=2.0) is None  # over capacity
    assert t.start_trace("req-2", now=3.0) is None
    span, carried = t.begin_transit(ctx, "c", "gcs", 4.0)
    assert span is None
    assert carried is ctx  # context keeps propagating undisturbed
    assert t.dropped == 3
    assert len(t) == 2


def test_traces_grouping():
    t = Telemetry()
    a = t.start_trace("a", now=0.0)
    b = t.start_trace("b", now=0.0)
    t.begin(a, "x", "orb", now=1.0)
    grouped = t.traces()
    assert set(grouped) == {"a", "b"}
    assert len(grouped["a"]) == 2
    assert spans_by_trace(t.spans) == grouped
    assert b.trace_id == "b"


def test_null_telemetry_is_disabled_and_inert():
    sim = Simulator(seed=0)
    assert sim.telemetry is NULL_TELEMETRY
    assert not sim.telemetry.enabled
    assert getattr(sim.telemetry, "metrics", None) is None


def test_every_opener_counts_a_drop_at_capacity():
    t = Telemetry(max_spans=1)
    ctx = t.start_trace("req-1", now=0.0)
    assert t.start_trace("req-2", now=1.0) is None
    assert t.begin(ctx, "a", "orb", now=2.0) is None
    assert t.emit(ctx, "b", "replicator", 3.0, 4.0) is None
    assert t.begin_transit(ctx, "c", "gcs", 5.0) == (None, ctx)
    assert t.dropped == 4
    assert len(t) == 1 and t.open_spans == 1


def test_context_moves_match_dataclass_replace():
    from dataclasses import replace
    ctx = TraceContext("req-1", root_id=7, span_id=7)
    carried = ctx.in_transit(9)
    assert carried == replace(ctx, span_id=9, inflight=9)
    assert carried.at_root() == replace(carried, span_id=7, inflight=0)
    assert carried.at_root() == ctx
    assert ctx.at_root() is ctx  # already rooted: no new object
    nested = TraceContext("req-1", root_id=7, span_id=8)
    assert nested.at_root() == replace(nested, span_id=7, inflight=0)
    # A context parked on its root but still carrying a transit id is
    # not rooted: at_root() clears the transit.
    parked = TraceContext("req-1", root_id=7, span_id=7, inflight=9)
    assert parked.at_root() == ctx and parked.at_root() is not parked


def _exported_round_trip() -> Telemetry:
    t = Telemetry()
    ctx = t.start_trace("req-1", host="w01", process="client", now=0.0)
    span = t.begin(ctx, "marshal", "orb", host="w01", process="client",
                   now=0.0, operation="add")
    t.end(span, 12.5)
    _, carried = t.begin_transit(ctx, "gcs.request", "gcs", 12.5,
                                 host="w01", process="client")
    t.emit(carried, "gcsd.ipc", "gcs", 20.0, 22.0, host="s01",
           process="gcsd")
    t.finish_inflight(carried, 30.0)
    t.emit(carried.at_root(), "redirect", "replicator", 30.0, 34.5,
           host="s01", process="srv", style="active")
    t.finish_trace(ctx, 100.0)
    return t


def test_span_exports_are_pinned():
    """The exporters see a Span only through its fields: the slotted,
    positionally built span must export byte for byte as before."""
    import hashlib

    from repro.telemetry import chrome_trace_json, spans_to_csv
    from repro.telemetry.analysis import validate_spans

    spans = _exported_round_trip().spans
    chrome = chrome_trace_json(spans).encode()
    assert hashlib.sha256(chrome).hexdigest() == (
        "a9d859aafa61b7fa1899827690e70db1a451adb5066e3547cb326064876809bb")
    assert spans_to_csv(spans) == (
        "trace_id,span_id,parent_id,name,component,host,process,"
        "start_us,end_us,duration_us,kind\r\n"
        "req-1,1,0,request,,w01,client,0.000,100.000,100.000,measured\r\n"
        "req-1,2,1,marshal,orb,w01,client,0.000,12.500,12.500,measured\r\n"
        "req-1,3,1,gcs.request,gcs,w01,client,12.500,30.000,17.500,"
        "transit\r\n"
        "req-1,4,3,gcsd.ipc,gcs,s01,gcsd,20.000,22.000,2.000,charged\r\n"
        "req-1,5,1,redirect,replicator,s01,srv,30.000,34.500,4.500,"
        "charged\r\n")
    assert validate_spans(spans) == []


def test_span_rows_are_a_read_only_view():
    t = _exported_round_trip()
    spans = t.spans
    assert not hasattr(spans, "append")
    assert [s.span_id for s in spans] == [1, 2, 3, 4, 5]
    assert spans[-1] == spans[4] and spans[-1].attrs == {"style": "active"}
    assert [s.span_id for s in spans[1:3]] == [2, 3]
    with pytest.raises(IndexError):
        spans[5]
    # Every read builds a fresh Span with a fresh attrs dict: changing
    # it does not change what was recorded.
    spans[4].attrs["style"] = "changed"
    spans[4].end_us = 0.0
    assert spans[4].attrs == {"style": "active"}
    assert spans[4].end_us == 34.5
    assert list(spans) == [spans[i] for i in range(len(spans))]


def test_counts_build_no_span(monkeypatch):
    from repro.telemetry import spans as spans_module

    t = Telemetry(max_spans=3)
    ctx = t.start_trace("req-1", now=0.0)
    t.end(t.begin(ctx, "a", "orb", now=1.0), 2.0)
    t.begin(ctx, "b", "orb", now=3.0)
    assert t.emit(ctx, "c", "replicator", 4.0, 5.0) is None
    built = []

    def counting_span(*fields):
        built.append(fields)
        return Span(*fields)

    monkeypatch.setattr(spans_module, "Span", counting_span)
    assert len(t.spans) == 3 and len(t) == 3
    assert t.open_spans == 2
    assert t.dropped == 1
    assert built == []
    assert t.spans[2].name == "b"  # the probe does see a build
    assert len(built) == 1


def test_attrs_payloads_are_stored_once_and_typed():
    t = Telemetry()
    ctx = t.start_trace("req-1", now=0.0)
    for now in (1.0, 2.0):
        t.emit(ctx, "x", "orb", now, now, style="active", shard=1)
    t.emit(ctx, "x", "orb", 3.0, 3.0, style="active", shard=True)
    t.emit(ctx, "x", "orb", 4.0, 4.0, style="active", shard=1.0)
    rows = t.spans
    # Code 0 is the empty payload: the root carries no attrs.
    assert list(rows.attrs) == [0, 1, 1, 2, 3]
    assert rows.payloads[0] == ()
    assert rows.payloads[1] == (("style", "active"), ("shard", 1))
    # 1, True and 1.0 are equal and hash alike; they keep their type.
    assert [type(s.attrs["shard"]) for s in t.spans[1:]] == [
        int, int, bool, float]
    # An unhashable payload gets an entry of its own, never shared.
    for now in (5.0, 6.0):
        t.emit(ctx, "y", "orb", now, now, hops=["a", "b"])
    assert list(rows.attrs[-2:]) == [4, 5]
    assert t.spans[-1].attrs == {"hops": ["a", "b"]}
    assert t.spans[-1].attrs is not t.spans[-1].attrs


def test_rows_are_fixed_width_codes_into_tables():
    t = Telemetry()
    a = t.start_trace("req-1", host="w01", process="client", now=0.0)
    b = t.start_trace("req-2", host="w01", process="client", now=1.0)
    for ctx in (a, b, a):
        t.end(t.begin(ctx, "marshal", "orb", host="w01", now=2.0), 3.0)
    rows = t.spans
    assert rows.trace_ids == ["req-1", "req-2"]
    assert list(rows.trace) == [0, 1, 0, 1, 0]
    assert rows.sites == [
        ("request", "", "w01", "client", KIND_MEASURED),
        ("marshal", "orb", "w01", "", KIND_MEASURED)]
    assert list(rows.site) == [0, 0, 1, 1, 1]
    assert list(rows.parent_id) == [0, 0, 1, 2, 1]
    codes = (rows.trace, rows.parent_id, rows.site, rows.attrs)
    assert [column.itemsize for column in codes] == [4, 4, 4, 4]
    assert rows.start_us.itemsize == rows.end_us.itemsize == 8


def test_retained_bytes_per_span():
    """The recorder keeps four 4-byte codes and two doubles per span:
    ~42 B per span retained (~88 B with a pointer per column, ~310 B
    with a Span object per span)."""
    import gc
    import tracemalloc

    from repro.cluster import run_cluster_load

    def retained(telemetry: bool):
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = run_cluster_load(
                n_shards=2, n_clients=4, n_requests=40, n_server_hosts=3,
                seed=1, telemetry=telemetry)
            gc.collect()
            return tracemalloc.get_traced_memory()[0] - before, result
        finally:
            tracemalloc.stop()

    # Warm up imports and caches outside the measurement.
    run_cluster_load(n_shards=1, n_clients=1, n_requests=2,
                     n_server_hosts=3, seed=1, telemetry=True)
    off, _ = retained(False)
    on, result = retained(True)
    n_spans = len(result.telemetry.spans)
    assert n_spans > 3000 and result.telemetry.dropped == 0
    assert (on - off) / n_spans <= 60
