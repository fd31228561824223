"""Unit tests for the span recorder lifecycle."""

import pytest

from repro.sim import NULL_TELEMETRY, Simulator
from repro.telemetry import Telemetry, TraceContext, spans_by_trace
from repro.telemetry.spans import (
    KIND_CHARGED,
    KIND_MEASURED,
    KIND_TRANSIT,
    Span,
)


def test_start_trace_opens_root():
    t = Telemetry()
    root = t.site("request", host="w01", process="client")
    ctx = t.open_trace("req-1", root, 10.0)
    assert isinstance(ctx, TraceContext)
    assert ctx.trace_id == "req-1"
    assert ctx.root_id == ctx.span_id
    assert ctx.inflight == 0
    root = t.spans[0]
    assert root.is_root and not root.finished
    assert root.start_us == 10.0
    assert (root.name, root.host, root.process) == ("request", "w01",
                                                    "client")
    assert t.open_spans == 1


def test_begin_end_child_span():
    t = Telemetry()
    ctx = t.open_trace("req-1", t.site("request"), 0.0)
    span_id = t.open(ctx, t.site("marshal", "orb", operation="add"), 5.0)
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
    site = t.site("x", "orb")
    assert t.open(None, site, 0.0) is None
    assert t.open(None, site, 0.0, 1.0) is None
    assert t.finish_inflight(None, 1.0) is None
    assert t.finish_trace(None, 1.0) is None
    t.end(None, 1.0)
    assert len(t) == 0


def test_emit_records_closed_charged_span():
    t = Telemetry()
    ctx = t.open_trace("req-1", t.site("request"), 0.0)
    redirect = t.site("redirect", "replicator", kind=KIND_CHARGED)
    span = t.spans[t.open(ctx, redirect, 10.0, 42.0) - 1]
    assert span.finished and span.kind == KIND_CHARGED
    assert span.duration_us == 32.0
    assert t.open_spans == 1  # only the root stays open


def test_transit_round_trip():
    t = Telemetry()
    ctx = t.open_trace("req-1", t.site("request"), 0.0)
    span_id = t.open(ctx, t.site("gcs.request", "gcs", kind=KIND_TRANSIT),
                     100.0)
    carried = ctx.in_transit(span_id)
    assert carried.inflight == span_id
    assert carried.span_id == span_id  # hops nest under transit
    assert t.spans[span_id - 1].kind == KIND_TRANSIT
    # Receiver-side hop span parents to the transit span.
    hop = t.open(carried, t.site("gcsd.process", "gcs"), 120.0)
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
    ctx = t.open_trace("req-1", t.site("request"), 0.0)
    assert t.finish_trace(ctx, 500.0) == ctx.root_id
    root = t.spans[0]
    assert root.finished and root.duration_us == 500.0
    assert t.finish_trace(ctx, 600.0) is None
    assert t.open_spans == 0


def test_capacity_drop_counts_and_traces():
    t = Telemetry(max_spans=2)
    request, orb = t.site("request"), t.site("a", "orb")
    ctx = t.open_trace("req-1", request, 0.0)
    t.open(ctx, orb, 1.0)
    assert t.open(ctx, orb, 2.0) is None  # over capacity
    assert t.open_trace("req-2", request, 3.0) is None
    assert t.open(ctx, t.site("c", "gcs", kind=KIND_TRANSIT), 4.0) is None
    assert t.dropped == 3
    assert len(t) == 2
    # Each drop notes its trace: a trace missing spans is not whole.
    assert t.dropped_traces == {"req-1", "req-2"}


def test_traces_grouping():
    t = Telemetry()
    request = t.site("request")
    a = t.open_trace("a", request, 0.0)
    b = t.open_trace("b", request, 0.0)
    t.open(a, t.site("x", "orb"), 1.0)
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
    request = t.site("request")
    ctx = t.open_trace("req-1", request, 0.0)
    assert t.open_trace("req-2", request, 1.0) is None
    assert t.open(ctx, t.site("a", "orb"), 2.0) is None
    assert t.open(ctx, t.site("b", "replicator", kind=KIND_CHARGED),
                  3.0, 4.0) is None
    assert t.dropped == 3
    assert len(t) == 1 and t.open_spans == 1


def test_context_moves_match_dataclass_replace():
    ctx = TraceContext("req-1", root_id=7, span_id=7)
    carried = ctx.in_transit(9)
    assert carried == ctx._replace(span_id=9, inflight=9)
    assert carried.at_root() == carried._replace(span_id=7, inflight=0)
    assert carried.at_root() == ctx
    assert ctx.at_root() is ctx  # already rooted: no new object
    nested = TraceContext("req-1", root_id=7, span_id=8)
    assert nested.at_root() == nested._replace(span_id=7, inflight=0)
    # A context parked on its root but still carrying a transit id is
    # not rooted: at_root() clears the transit.
    parked = TraceContext("req-1", root_id=7, span_id=7, inflight=9)
    assert parked.at_root() == ctx and parked.at_root() is not parked
    # The context is an immutable tuple.
    with pytest.raises(AttributeError):
        ctx.span_id = 8


def _exported_round_trip() -> Telemetry:
    t = Telemetry()
    ctx = t.open_trace("req-1", t.site("request", host="w01",
                                       process="client"), 0.0)
    span = t.open(ctx, t.site("marshal", "orb", "w01", "client",
                              operation="add"), 0.0)
    t.end(span, 12.5)
    transit = t.open(ctx, t.site("gcs.request", "gcs", "w01", "client",
                                 KIND_TRANSIT), 12.5)
    carried = ctx.in_transit(transit)
    t.open(carried, t.site("gcsd.ipc", "gcs", "s01", "gcsd", KIND_CHARGED),
           20.0, 22.0)
    t.finish_inflight(carried, 30.0)
    t.open(carried.at_root(), t.site("redirect", "replicator", "s01", "srv",
                                     KIND_CHARGED, style="active"),
           30.0, 34.5)
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
    ctx = t.open_trace("req-1", t.site("request"), 0.0)
    t.end(t.open(ctx, t.site("a", "orb"), 1.0), 2.0)
    t.open(ctx, t.site("b", "orb"), 3.0)
    assert t.open(ctx, t.site("c", "replicator", kind=KIND_CHARGED),
                  4.0, 5.0) is None
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
    ctx = t.open_trace("req-1", t.site("request"), 0.0)
    codes = [t.site("x", "orb", style="active", shard=1) for _ in range(2)]
    codes.append(t.site("x", "orb", style="active", shard=True))
    codes.append(t.site("x", "orb", style="active", shard=1.0))
    # Equal sites share a code; 1, True and 1.0 are equal and hash
    # alike, but each keeps a site (and its type) of its own.
    assert codes == [1, 1, 2, 3]
    for now, code in enumerate(codes, start=1):
        t.open(ctx, code, float(now), float(now))
    rows = t.spans
    # The root's site carries no attrs: ``()``.
    assert rows.sites[0] == ("request", "", "", "", KIND_MEASURED, ())
    assert rows.sites[1] == ("x", "orb", "", "", KIND_MEASURED,
                             (("style", "active"), ("shard", 1)))
    assert [type(s.attrs["shard"]) for s in t.spans[1:]] == [
        int, int, bool, float]
    # An unhashable attr gets a site of its own, never shared.
    hops = [t.site("y", "orb", hops=["a", "b"]) for _ in range(2)]
    assert hops == [4, 5]
    for now, code in zip((5.0, 6.0), hops):
        t.open(ctx, code, now, now)
    assert list(rows.site[-2:]) == hops
    assert t.spans[-1].attrs == {"hops": ["a", "b"]}
    assert t.spans[-1].attrs is not t.spans[-1].attrs


def test_rows_are_fixed_width_codes_into_tables():
    t = Telemetry()
    request = t.site("request", host="w01", process="client")
    a = t.open_trace("req-1", request, 0.0)
    b = t.open_trace("req-2", request, 1.0)
    for ctx in (a, b, a):
        t.end(t.open(ctx, t.site("marshal", "orb", host="w01"), 2.0), 3.0)
    rows = t.spans
    assert rows.trace_ids == ["req-1", "req-2"]
    assert list(rows.trace) == [0, 1, 0, 1, 0]
    assert rows.sites == [
        ("request", "", "w01", "client", KIND_MEASURED, ()),
        ("marshal", "orb", "w01", "", KIND_MEASURED, ())]
    assert list(rows.site) == [0, 0, 1, 1, 1]
    assert list(rows.parent_id) == [0, 0, 1, 2, 1]
    codes = (rows.trace, rows.parent_id, rows.site)
    assert [column.itemsize for column in codes] == [4, 4, 4]
    assert rows.start_us.itemsize == rows.end_us.itemsize == 8
    assert not hasattr(rows, "attrs") and not hasattr(rows, "payloads")


def test_retained_bytes_per_span():
    """The recorder keeps three 4-byte codes and two doubles per span:
    ~41 B per span retained (~42 B with an attrs code column, ~88 B
    with a pointer per column, ~310 B with a Span object per span)."""
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
    assert (on - off) / n_spans <= 48
