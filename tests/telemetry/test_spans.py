"""Unit tests for the span recorder lifecycle."""

from repro.sim import NULL_TELEMETRY, Simulator
from repro.telemetry import Telemetry, TraceContext, spans_by_trace
from repro.telemetry.spans import KIND_CHARGED, KIND_MEASURED


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
    span = t.begin(ctx, "marshal", "orb", now=5.0, operation="add")
    assert span.parent_id == ctx.root_id
    assert span.attrs == {"operation": "add"}
    assert span.kind == KIND_MEASURED
    t.end(span, 8.0)
    assert span.duration_us == 3.0
    t.end(span, 99.0)  # double-close is a no-op
    assert span.end_us == 8.0


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
    span = t.emit(ctx, "redirect", "replicator", 10.0, 42.0)
    assert span.finished and span.kind == KIND_CHARGED
    assert span.duration_us == 32.0
    assert t.open_spans == 1  # only the root stays open


def test_transit_round_trip():
    t = Telemetry()
    ctx = t.start_trace("req-1", now=0.0)
    span, carried = t.begin_transit(ctx, "gcs.request", "gcs", 100.0)
    assert carried.inflight == span.span_id
    assert carried.span_id == span.span_id  # hops nest under transit
    # Receiver-side hop span parents to the transit span.
    hop = t.begin(carried, "gcsd.process", "gcs", now=120.0)
    assert hop.parent_id == span.span_id
    t.end(hop, 140.0)
    closed = t.finish_inflight(carried, 150.0)
    assert closed is span and span.end_us == 150.0
    # First arrival wins: a second replica's close is a no-op.
    assert t.finish_inflight(carried, 200.0) is None
    assert span.end_us == 150.0
    back_at_root = carried.at_root()
    assert back_at_root.span_id == ctx.root_id
    assert back_at_root.inflight == 0


def test_finish_trace_closes_root():
    t = Telemetry()
    ctx = t.start_trace("req-1", now=0.0)
    root = t.finish_trace(ctx, 500.0)
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
