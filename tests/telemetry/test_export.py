"""Exporter round-trip tests (the acceptance gate for the formats)."""

import csv
import io

import pytest

from repro.telemetry import (
    Telemetry,
    chrome_trace_json,
    parse_chrome_trace,
    parse_prometheus_text,
    prometheus_text,
    spans_to_csv,
    to_chrome_trace,
)


def _record_spans() -> Telemetry:
    t = Telemetry()
    ctx = t.start_trace("req-1", host="w01", process="client", now=0.0)
    span = t.begin(ctx, "marshal", "orb", host="w01", process="client",
                   now=0.0, operation="add")
    t.end(span, 12.5)
    t.emit(ctx, "redirect", "replicator", 12.5, 44.5, host="w01",
           process="client")
    t.begin(ctx, "dangling", "orb", now=50.0)  # stays open
    t.finish_trace(ctx, 100.0)
    return t


class TestChromeTrace:
    def test_round_trip(self):
        t = _record_spans()
        events = parse_chrome_trace(chrome_trace_json(t.spans))
        # Open spans are skipped; root + marshal + redirect survive.
        assert len(events) == 3
        by_name = {e["name"]: e for e in events}
        assert by_name["marshal"]["dur"] == 12.5
        assert by_name["marshal"]["cat"] == "orb"
        assert by_name["marshal"]["args"]["operation"] == "add"
        assert by_name["request"]["args"]["parent_id"] == 0
        assert all(e["ph"] == "X" for e in events)
        assert all(e["pid"] == "w01" for e in events)

    def test_envelope(self):
        document = to_chrome_trace(_record_spans().spans)
        assert document["displayTimeUnit"] == "ms"

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_chrome_trace("not json")
        with pytest.raises(ValueError):
            parse_chrome_trace("{}")
        with pytest.raises(ValueError):
            parse_chrome_trace('{"traceEvents": [{"name": "x"}]}')
        with pytest.raises(ValueError):
            parse_chrome_trace(
                '{"traceEvents": [{"name": "x", "ph": "X", "ts": 0,'
                ' "pid": "p", "tid": "t"}]}')  # complete event, no dur


class TestPrometheus:
    def test_round_trip(self):
        t = _record_spans()
        ctx = t.start_trace("req-2", host="w01", process="client", now=0.0)
        t.emit(ctx, "redirect", "replicator", 1.0, 3.0, host="w01",
               process="client")
        t.finish_trace(ctx, 50.0)
        series = parse_prometheus_text(prometheus_text(t.spans))
        labels = 'component="replicator",host="w01",name="redirect",' \
                 'process="client"'
        assert series[f"span_duration_us_count{{{labels}}}"] == 2.0
        assert series[f"span_duration_us_sum{{{labels}}}"] == 34.0
        root = 'component="",host="w01",name="request",process="client"'
        assert series[f"span_duration_us_count{{{root}}}"] == 2.0
        assert series[f"span_duration_us_sum{{{root}}}"] == 150.0
        # The open span is no sample.
        assert not any('name="dangling"' in key for key in series)

    def test_type_lines(self):
        text = prometheus_text(_record_spans().spans)
        assert text.startswith("# TYPE span_duration_us summary\n")
        assert text.count("# TYPE") == 1

    def test_parse_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("not a metric line at all!")
        with pytest.raises(ValueError):
            parse_prometheus_text("metric_name not_a_number")

    def test_parse_skips_comments_and_blanks(self):
        assert parse_prometheus_text("# HELP x\n\nx 1\n") == {"x": 1.0}


class TestCsv:
    def test_header_and_rows(self):
        t = _record_spans()
        rows = list(csv.DictReader(io.StringIO(spans_to_csv(t.spans))))
        assert len(rows) == 4  # open spans ARE exported (empty end)
        marshal = next(r for r in rows if r["name"] == "marshal")
        assert marshal["component"] == "orb"
        assert float(marshal["duration_us"]) == 12.5
        dangling = next(r for r in rows if r["name"] == "dangling")
        assert dangling["end_us"] == ""
        assert dangling["duration_us"] == ""
