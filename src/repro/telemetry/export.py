"""Telemetry exporters: Chrome trace-event JSON, Prometheus text, CSV.

Each exporter has a matching parser so tests can round-trip the
output — the acceptance gate for the formats — and so downstream
tooling can consume the files without this package:

- ``chrome`` output loads in Perfetto / ``chrome://tracing`` (the
  JSON *trace event format*, complete-event ``"ph": "X"`` records);
- ``prometheus`` output follows the text exposition format: one
  ``summary`` family of span durations (``# TYPE`` comment, ``_count``
  and ``_sum`` series);
- CSV mirrors the :mod:`repro.tools.export` conventions.
"""

from __future__ import annotations

import csv
import io
import json
import re
from typing import Dict, Iterable, List, Optional, TextIO

from repro.telemetry.spans import Span

# ----------------------------------------------------------------------
# Chrome trace events (Perfetto-loadable)
# ----------------------------------------------------------------------

def to_chrome_trace(spans: Iterable[Span]) -> Dict[str, object]:
    """Build the trace-event dict for a span set.

    Open spans are skipped (the format needs complete intervals).
    ``pid`` is the host, ``tid`` the process — Perfetto then renders
    one track per simulated process, which is exactly the paper's
    deployment diagram.
    """
    events: List[Dict[str, object]] = []
    for span in spans:
        if not span.finished:
            continue
        args: Dict[str, object] = {
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "kind": span.kind,
        }
        args.update(span.attrs)
        events.append({
            "name": span.name,
            "cat": span.component or "trace",
            "ph": "X",
            "ts": span.start_us,
            "dur": span.duration_us,
            "pid": span.host or "sim",
            "tid": span.process or span.host or "sim",
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def chrome_trace_json(spans: Iterable[Span],
                      out: Optional[TextIO] = None) -> str:
    """Serialize spans as trace-event JSON; returns the text."""
    text = json.dumps(to_chrome_trace(spans), indent=1, sort_keys=True)
    if out is not None:
        out.write(text)
    return text


def parse_chrome_trace(text: str) -> List[Dict[str, object]]:
    """Parse trace-event JSON back into its event list.

    Validates the envelope and the fields every complete event must
    carry; raises ``ValueError`` on malformed input.
    """
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not JSON: {exc}") from exc
    if not isinstance(document, dict) or "traceEvents" not in document:
        raise ValueError("missing traceEvents envelope")
    events = document["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("traceEvents must be a list")
    for i, event in enumerate(events):
        for key in ("name", "ph", "ts", "pid", "tid"):
            if key not in event:
                raise ValueError(f"event {i} missing {key!r}")
        if event["ph"] == "X" and "dur" not in event:
            raise ValueError(f"complete event {i} missing 'dur'")
    return events


# ----------------------------------------------------------------------
# Prometheus text exposition format
# ----------------------------------------------------------------------

def _render_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    rendered = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return "{" + rendered + "}"


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


#: The one Prometheus family: span durations in µs.
SPAN_FAMILY = "span_duration_us"


def prometheus_text(spans: Iterable[Span],
                    out: Optional[TextIO] = None) -> str:
    """Render span durations in the Prometheus text format.

    One ``summary`` family: per (name, component, host, process), the
    ``_count`` of finished spans and the ``_sum`` of their durations.
    Open spans are skipped.
    """
    totals: Dict[tuple, List[float]] = {}
    for span in spans:
        if span.finished:
            key = (span.name, span.component, span.host, span.process)
            total = totals.setdefault(key, [0, 0.0])
            total[0] += 1
            total[1] += span.duration_us
    lines = [f"# TYPE {SPAN_FAMILY} summary"]
    for (name, component, host, process), (count, sum_us) in sorted(
            totals.items()):
        labels = _render_labels({"name": name, "component": component,
                                 "host": host, "process": process})
        lines.append(f"{SPAN_FAMILY}_count{labels} {count}")
        lines.append(f"{SPAN_FAMILY}_sum{labels} {_format_value(sum_us)}")
    text = "\n".join(lines) + "\n"
    if out is not None:
        out.write(text)
    return text


_SERIES_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?\s+(?P<value>\S+)$")
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus_text(text: str) -> Dict[str, float]:
    """Parse the text exposition format into ``series -> value``.

    Keys are the canonical series strings (name plus sorted label
    set, e.g. ``x_count{host="s01",name="request"}``); raises
    ``ValueError`` on malformed lines.
    """
    series: Dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _SERIES_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: not a metric line: {raw!r}")
        labels: Dict[str, str] = dict(
            (k, v) for k, v in _LABEL_RE.findall(match.group("labels") or ""))
        try:
            value = float(match.group("value"))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value: {raw!r}") from exc
        key = match.group("name") + _render_labels(labels)
        series[key] = value
    return series


# ----------------------------------------------------------------------
# CSV
# ----------------------------------------------------------------------

SPAN_COLUMNS = ("trace_id", "span_id", "parent_id", "name", "component",
                "host", "process", "start_us", "end_us", "duration_us",
                "kind")


def spans_to_csv(spans: Iterable[Span],
                 out: Optional[TextIO] = None) -> str:
    """Write spans as CSV (open spans get an empty ``end_us``)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(SPAN_COLUMNS)
    for span in spans:
        writer.writerow([
            span.trace_id, span.span_id, span.parent_id, span.name,
            span.component, span.host, span.process,
            f"{span.start_us:.3f}",
            f"{span.end_us:.3f}" if span.finished else "",
            f"{span.duration_us:.3f}" if span.finished else "",
            span.kind])
    text = buffer.getvalue()
    if out is not None:
        out.write(text)
    return text
