"""Trace analysis: critical paths and per-layer breakdowns.

The paper's Fig. 3 splits one round trip into application / ORB /
group communication / replicator time.  That split is a view over the
recorded spans, computed only when asked for: the spans recorded at
CPU-job and transit boundaries are reduced to per-component numbers
(:func:`component_breakdown`).

Durations are *exclusive* — a span's children are subtracted — so a
GCS transit span and the daemon-hop spans nested inside it never
double-count the group-communication component.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Dict, Iterable, List, Optional, Tuple

from repro.telemetry.spans import (
    ALL_COMPONENTS,
    KIND_TRANSIT,
    Span,
    spans_by_trace,
)


def exclusive_durations(trace_spans: Iterable[Span]) -> Dict[int, float]:
    """Per-span exclusive time: duration minus finished children."""
    spans = [s for s in trace_spans if s.finished]
    child_time: Dict[int, float] = {}
    for span in spans:
        if span.parent_id:
            child_time[span.parent_id] = (child_time.get(span.parent_id, 0.0)
                                          + span.duration_us)
    return {s.span_id: max(0.0, s.duration_us
                           - child_time.get(s.span_id, 0.0))
            for s in spans}


def trace_component_us(trace_spans: Iterable[Span]) -> Dict[str, float]:
    """Exclusive time per Fig. 3 component for one trace."""
    spans = list(trace_spans)
    exclusive = exclusive_durations(spans)
    totals: Dict[str, float] = {}
    for span in spans:
        if span.component and span.span_id in exclusive:
            totals[span.component] = (totals.get(span.component, 0.0)
                                      + exclusive[span.span_id])
    return totals


def completed_traces(spans: Iterable[Span]) -> Dict[str, List[Span]]:
    """Traces whose root span finished (the round trip completed)."""
    complete: Dict[str, List[Span]] = {}
    for trace_id, trace_spans in spans_by_trace(spans).items():
        roots = [s for s in trace_spans if s.is_root]
        if roots and all(r.finished for r in roots):
            complete[trace_id] = trace_spans
    return complete


def component_breakdown(spans: Iterable[Span]) -> Dict[str, float]:
    """Mean per-request component breakdown over completed traces.

    The reproduction of Fig. 3: keys are
    :data:`~repro.telemetry.spans.ALL_COMPONENTS`, values mean µs per
    completed round trip.  With replica fan-out this sums the work of
    *every* replica that participated (total resource usage); with the
    Fig. 3 configuration (one client, one replica) it is the
    client-visible path.
    """
    complete = completed_traces(spans)
    totals = {component: 0.0 for component in ALL_COMPONENTS}
    for trace_spans in complete.values():
        for component, micros in trace_component_us(trace_spans).items():
            if component in totals:
                totals[component] += micros
    n = len(complete)
    if n == 0:
        return totals
    return {component: micros / n for component, micros in totals.items()}


@dataclass(frozen=True)
class PathSegment:
    """One step of a trace's critical path."""

    span: Span
    #: Idle time between the previous segment's end and this start
    #: (network propagation, IPC waits not covered by any span).
    gap_us: float

    @property
    def start_us(self) -> float:
        return self.span.start_us

    @property
    def duration_us(self) -> float:
        return self.span.duration_us


def critical_path(trace_spans: Iterable[Span]) -> List[PathSegment]:
    """The sequential chain of leaf spans of one trace.

    A request is a single logical token moving through the stack, so
    the critical path is the time-ordered sequence of *leaf* spans
    (spans with no finished children); parent spans only aggregate.
    Gaps between consecutive leaves surface un-instrumented waits.
    """
    spans = [s for s in trace_spans if s.finished]
    has_children = {s.parent_id for s in spans if s.parent_id}
    leaves = sorted((s for s in spans
                     if s.span_id not in has_children and not s.is_root),
                    key=lambda s: (s.start_us, s.span_id))
    path: List[PathSegment] = []
    previous_end: Optional[float] = None
    for span in leaves:
        gap = 0.0
        if previous_end is not None:
            gap = max(0.0, span.start_us - previous_end)
        path.append(PathSegment(span=span, gap_us=gap))
        previous_end = max(previous_end or 0.0, span.end_us or 0.0)
    return path


@dataclass
class SpanStats:
    """Aggregate over one span name (per style)."""

    count: int = 0
    total_us: float = 0.0
    min_us: float = float("inf")
    max_us: float = 0.0

    def add(self, duration_us: float) -> None:
        """Fold one span duration into the running statistics."""
        self.count += 1
        self.total_us += duration_us
        self.min_us = min(self.min_us, duration_us)
        self.max_us = max(self.max_us, duration_us)

    @property
    def mean_us(self) -> float:
        return self.total_us / self.count if self.count else 0.0


def style_aggregates(spans: Iterable[Span]
                     ) -> Dict[str, Dict[str, SpanStats]]:
    """Per-replication-style span aggregates.

    Spans recorded by the server replicator carry a ``style`` attr
    (``active``, ``warm_passive``, ...); spans without one aggregate
    under ``"-"``.  Result: style -> span name -> stats.
    """
    out: Dict[str, Dict[str, SpanStats]] = {}
    for span in spans:
        if not span.finished:
            continue
        style = str(span.attrs.get("style", "-"))
        stats = out.setdefault(style, {}).setdefault(span.name, SpanStats())
        stats.add(span.duration_us)
    return out


def validate_spans(spans: Iterable[Span],
                   epsilon_us: float = 1e-6) -> List[str]:
    """Check propagation invariants; returns human-readable violations.

    Invariants (they must hold even under fault injection — crashes
    and lost frames leave spans *open*, never orphaned or cross-wired):

    - every trace has exactly one root span;
    - every non-root span's parent exists and belongs to the same
      trace (no cross-wiring);
    - a finished child lies within its finished parent's interval —
      except that a child of a *transit* span may end after it:
      transit spans close at the first arrival (the client-visible
      transit time), while hops serving slower fan-out replicas
      continue past that point.
    """
    problems: List[str] = []
    for trace_id, trace_spans in spans_by_trace(spans).items():
        by_id = {s.span_id: s for s in trace_spans}
        roots = [s for s in trace_spans if s.is_root]
        if len(roots) != 1:
            problems.append(f"trace {trace_id}: {len(roots)} root spans")
        for span in trace_spans:
            if span.is_root:
                continue
            parent = by_id.get(span.parent_id)
            if parent is None:
                problems.append(f"trace {trace_id}: span #{span.span_id} "
                                f"({span.name}) parent #{span.parent_id} "
                                f"missing or cross-wired")
                continue
            if span.finished and parent.finished:
                ends_late = (span.end_us > parent.end_us + epsilon_us
                             and parent.kind != KIND_TRANSIT)
                if (span.start_us < parent.start_us - epsilon_us
                        or ends_late):
                    problems.append(
                        f"trace {trace_id}: span #{span.span_id} "
                        f"({span.name}) escapes parent "
                        f"#{parent.span_id} ({parent.name})")
    return problems


def _nearest_rank(ordered: List[float], q: float) -> float:
    """The nearest-rank ``q``-quantile of ascending ``ordered``: the
    smallest value with at least ``q`` of the values at or below it."""
    rank = ceil(q * len(ordered) - 1e-9)
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def telemetry_summary(telemetry) -> Dict[str, object]:
    """Compact JSON-ready summary of a recorder (per-trial payload).

    The latency quantiles are nearest-rank values over the round trips
    of the finished root ``request`` spans.
    """
    spans = list(telemetry.spans)
    complete = completed_traces(spans)
    summary: Dict[str, object] = {
        "spans": len(spans),
        "open_spans": sum(1 for s in spans if not s.finished),
        "dropped": telemetry.dropped,
        "traces": len(spans_by_trace(spans)),
        "traces_completed": len(complete),
        "breakdown_us": {k: round(v, 3)
                         for k, v in component_breakdown(spans).items()},
    }
    latencies = sorted(s.duration_us for s in spans
                       if s.is_root and s.name == "request" and s.finished)
    if latencies:
        summary["latency_p50_us"] = round(_nearest_rank(latencies, 0.50), 3)
        summary["latency_p99_us"] = round(_nearest_rank(latencies, 0.99), 3)
    return summary


def breakdown_table(breakdown: Dict[str, float],
                    reference: Optional[Dict[str, float]] = None
                    ) -> List[Tuple[str, float, Optional[float]]]:
    """Rows for rendering: (component, measured, reference-or-None)."""
    rows: List[Tuple[str, float, Optional[float]]] = []
    for component in ALL_COMPONENTS:
        ref = reference.get(component) if reference else None
        rows.append((component, breakdown.get(component, 0.0), ref))
    return rows
