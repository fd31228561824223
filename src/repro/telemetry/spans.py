"""Span model and the trace recorder.

A :class:`Span` is one attributed interval of a request's life —
marshalling on the client CPU, a GCS transit, a daemon hop, servant
execution.  Spans form a tree per trace: the root span covers the
whole round trip, layer spans hang off the root, and daemon-hop spans
hang off the GCS transit span they occur inside.

Spans are the repo's one latency recorder: the paper's Fig. 3
breakdown is a view over them
(:func:`~repro.telemetry.analysis.component_breakdown`).  Two span
kinds exist:

``measured``
    Both endpoints observed from simulated time (CPU job boundaries
    or transit handoff/arrival points).  Most spans are measured.
``charged``
    The layer bills a nominal cost without occupying simulated time
    (e.g. the server replicator's reply redirect, charged while the
    reply is already in flight).  The span is synthesized as
    ``[now, now + cost]`` so the cost still counts towards its
    component.

The enabled recorder is :class:`Telemetry`; the disabled one is the
kernel's ``NullTelemetry`` (see :mod:`repro.sim.kernel` — it lives
there, dependency-free, so the kernel never imports this package).
Every instrumentation site guards on ``telemetry.enabled`` before
doing any work, which keeps the disabled path to one attribute load
and one branch.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.telemetry.context import TraceContext
from repro.telemetry.metrics import MetricsRegistry

#: Root spans and other non-layer spans carry an empty component so
#: they never pollute per-component breakdowns.
NO_COMPONENT = ""

#: The layer components a span is attributed to: the paper's Fig. 3
#: slices, plus plain-TCP wire time (the no-replication baseline).
COMPONENT_APPLICATION = "application"
COMPONENT_ORB = "orb"
COMPONENT_GCS = "group_communication"
COMPONENT_REPLICATOR = "replicator"
COMPONENT_NETWORK = "network"

ALL_COMPONENTS = (
    COMPONENT_APPLICATION,
    COMPONENT_ORB,
    COMPONENT_GCS,
    COMPONENT_REPLICATOR,
    COMPONENT_NETWORK,
)

KIND_MEASURED = "measured"
KIND_CHARGED = "charged"
#: Cross-process transit spans close at the *first* arrival (the
#: client-visible transit time); hops serving slower fan-out replicas
#: keep nesting under them and may legitimately end later.
KIND_TRANSIT = "transit"


@dataclass(slots=True)
class Span:
    """One attributed interval of one trace."""

    span_id: int
    trace_id: str
    parent_id: int  # 0 = root (no parent)
    name: str
    component: str
    host: str
    process: str
    start_us: float
    end_us: Optional[float] = None
    kind: str = KIND_MEASURED
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def finished(self) -> bool:
        return self.end_us is not None

    @property
    def duration_us(self) -> float:
        """Span length (0.0 while still open)."""
        if self.end_us is None:
            return 0.0
        return self.end_us - self.start_us

    @property
    def is_root(self) -> bool:
        return self.parent_id == 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        end = f"{self.end_us:.1f}" if self.finished else "open"
        return (f"<Span #{self.span_id} {self.name} [{self.component}] "
                f"{self.start_us:.1f}..{end} trace={self.trace_id}>")


class Telemetry:
    """The enabled trace recorder: span store + metrics registry.

    One recorder serves one :class:`~repro.sim.kernel.Simulator`.  It
    never schedules events or consumes simulated time — recording is a
    pure observation, so simulation results are byte-identical with
    telemetry on or off (asserted in tests/telemetry).
    """

    enabled = True

    def __init__(self, max_spans: int = 200_000):
        self.max_spans = max_spans
        self.spans: List[Span] = []
        self.dropped = 0
        self.metrics = MetricsRegistry()
        self._open: Dict[int, Span] = {}
        self._ids = itertools.count(1)

    # ------------------------------------------------------------------
    # Span lifecycle
    # ------------------------------------------------------------------
    # Every opener below builds its Span inline (positional fields, the
    # caller's fresh ``**attrs`` dict kept as is): these run ~20 times
    # per request when telemetry is on.  A span past ``max_spans`` is
    # not stored, only counted in ``dropped``.
    def start_trace(self, trace_id: str, name: str = "request",
                    host: str = "", process: str = "",
                    now: float = 0.0,
                    **attrs: Any) -> Optional[TraceContext]:
        """Open a root span; returns the context to propagate."""
        spans = self.spans
        if len(spans) >= self.max_spans:
            self.dropped += 1
            return None
        span_id = next(self._ids)
        span = Span(span_id, trace_id, 0, name, NO_COMPONENT, host,
                    process, now, None, KIND_MEASURED, attrs)
        spans.append(span)
        self._open[span_id] = span
        return TraceContext(trace_id, span_id, span_id)

    def begin(self, ctx: Optional[TraceContext], name: str,
              component: str, host: str = "", process: str = "",
              now: float = 0.0, **attrs: Any) -> Optional[Span]:
        """Open a child span under ``ctx``; close it with :meth:`end`."""
        if ctx is None:
            return None
        spans = self.spans
        if len(spans) >= self.max_spans:
            self.dropped += 1
            return None
        span_id = next(self._ids)
        span = Span(span_id, ctx.trace_id, ctx.span_id, name, component,
                    host, process, now, None, KIND_MEASURED, attrs)
        spans.append(span)
        self._open[span_id] = span
        return span

    def end(self, span: Optional[Span], now: float) -> None:
        """Close an open span (no-op for None or already-closed)."""
        if span is None or span.end_us is not None:
            return
        span.end_us = now
        self._open.pop(span.span_id, None)

    def emit(self, ctx: Optional[TraceContext], name: str,
             component: str, start_us: float, end_us: float,
             host: str = "", process: str = "",
             kind: str = KIND_CHARGED, **attrs: Any) -> Optional[Span]:
        """Record an already-closed span (the *charged* case)."""
        if ctx is None:
            return None
        spans = self.spans
        if len(spans) >= self.max_spans:
            self.dropped += 1
            return None
        span = Span(next(self._ids), ctx.trace_id, ctx.span_id, name,
                    component, host, process, start_us, end_us, kind,
                    attrs)
        spans.append(span)
        return span

    # ------------------------------------------------------------------
    # Cross-process transit spans
    # ------------------------------------------------------------------
    def begin_transit(self, ctx: Optional[TraceContext], name: str,
                      component: str, now: float, host: str = "",
                      process: str = "", **attrs: Any
                      ) -> Tuple[Optional[Span], Optional[TraceContext]]:
        """Open a transit span whose *end* the receiver will observe.

        Returns ``(span, carried_ctx)``; the sender stores the carried
        context on the message so the receiving process can call
        :meth:`finish_inflight` and so hop spans nest under the
        transit span.
        """
        if ctx is None:
            return None, None
        spans = self.spans
        if len(spans) >= self.max_spans:
            self.dropped += 1
            return None, ctx
        span_id = next(self._ids)
        span = Span(span_id, ctx.trace_id, ctx.span_id, name, component,
                    host, process, now, None, KIND_TRANSIT, attrs)
        spans.append(span)
        self._open[span_id] = span
        return span, ctx.in_transit(span_id)

    def finish_inflight(self, ctx: Optional[TraceContext],
                        now: float) -> Optional[Span]:
        """Close the transit span carried by ``ctx``.

        First arrival wins: with active-style fan-out every replica
        receives the same multicast, but only the first close takes
        effect (later calls find the span already closed and no-op).
        """
        if ctx is None or not ctx.inflight:
            return None
        span = self._open.pop(ctx.inflight, None)
        if span is None:
            return None
        span.end_us = now
        return span

    def finish_trace(self, ctx: Optional[TraceContext],
                     now: float) -> Optional[Span]:
        """Close the trace's root span."""
        if ctx is None:
            return None
        span = self._open.pop(ctx.root_id, None)
        if span is None:
            return None
        span.end_us = now
        return span

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def open_spans(self) -> int:
        return len(self._open)

    def traces(self) -> Dict[str, List[Span]]:
        """Spans grouped by trace id, in recording order."""
        grouped: Dict[str, List[Span]] = {}
        for span in self.spans:
            grouped.setdefault(span.trace_id, []).append(span)
        return grouped

    def __len__(self) -> int:
        return len(self.spans)


def spans_by_trace(spans: Iterable[Span]) -> Dict[str, List[Span]]:
    """Group any span iterable by trace id (recording order kept)."""
    grouped: Dict[str, List[Span]] = {}
    for span in spans:
        grouped.setdefault(span.trace_id, []).append(span)
    return grouped
