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
The recorder stores no :class:`Span` objects: it keeps one row per
span in typed columns (:class:`SpanRows`), hands span ids to the
instrumentation sites, and builds a :class:`Span` only when a reader
asks for one.
Every instrumentation site guards on ``telemetry.enabled`` before
doing any work, which keeps the disabled path to one attribute load
and one branch.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from math import isnan
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.telemetry.context import TraceContext

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

#: The end time of a span that is still open.
_OPEN = float("nan")


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


class SpanRows(Sequence[Span]):
    """The recorded spans, one row each in parallel typed columns.

    Only :class:`Telemetry` appends rows; readers see a read-only
    sequence of :class:`Span` values.  A span's id is its row number
    + 1, start and end times are C doubles (NaN in ``end_us`` marks an
    open span), and ``attrs`` holds each distinct payload once, as a
    shared tuple of items, or ``None`` when empty.  Indexing and
    iteration build each :class:`Span` on demand with a fresh attrs
    dict, so a reader can never alter what was recorded.  ``len()``
    reads the columns and builds nothing.
    """

    __slots__ = ("trace_id", "parent_id", "name", "component", "host",
                 "process", "start_us", "end_us", "kind", "attrs")

    def __init__(self) -> None:
        self.trace_id: List[str] = []
        self.parent_id = array("q")
        self.name: List[str] = []
        self.component: List[str] = []
        self.host: List[str] = []
        self.process: List[str] = []
        self.start_us = array("d")
        self.end_us = array("d")
        self.kind: List[str] = []
        self.attrs: List[Any] = []

    def __len__(self) -> int:
        return len(self.start_us)

    def __getitem__(self, index: Union[int, slice]
                    ) -> Union[Span, List[Span]]:
        rows = range(len(self.start_us))[index]
        if isinstance(index, slice):
            return [self._span(i) for i in rows]
        return self._span(rows)

    def __iter__(self) -> Iterator[Span]:
        for i in range(len(self.start_us)):
            yield self._span(i)

    def _span(self, i: int) -> Span:
        end = self.end_us[i]
        attrs = self.attrs[i]
        return Span(i + 1, self.trace_id[i], self.parent_id[i],
                    self.name[i], self.component[i], self.host[i],
                    self.process[i], self.start_us[i],
                    None if end != end else end, self.kind[i],
                    {} if attrs is None else dict(attrs))


class Telemetry:
    """The enabled trace recorder: the span store.

    One recorder serves one :class:`~repro.sim.kernel.Simulator`.  It
    never schedules events or consumes simulated time — recording is a
    pure observation, so simulation results are byte-identical with
    telemetry on or off (asserted in tests/telemetry).
    """

    enabled = True

    def __init__(self, max_spans: int = 200_000):
        self.max_spans = max_spans
        self.spans = SpanRows()
        self.dropped = 0
        # (items, value types) -> the one shared items tuple; the
        # types keep 1, 1.0 and True from sharing a payload.
        self._payloads: Dict[Tuple[Any, ...], Tuple[Any, ...]] = {}

    # ------------------------------------------------------------------
    # Span lifecycle
    # ------------------------------------------------------------------
    # Every opener below appends its row inline, one column at a time,
    # and returns the new span's id: these run ~20 times per request
    # when telemetry is on, so they call no Python helper.  A span past
    # ``max_spans`` is not stored, only counted in ``dropped``.
    def start_trace(self, trace_id: str, name: str = "request",
                    host: str = "", process: str = "",
                    now: float = 0.0,
                    **attrs: Any) -> Optional[TraceContext]:
        """Open a root span; returns the context to propagate."""
        rows = self.spans
        span_id = len(rows.start_us) + 1
        if span_id > self.max_spans:
            self.dropped += 1
            return None
        if attrs:
            items = tuple(attrs.items())
            try:
                attrs = self._payloads.setdefault(
                    (items, tuple(map(type, attrs.values()))), items)
            except TypeError:  # an unhashable value: keep the dict
                pass
        else:
            attrs = None
        rows.trace_id.append(trace_id)
        rows.parent_id.append(0)
        rows.name.append(name)
        rows.component.append(NO_COMPONENT)
        rows.host.append(host)
        rows.process.append(process)
        rows.start_us.append(now)
        rows.end_us.append(_OPEN)
        rows.kind.append(KIND_MEASURED)
        rows.attrs.append(attrs)
        return TraceContext(trace_id, span_id, span_id)

    def begin(self, ctx: Optional[TraceContext], name: str,
              component: str, host: str = "", process: str = "",
              now: float = 0.0, **attrs: Any) -> Optional[int]:
        """Open a child span under ``ctx``; close it with :meth:`end`."""
        if ctx is None:
            return None
        rows = self.spans
        span_id = len(rows.start_us) + 1
        if span_id > self.max_spans:
            self.dropped += 1
            return None
        if attrs:
            items = tuple(attrs.items())
            try:
                attrs = self._payloads.setdefault(
                    (items, tuple(map(type, attrs.values()))), items)
            except TypeError:  # an unhashable value: keep the dict
                pass
        else:
            attrs = None
        rows.trace_id.append(ctx.trace_id)
        rows.parent_id.append(ctx.span_id)
        rows.name.append(name)
        rows.component.append(component)
        rows.host.append(host)
        rows.process.append(process)
        rows.start_us.append(now)
        rows.end_us.append(_OPEN)
        rows.kind.append(KIND_MEASURED)
        rows.attrs.append(attrs)
        return span_id

    def end(self, span_id: Optional[int], now: float) -> None:
        """Close an open span (no-op for None or already-closed)."""
        if span_id is None:
            return
        ends = self.spans.end_us
        end = ends[span_id - 1]
        if end != end:  # NaN: still open
            ends[span_id - 1] = now

    def emit(self, ctx: Optional[TraceContext], name: str,
             component: str, start_us: float, end_us: float,
             host: str = "", process: str = "",
             kind: str = KIND_CHARGED, **attrs: Any) -> Optional[int]:
        """Record an already-closed span (the *charged* case)."""
        if ctx is None:
            return None
        rows = self.spans
        span_id = len(rows.start_us) + 1
        if span_id > self.max_spans:
            self.dropped += 1
            return None
        if attrs:
            items = tuple(attrs.items())
            try:
                attrs = self._payloads.setdefault(
                    (items, tuple(map(type, attrs.values()))), items)
            except TypeError:  # an unhashable value: keep the dict
                pass
        else:
            attrs = None
        rows.trace_id.append(ctx.trace_id)
        rows.parent_id.append(ctx.span_id)
        rows.name.append(name)
        rows.component.append(component)
        rows.host.append(host)
        rows.process.append(process)
        rows.start_us.append(start_us)
        rows.end_us.append(end_us)
        rows.kind.append(kind)
        rows.attrs.append(attrs)
        return span_id

    # ------------------------------------------------------------------
    # Cross-process transit spans
    # ------------------------------------------------------------------
    def begin_transit(self, ctx: Optional[TraceContext], name: str,
                      component: str, now: float, host: str = "",
                      process: str = "", **attrs: Any
                      ) -> Tuple[Optional[int], Optional[TraceContext]]:
        """Open a transit span whose *end* the receiver will observe.

        Returns ``(span_id, carried_ctx)``; the sender stores the
        carried context on the message so the receiving process can
        call :meth:`finish_inflight` and so hop spans nest under the
        transit span.
        """
        if ctx is None:
            return None, None
        rows = self.spans
        span_id = len(rows.start_us) + 1
        if span_id > self.max_spans:
            self.dropped += 1
            return None, ctx
        if attrs:
            items = tuple(attrs.items())
            try:
                attrs = self._payloads.setdefault(
                    (items, tuple(map(type, attrs.values()))), items)
            except TypeError:  # an unhashable value: keep the dict
                pass
        else:
            attrs = None
        rows.trace_id.append(ctx.trace_id)
        rows.parent_id.append(ctx.span_id)
        rows.name.append(name)
        rows.component.append(component)
        rows.host.append(host)
        rows.process.append(process)
        rows.start_us.append(now)
        rows.end_us.append(_OPEN)
        rows.kind.append(KIND_TRANSIT)
        rows.attrs.append(attrs)
        return span_id, ctx.in_transit(span_id)

    def finish_inflight(self, ctx: Optional[TraceContext],
                        now: float) -> Optional[int]:
        """Close the transit span carried by ``ctx``; returns its id.

        First arrival wins: with active-style fan-out every replica
        receives the same multicast, but only the first close takes
        effect (later calls find the span already closed and return
        None).
        """
        if ctx is None or not ctx.inflight:
            return None
        span_id = ctx.inflight
        ends = self.spans.end_us
        end = ends[span_id - 1]
        if end == end:  # not NaN: already closed
            return None
        ends[span_id - 1] = now
        return span_id

    def finish_trace(self, ctx: Optional[TraceContext],
                     now: float) -> Optional[int]:
        """Close the trace's root span; returns its id (None if the
        root was already closed)."""
        if ctx is None:
            return None
        span_id = ctx.root_id
        ends = self.spans.end_us
        end = ends[span_id - 1]
        if end == end:  # not NaN: already closed
            return None
        ends[span_id - 1] = now
        return span_id

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def open_spans(self) -> int:
        return sum(map(isnan, self.spans.end_us))

    def traces(self) -> Dict[str, List[Span]]:
        """Spans grouped by trace id, in recording order."""
        return spans_by_trace(self.spans)

    def __len__(self) -> int:
        return len(self.spans)


def spans_by_trace(spans: Iterable[Span]) -> Dict[str, List[Span]]:
    """Group any span iterable by trace id (recording order kept)."""
    grouped: Dict[str, List[Span]] = {}
    for span in spans:
        grouped.setdefault(span.trace_id, []).append(span)
    return grouped
