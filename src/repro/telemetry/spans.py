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
instrumentation points, and builds a :class:`Span` only when a reader
asks for one.  Each instrumentation point interns its span sites once
(:meth:`Telemetry.site`) and opens spans by site code.
Every instrumentation point guards on ``telemetry.enabled`` before
doing any work, which keeps the disabled path to one attribute load
and one branch.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from math import isnan
from typing import (Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple,
                    Union)

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

#: One interned span site: ``(name, component, host, process, kind,
#: attrs)``, the attrs a tuple of ``(key, value)`` items.
Site = Tuple[str, str, str, str, str, Tuple[Tuple[str, Any], ...]]


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
    """The recorded spans: three 4-byte codes and two doubles per row.

    Only :class:`Telemetry` appends rows; readers see a read-only
    sequence of :class:`Span` values.  A span's id is its row number
    + 1, and its row holds

    - ``trace``: an index into ``trace_ids``;
    - ``parent_id`` (0 for a root span);
    - ``site``: an index into ``sites``, the interned
      ``(name, component, host, process, kind, attrs)`` tuples, the
      attrs a tuple of items (``()`` for none);
    - ``start_us`` and ``end_us``, C doubles (NaN in ``end_us`` marks
      an open span).

    A run records a few hundred sites, so a row costs 28 B plus its
    share of one trace id.  Indexing and iteration build each
    :class:`Span` on demand with a fresh attrs dict, so a reader can
    never alter what was recorded.  ``len()`` reads the columns and
    builds nothing.
    """

    __slots__ = ("trace", "parent_id", "site", "start_us", "end_us",
                 "trace_ids", "sites")

    def __init__(self) -> None:
        self.trace = array("I")
        self.parent_id = array("I")
        self.site = array("I")
        self.start_us = array("d")
        self.end_us = array("d")
        self.trace_ids: List[str] = []
        self.sites: List[Site] = []

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
        name, component, host, process, kind, attrs = \
            self.sites[self.site[i]]
        end = self.end_us[i]
        return Span(i + 1, self.trace_ids[self.trace[i]], self.parent_id[i],
                    name, component, host, process, self.start_us[i],
                    None if end != end else end, kind, dict(attrs))


class Telemetry:
    """The enabled trace recorder: the span store.

    One recorder serves one :class:`~repro.sim.kernel.Simulator`.  It
    never schedules events or consumes simulated time — recording is a
    pure observation, so simulation results are byte-identical with
    telemetry on or off (asserted in tests/telemetry).

    An instrumentation point interns its span site once with
    :meth:`site` and then opens spans by the site's code:
    :meth:`open_trace` for a root span, :meth:`open` for every other
    span.
    """

    enabled = True

    def __init__(self, max_spans: int = 200_000):
        self.max_spans = max_spans
        self.spans = SpanRows()
        self.dropped = 0
        #: The trace ids that lost a span to ``max_spans``.
        self.dropped_traces: Set[str] = set()
        # The code of each trace id and hashable site: the inverses of
        # the tables in ``spans``.  A site's key holds its attr value
        # types, which keep 1, 1.0 and True from sharing.
        self._trace_codes: Dict[str, int] = {}
        self._site_codes: Dict[Tuple[Any, ...], int] = {}

    def site(self, name: str, component: str = NO_COMPONENT,
             host: str = "", process: str = "", kind: str = KIND_MEASURED,
             **attrs: Any) -> int:
        """Intern a span site; returns its code for the openers.

        Equal sites share one code; a site with an unhashable attr
        value gets an entry of its own.
        """
        sites = self.spans.sites
        entry = (name, component, host, process, kind, tuple(attrs.items()))
        key = (entry, tuple(map(type, attrs.values())))
        try:
            return self._site_codes[key]
        except KeyError:
            code = self._site_codes[key] = len(sites)
        except TypeError:  # unhashable: an entry of its own
            code = len(sites)
        sites.append(entry)
        return code

    # ------------------------------------------------------------------
    # Span lifecycle
    # ------------------------------------------------------------------
    # The two openers append a row inline, one column at a time, and
    # run ~20 times per request when telemetry is on, so they call no
    # Python helper.  A span past ``max_spans`` is not stored, only
    # counted in ``dropped`` and its trace noted in ``dropped_traces``.
    def open_trace(self, trace_id: str, site: int,
                   now: float) -> Optional[TraceContext]:
        """Open a root span at ``site``; returns the context to
        propagate (None if the span was dropped)."""
        rows = self.spans
        span_id = len(rows.start_us) + 1
        if span_id > self.max_spans:
            self.dropped += 1
            self.dropped_traces.add(trace_id)
            return None
        code = self._trace_codes.get(trace_id)
        if code is None:  # a new trace, the common case here
            code = self._trace_codes[trace_id] = len(rows.trace_ids)
            rows.trace_ids.append(trace_id)
        rows.trace.append(code)
        rows.parent_id.append(0)
        rows.site.append(site)
        rows.start_us.append(now)
        rows.end_us.append(_OPEN)
        return tuple.__new__(TraceContext, (trace_id, span_id, span_id, 0))

    def open(self, ctx: Optional[TraceContext], site: int, start: float,
             end: float = _OPEN) -> Optional[int]:
        """Open a child span of ``ctx`` at ``site``; returns its id.

        The span stays open until :meth:`end` (or, for a transit span
        whose id the caller carries with ``ctx.in_transit(id)``,
        :meth:`finish_inflight`) closes it; a *charged* span passes its
        ``end`` and is recorded closed.  None if ``ctx`` is None or the
        span was dropped.
        """
        if ctx is None:
            return None
        rows = self.spans
        span_id = len(rows.start_us) + 1
        if span_id > self.max_spans:
            self.dropped += 1
            self.dropped_traces.add(ctx.trace_id)
            return None
        try:
            code = self._trace_codes[ctx.trace_id]
        except KeyError:
            code = self._trace_codes[ctx.trace_id] = len(rows.trace_ids)
            rows.trace_ids.append(ctx.trace_id)
        rows.trace.append(code)
        rows.parent_id.append(ctx.span_id)
        rows.site.append(site)
        rows.start_us.append(start)
        rows.end_us.append(end)
        return span_id

    def end(self, span_id: Optional[int], now: float) -> None:
        """Close an open span (no-op for None or already-closed)."""
        if span_id is None:
            return
        ends = self.spans.end_us
        end = ends[span_id - 1]
        if end != end:  # NaN: still open
            ends[span_id - 1] = now

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
