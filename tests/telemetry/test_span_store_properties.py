"""The coded span store reads back what a plain list of spans would.

A hypothesis state machine drives random sequences of the recorder's
calls (interning sites, opening root, child, charged and transit spans,
closing them) against :class:`Telemetry` and against a naive recorder
that keeps one :class:`Span` per call, and compares every return value
and, after every step, every span read back, the counts and the drops.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.telemetry import Telemetry, TraceContext
from repro.telemetry.spans import (
    KIND_CHARGED,
    KIND_MEASURED,
    KIND_TRANSIT,
    NO_COMPONENT,
    Span,
)


class NaiveRecorder:
    """The recorder's contract over a list of Span objects."""

    def __init__(self, max_spans: int):
        self.max_spans = max_spans
        self.spans = []
        self.dropped = 0
        self.dropped_traces = set()
        #: Every site asked for, in order: its fields, its attrs and
        #: whether they can be shared.
        self.sites = []

    def site(self, name, component, host, process, kind, attrs):
        """The code a site gets: that of an equal earlier site (values
        and their types alike) unless an attr value is unhashable."""
        fields = (name, component, host, process, kind)
        typed_attrs = [(key, value, type(value))
                       for key, value in attrs.items()]
        try:
            hash(tuple(attrs.values()))
            shared = True
        except TypeError:
            shared = False
        if shared:
            for code, site in enumerate(self.sites):
                if site == (fields, typed_attrs, True):
                    return code
        self.sites.append((fields, typed_attrs, shared))
        return len(self.sites) - 1

    def _add(self, trace_id, parent_id, site, start, end):
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            self.dropped_traces.add(trace_id)
            return None
        (name, component, host, process, kind), attrs, _ = self.sites[site]
        self.spans.append(Span(len(self.spans) + 1, trace_id, parent_id,
                               name, component, host, process, start, end,
                               kind, {key: value
                                      for key, value, _ in attrs}))
        return len(self.spans)

    def _close(self, span_id, now):
        span = self.spans[span_id - 1]
        if span.end_us is not None:
            return None
        span.end_us = now
        return span_id

    def open_trace(self, trace_id, site, now):
        span_id = self._add(trace_id, 0, site, now, None)
        return None if span_id is None else TraceContext(
            trace_id, span_id, span_id)

    def open(self, ctx, site, start, end):
        if ctx is None:
            return None
        return self._add(ctx.trace_id, ctx.span_id, site, start, end)

    def end(self, span_id, now):
        if span_id is not None:
            self._close(span_id, now)

    def finish_inflight(self, ctx, now):
        if ctx is None or not ctx.inflight:
            return None
        return self._close(ctx.inflight, now)

    def finish_trace(self, ctx, now):
        return None if ctx is None else self._close(ctx.root_id, now)


#: 1, 1.0 and True are equal and hash alike; a list and a dict are
#: unhashable.
VALUES = (1, 1.0, True, 0, False, "active", None, (1, 2), ["a"], {"k": 1})

names = st.sampled_from(("request", "marshal", "gcs.request"))
components = st.sampled_from((NO_COMPONENT, "orb", "group_communication"))
hosts = st.sampled_from(("", "w01", "s02"))
processes = st.sampled_from(("", "client", "gcsd"))
kinds = st.sampled_from((KIND_MEASURED, KIND_CHARGED, KIND_TRANSIT))
times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
payloads = st.dictionaries(st.sampled_from(("shard", "hops")),
                           st.sampled_from(VALUES), max_size=2)


def typed(spans):
    """Spans with the type of each attr value beside it: equality
    alone cannot tell 1 from True."""
    return [(span, [(key, type(value)) for key, value in span.attrs.items()])
            for span in spans]


class SpanStoreMachine(RuleBasedStateMachine):
    sites = Bundle("sites")
    contexts = Bundle("contexts")
    span_ids = Bundle("span_ids")

    @initialize(max_spans=st.integers(min_value=1, max_value=24))
    def make(self, max_spans):
        self.store = Telemetry(max_spans=max_spans)
        self.naive = NaiveRecorder(max_spans)

    @rule(target=sites, name=names, component=components, host=hosts,
          process=processes, kind=kinds, attrs=payloads)
    def site(self, name, component, host, process, kind, attrs):
        got = self.store.site(name, component, host, process, kind,
                              **attrs)
        assert got == self.naive.site(name, component, host, process, kind,
                                      attrs)
        return got

    @rule(target=sites, name=names, value=st.sampled_from(VALUES))
    def site_per_value(self, name, value):
        """The shape of an instrumentation point's per-value sites:
        fixed fields, one attr whose value varies."""
        return self.site(name, "orb", "w01", "client", KIND_MEASURED,
                         {"shard": value})

    @rule(target=contexts, trace_id=st.sampled_from(("r1", "r2", "r3")),
          site=sites, now=times)
    def open_trace(self, trace_id, site, now):
        got = self.store.open_trace(trace_id, site, now)
        assert got == self.naive.open_trace(trace_id, site, now)
        return got

    @rule(target=span_ids, ctx=contexts, site=sites, start=times)
    def open(self, ctx, site, start):
        got = self.store.open(ctx, site, start)
        assert got == self.naive.open(ctx, site, start, None)
        return got

    @rule(target=span_ids, ctx=contexts, site=sites, start=times, end=times)
    def open_charged(self, ctx, site, start, end):
        got = self.store.open(ctx, site, start, end)
        assert got == self.naive.open(ctx, site, start, end)
        return got

    @rule(target=contexts, ctx=contexts, site=sites, now=times)
    def open_transit(self, ctx, site, now):
        """A transit span: an open, then the context it carries (the
        context itself when the span was dropped)."""
        got = self.store.open(ctx, site, now)
        assert got == self.naive.open(ctx, site, now, None)
        if ctx is None or got is None:
            return ctx
        return ctx.in_transit(got)

    @rule(span_id=span_ids, now=times)
    def end(self, span_id, now):
        self.store.end(span_id, now)
        self.naive.end(span_id, now)

    @rule(ctx=contexts, now=times)
    def finish_inflight(self, ctx, now):
        assert (self.store.finish_inflight(ctx, now)
                == self.naive.finish_inflight(ctx, now))

    @rule(ctx=contexts, now=times)
    def finish_trace(self, ctx, now):
        assert (self.store.finish_trace(ctx, now)
                == self.naive.finish_trace(ctx, now))

    @invariant()
    def reads_back_as_the_naive_list(self):
        spans = self.store.spans
        assert len(spans) == len(self.store) == len(self.naive.spans)
        assert typed(spans) == typed(self.naive.spans)
        assert self.store.dropped == self.naive.dropped
        assert self.store.dropped_traces == self.naive.dropped_traces
        assert self.store.open_spans == sum(
            not span.finished for span in self.naive.spans)


SpanStoreMachine.TestCase.settings = settings(max_examples=150,
                                              stateful_step_count=40,
                                              deadline=None)
test_span_store_matches_a_list_of_spans = SpanStoreMachine.TestCase
