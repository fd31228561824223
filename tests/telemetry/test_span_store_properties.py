"""The coded span store reads back what a plain list of spans would.

A hypothesis state machine drives random sequences of the recorder's
seven calls against :class:`Telemetry` and against a naive recorder
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

    def _add(self, *fields):
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            return None
        *head, attrs = fields
        self.spans.append(Span(len(self.spans) + 1, *head, dict(attrs)))
        return len(self.spans)

    def _close(self, span_id, now):
        span = self.spans[span_id - 1]
        if span.end_us is not None:
            return None
        span.end_us = now
        return span_id

    def start_trace(self, trace_id, name, host, process, now, attrs):
        span_id = self._add(trace_id, 0, name, NO_COMPONENT, host, process,
                            now, None, KIND_MEASURED, attrs)
        return None if span_id is None else TraceContext(
            trace_id, span_id, span_id)

    def begin(self, ctx, name, component, host, process, now, attrs):
        if ctx is None:
            return None
        return self._add(ctx.trace_id, ctx.span_id, name, component, host,
                         process, now, None, KIND_MEASURED, attrs)

    def emit(self, ctx, name, component, start, end, host, process, kind,
             attrs):
        if ctx is None:
            return None
        return self._add(ctx.trace_id, ctx.span_id, name, component, host,
                         process, start, end, kind, attrs)

    def begin_transit(self, ctx, name, component, now, host, process,
                      attrs):
        if ctx is None:
            return None, None
        span_id = self._add(ctx.trace_id, ctx.span_id, name, component,
                            host, process, now, None, KIND_TRANSIT, attrs)
        return span_id, ctx if span_id is None else ctx.in_transit(span_id)

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
times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
payloads = st.dictionaries(st.sampled_from(("shard", "hops")),
                           st.sampled_from(VALUES), max_size=2)


def typed(spans):
    """Spans with the type of each attr value beside it: equality
    alone cannot tell 1 from True."""
    return [(span, [(key, type(value)) for key, value in span.attrs.items()])
            for span in spans]


class SpanStoreMachine(RuleBasedStateMachine):
    contexts = Bundle("contexts")
    span_ids = Bundle("span_ids")

    @initialize(max_spans=st.integers(min_value=1, max_value=24))
    def make(self, max_spans):
        self.store = Telemetry(max_spans=max_spans)
        self.naive = NaiveRecorder(max_spans)

    @rule(target=contexts, trace_id=st.sampled_from(("r1", "r2", "r3")),
          name=names, host=hosts, process=processes, now=times,
          attrs=payloads)
    def start_trace(self, trace_id, name, host, process, now, attrs):
        got = self.store.start_trace(trace_id, name, host, process, now,
                                     **attrs)
        assert got == self.naive.start_trace(trace_id, name, host, process,
                                             now, attrs)
        return got

    @rule(target=span_ids, ctx=contexts, name=names, component=components,
          host=hosts, process=processes, now=times, attrs=payloads)
    def begin(self, ctx, name, component, host, process, now, attrs):
        got = self.store.begin(ctx, name, component, host, process, now,
                               **attrs)
        assert got == self.naive.begin(ctx, name, component, host, process,
                                       now, attrs)
        return got

    @rule(target=span_ids, ctx=contexts, name=names, component=components,
          start=times, end=times, host=hosts, process=processes,
          kind=st.sampled_from((KIND_CHARGED, KIND_MEASURED, KIND_TRANSIT)),
          attrs=payloads)
    def emit(self, ctx, name, component, start, end, host, process, kind,
             attrs):
        got = self.store.emit(ctx, name, component, start, end, host,
                              process, kind, **attrs)
        assert got == self.naive.emit(ctx, name, component, start, end,
                                      host, process, kind, attrs)
        return got

    @rule(target=contexts, ctx=contexts, name=names, component=components,
          now=times, host=hosts, process=processes, attrs=payloads)
    def begin_transit(self, ctx, name, component, now, host, process,
                      attrs):
        got = self.store.begin_transit(ctx, name, component, now, host,
                                       process, **attrs)
        assert got == self.naive.begin_transit(ctx, name, component, now,
                                               host, process, attrs)
        return got[1]

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
        assert self.store.open_spans == sum(
            not span.finished for span in self.naive.spans)


SpanStoreMachine.TestCase.settings = settings(max_examples=150,
                                              stateful_step_count=40,
                                              deadline=None)
test_span_store_matches_a_list_of_spans = SpanStoreMachine.TestCase
