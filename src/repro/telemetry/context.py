"""Trace context: the compact token that rides along with a request.

The paper's stack crosses four process boundaries per invocation
(client stub -> interposer/replicator -> GCS daemon hops -> server
servant and back).  To attribute measured time to the right request,
each hop must carry *which trace* it belongs to and *which span* is
its causal parent.  Real CORBA carries such data in GIOP *service
contexts*; this module defines the equivalent for the simulation: an
immutable :class:`TraceContext` held in each GIOP message's ``trace``
field (``None`` while untraced) and exposed to the GCS daemons via a
``trace_context`` property of the frame payload wrappers.

The context is deliberately tiny — the wire representation would be
two 64-bit ids plus a string trace id (:data:`CONTEXT_WIRE_BYTES`).
The simulation does not add it to ``payload_bytes``: the paper's
measurements were taken without tracing enabled, and keeping the
byte accounting identical keeps calibration anchors intact.
"""

from __future__ import annotations

from typing import NamedTuple

#: Nominal encoded size of a context (trace id hash + two span ids +
#: flags), documented for the overhead budget in docs/observability.md.
CONTEXT_WIRE_BYTES = 24


class TraceContext(NamedTuple):
    """Immutable trace token propagated across hops.

    ``trace_id``
        The request id of the originating invocation; all spans of one
        logical request (including per-replica forks) share it.
    ``root_id``
        Span id of the trace's root span (the whole round trip).
    ``span_id``
        Causal parent for spans opened under this context.
    ``inflight``
        Id of an open *transit* span (a cross-process interval whose
        end is observed by the receiver), or 0 when none is pending.
    """

    trace_id: str
    root_id: int
    span_id: int
    inflight: int = 0

    # The moves build their result with ``tuple.__new__``, which skips
    # the generated keyword-taking ``__new__`` (about half the cost).
    def in_transit(self, transit_id: int) -> "TraceContext":
        """Context carried *inside* a transit span: new spans parent to
        the transit span, and the receiver knows which span to close."""
        return _new(TraceContext, (self.trace_id, self.root_id, transit_id,
                                   transit_id))

    def at_root(self) -> "TraceContext":
        """Context after a hop completed: parent back to the root
        (``self`` when already there)."""
        if self.span_id == self.root_id and not self.inflight:
            return self
        return _new(TraceContext, (self.trace_id, self.root_id,
                                   self.root_id, 0))


_new = tuple.__new__
