"""Trace context: the compact token that rides along with a request.

The paper's stack crosses four process boundaries per invocation
(client stub -> interposer/replicator -> GCS daemon hops -> server
servant and back).  To attribute measured time to the right request,
each hop must carry *which trace* it belongs to and *which span* is
its causal parent.  Real CORBA carries such data in GIOP *service
contexts*; this module defines the equivalent for the simulation: a
frozen :class:`TraceContext` stored under a well-known key in a
message's ``service_contexts`` dict (GIOP messages) or exposed via a
``trace_context`` property (GCS frame payload wrappers).

The context is deliberately tiny — the wire representation would be
two 64-bit ids plus a string trace id (:data:`CONTEXT_WIRE_BYTES`).
The simulation does not add it to ``payload_bytes``: the paper's
measurements were taken without tracing enabled, and keeping the
byte accounting identical keeps calibration anchors intact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

#: Key under which the context lives in ``service_contexts`` dicts.
SERVICE_CONTEXT_TRACE = "telemetry.trace"

#: Nominal encoded size of a context (trace id hash + two span ids +
#: flags), documented for the overhead budget in docs/observability.md.
CONTEXT_WIRE_BYTES = 24


@dataclass(frozen=True)
class TraceContext:
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

    def in_transit(self, transit_id: int) -> "TraceContext":
        """Context carried *inside* a transit span: new spans parent to
        the transit span, and the receiver knows which span to close."""
        return TraceContext(self.trace_id, self.root_id, transit_id,
                            transit_id)

    def at_root(self) -> "TraceContext":
        """Context after a hop completed: parent back to the root
        (``self`` when already there)."""
        if self.span_id == self.root_id and not self.inflight:
            return self
        return TraceContext(self.trace_id, self.root_id, self.root_id)


def context_of(message: Any) -> Optional[TraceContext]:
    """Extract the trace context from a GIOP request/reply (or any
    object with a ``service_contexts`` dict); None when absent."""
    contexts = getattr(message, "service_contexts", None)
    if not contexts:
        return None
    ctx = contexts.get(SERVICE_CONTEXT_TRACE)
    return ctx if isinstance(ctx, TraceContext) else None


def set_context(message: Any, ctx: TraceContext) -> None:
    """Install ``ctx`` on a GIOP message's service contexts, making the
    dict on first use (a message without contexts carries None)."""
    if message.service_contexts is None:
        object.__setattr__(message, "service_contexts", {})
    message.service_contexts[SERVICE_CONTEXT_TRACE] = ctx


def payload_context(payload: Any) -> Optional[TraceContext]:
    """Duck-typed context lookup for GCS frame payloads.

    GCS wrappers (Forward/Stamped/Direct/...) expose ``trace_context``
    by delegating to their wrapped replication message, which in turn
    reads the GIOP service contexts.  Control messages (heartbeats,
    acks, view changes) expose nothing and return None.
    """
    ctx = getattr(payload, "trace_context", None)
    return ctx if isinstance(ctx, TraceContext) else None
