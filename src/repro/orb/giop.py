"""GIOP-like request/reply messages of the miniature ORB.

Sizes are modelled explicitly: ``payload_bytes`` is the marshalled
argument/result size and the transport adds the GIOP header.

``trace`` models the one GIOP service context this ORB uses: the
telemetry trace context (see :mod:`repro.telemetry.context`), which
middleware layers attach without the application noticing.  It is
``None`` while the request is untraced.  A reply starts from its
request's trace, so the trace survives the round trip.  The messages
are frozen; the layers that move a trace along write the field with
``object.__setattr__``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.telemetry.context import TraceContext


class ReplyStatus(enum.Enum):
    """Outcome classification of a GIOP reply."""
    OK = "ok"
    EXCEPTION = "exception"
    NO_SUCH_OBJECT = "no_such_object"


@dataclass(frozen=True, slots=True)
class GiopRequest:
    """One marshalled invocation."""

    request_id: str
    object_key: str
    operation: str
    payload: Any
    payload_bytes: int
    oneway: bool = False
    #: Simulated instant the client ORB built the request: every
    #: round-trip latency is measured from here.
    started_at: Optional[float] = field(default=None, compare=False)
    trace: Optional[TraceContext] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.payload_bytes < 0:
            raise ValueError("payload_bytes must be non-negative")

    def fork(self) -> "GiopRequest":
        """Copy for fan-out to replicas.

        The copy starts from the same (immutable) trace context; each
        replica then moves its own copy's trace independently of its
        siblings.
        """
        return GiopRequest(self.request_id, self.object_key,
                           self.operation, self.payload,
                           self.payload_bytes, self.oneway,
                           self.started_at, self.trace)


@dataclass(frozen=True, slots=True)
class GiopReply:
    """One marshalled result."""

    request_id: str
    status: ReplyStatus
    payload: Any
    payload_bytes: int
    trace: Optional[TraceContext] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.payload_bytes < 0:
            raise ValueError("payload_bytes must be non-negative")
