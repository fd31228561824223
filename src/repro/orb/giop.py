"""GIOP-like request/reply messages of the miniature ORB.

Sizes are modelled explicitly: ``payload_bytes`` is the marshalled
argument/result size and the transport adds the GIOP header.

``service_contexts`` models GIOP's service-context list: out-of-band
key/value metadata that middleware layers attach without the
application noticing.  The telemetry layer stores its trace context
there (see :mod:`repro.telemetry.context`); replies inherit the
request's contexts so the trace survives the round trip.  A message
without contexts carries ``None``: with telemetry off, none has a dict.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Optional


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
    service_contexts: Optional[Dict[str, Any]] = field(default=None,
                                                       compare=False)

    def __post_init__(self) -> None:
        if self.payload_bytes < 0:
            raise ValueError("payload_bytes must be non-negative")

    def fork(self) -> "GiopRequest":
        """Copy for fan-out to replicas.

        Service contexts are copied (each replica updates its own
        trace context independently of its siblings).
        """
        contexts = self.service_contexts
        return GiopRequest(self.request_id, self.object_key,
                           self.operation, self.payload,
                           self.payload_bytes, self.oneway,
                           self.started_at,
                           dict(contexts) if contexts else None)


@dataclass(frozen=True, slots=True)
class GiopReply:
    """One marshalled result."""

    request_id: str
    status: ReplyStatus
    payload: Any
    payload_bytes: int
    service_contexts: Optional[Dict[str, Any]] = field(default=None,
                                                       compare=False)

    def __post_init__(self) -> None:
        if self.payload_bytes < 0:
            raise ValueError("payload_bytes must be non-negative")
