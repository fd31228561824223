"""Client-side ORB: marshalling, invocation, reply correlation."""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Optional, Tuple

from repro.errors import OrbError
from repro.orb.giop import GiopReply, GiopRequest
from repro.orb.transport import ClientTransport
from repro.sim.config import OrbCalibration
from repro.sim.host import Process
from repro.telemetry.spans import COMPONENT_ORB


class OrbClient:
    """Invokes operations on a remote object through a transport.

    The transport may be the plain TCP one (baseline) or any of the
    interposed/replicated ones — the client code is identical either
    way, which is the paper's transparency requirement.
    """

    def __init__(self, process: Process, transport: ClientTransport,
                 calibration: Optional[OrbCalibration] = None):
        self.process = process
        self.sim = process.sim
        self.transport = transport
        self.cal = calibration or OrbCalibration()
        self._request_ids = itertools.count(1)
        #: Span site codes, interned on the first traced call: the
        #: root site per operation, and the marshal / demarshal sites.
        self._root_sites: Dict[str, int] = {}
        self._sites: Optional[Tuple[int, int]] = None

    def invoke(self, object_key: str, operation: str, payload: Any,
               payload_bytes: int, on_reply: Callable[[GiopReply], None],
               oneway: bool = False) -> str:
        """Marshal and send one invocation; ``on_reply`` fires with the
        demarshalled reply (never fires for oneway calls).

        Returns the request id (useful for tracing).
        """
        if payload_bytes < 0:
            raise OrbError("payload_bytes must be non-negative")
        if not self.process.alive:
            raise OrbError(f"{self.process.name} is dead")
        request_id = (f"{self.process.host.name}/{self.process.pid}"
                      f"-{next(self._request_ids)}")
        request = GiopRequest(request_id=request_id, object_key=object_key,
                              operation=operation, payload=payload,
                              payload_bytes=payload_bytes, oneway=oneway,
                              started_at=self.sim.now)
        history = self.sim.history
        if history.enabled:
            # The invocation interval opens here — at the ORB boundary,
            # before marshalling — because this is the instant the
            # client observably committed to the operation.
            history.invoked(request_id, object_key, operation, payload,
                            self.sim.now, client=self.process.name)
        marshal_us = (self.cal.marshal_fixed_us
                      + self.cal.marshal_per_byte_us * payload_bytes)
        telemetry = self.sim.telemetry
        ctx = None
        marshal_span = None
        if telemetry.enabled:
            # The root span covers the whole round trip; it is the
            # trace every downstream hop joins via the request's trace.
            root = self._root_sites.get(operation)
            if root is None:
                root = self._root_sites[operation] = telemetry.site(
                    "request", host=self.process.host.name,
                    process=self.process.name, operation=operation)
            ctx = telemetry.open_trace(request_id, root, self.sim.now)
            if ctx is not None:
                object.__setattr__(request, "trace", ctx)
                sites = self._sites or self._intern_sites(telemetry)
                marshal_span = telemetry.open(ctx, sites[0], self.sim.now)

        def after_marshal() -> None:
            if telemetry.enabled:
                telemetry.end(marshal_span, self.sim.now)
            if not self.process.alive:
                return
            self.transport.send_request(request, handle_reply)

        def handle_reply(reply: GiopReply) -> None:
            if not self.process.alive:
                return
            demarshal_us = (self.cal.demarshal_fixed_us
                            + self.cal.demarshal_per_byte_us
                            * reply.payload_bytes)
            demarshal_span = None
            reply_ctx = None
            if telemetry.enabled:
                reply_ctx = reply.trace or ctx
                if reply_ctx is not None:
                    sites = self._sites or self._intern_sites(telemetry)
                    demarshal_span = telemetry.open(reply_ctx, sites[1],
                                                    self.sim.now)

            def after_demarshal() -> None:
                if not self.process.alive:
                    return
                if telemetry.enabled and reply_ctx is not None:
                    telemetry.end(demarshal_span, self.sim.now)
                    telemetry.finish_trace(reply_ctx, self.sim.now)
                if history.enabled:
                    # The interval closes when the demarshalled reply
                    # reaches application code — the client's first
                    # chance to act on the returned value.
                    history.completed(request_id, reply.payload,
                                      self.sim.now)
                on_reply(reply)

            self.process.host.cpu.execute(demarshal_us, after_demarshal)

        self.process.host.cpu.execute(marshal_us, after_marshal)
        return request_id

    def _intern_sites(self, telemetry: Any) -> Tuple[int, int]:
        """Intern the marshal and demarshal span sites (once)."""
        host, name = self.process.host.name, self.process.name
        self._sites = (
            telemetry.site("client.marshal", COMPONENT_ORB, host, name),
            telemetry.site("client.demarshal", COMPONENT_ORB, host, name))
        return self._sites
