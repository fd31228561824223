"""Library interposition (pass-through mode).

The paper's replicator is an ``LD_PRELOAD``-style shared library that
intercepts TCP system calls under the ORB.  Figure 4 measures the cost
of *interception alone* — system calls intercepted but not modified —
for three configurations (client only, server only, both).  These
wrappers reproduce that operating mode: they charge the per-call
interception cost on the host CPU and attribute it to the replicator
component, then pass the traffic through unchanged.

The redirect-to-group-communication mode is the replication layer
itself (:mod:`repro.replication`), which implements these same
transport interfaces.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from repro.orb.giop import GiopReply, GiopRequest
from repro.orb.transport import (
    ClientTransport,
    ReplyHandler,
    RequestHandler,
    ServerTransport,
    ServiceAddress,
)
from repro.sim.config import InterposeCalibration
from repro.sim.host import Process
from repro.telemetry.spans import COMPONENT_REPLICATOR


def _intercept_sites(telemetry: Any, process: Process) -> Tuple[int, int]:
    """The ``intercept.request`` and ``intercept.reply`` span sites of
    ``process``."""
    host, name = process.host.name, process.name
    return (telemetry.site("intercept.request", COMPONENT_REPLICATOR, host,
                           name),
            telemetry.site("intercept.reply", COMPONENT_REPLICATOR, host,
                           name))


class InterceptedClientTransport(ClientTransport):
    """Client-side system-call interception without modification."""

    def __init__(self, process: Process, inner: ClientTransport,
                 calibration: Optional[InterposeCalibration] = None):
        self.process = process
        self.inner = inner
        self.cal = calibration or InterposeCalibration()
        self.calls_intercepted = 0
        self._sites: Optional[Tuple[int, int]] = None  # on first trace

    def send_request(self, request: GiopRequest,
                     on_reply: ReplyHandler) -> None:
        """Charge interception cost, then pass through."""
        self.calls_intercepted += 1
        cost = self.cal.intercept_us
        telemetry = self.process.sim.telemetry
        span = None
        if telemetry.enabled:
            if self._sites is None:
                self._sites = _intercept_sites(telemetry, self.process)
            span = telemetry.open(request.trace, self._sites[0],
                                  self.process.sim.now)

        def forward() -> None:
            if telemetry.enabled:
                telemetry.end(span, self.process.sim.now)
            if not self.process.alive:
                return
            self.inner.send_request(request, intercept_reply)

        def intercept_reply(reply: GiopReply) -> None:
            self.calls_intercepted += 1
            reply_span = None
            if telemetry.enabled:
                reply_span = telemetry.open(reply.trace, self._sites[1],
                                            self.process.sim.now)

            def deliver() -> None:
                if telemetry.enabled:
                    telemetry.end(reply_span, self.process.sim.now)
                if self.process.alive:
                    on_reply(reply)

            self.process.host.cpu.execute(cost, deliver)

        self.process.host.cpu.execute(cost, forward)

    def close(self) -> None:
        """Close the wrapped transport."""
        self.inner.close()


class InterceptedServerTransport(ServerTransport):
    """Server-side system-call interception without modification."""

    def __init__(self, process: Process, inner: ServerTransport,
                 calibration: Optional[InterposeCalibration] = None):
        self.process = process
        self.inner = inner
        self.cal = calibration or InterposeCalibration()
        self.calls_intercepted = 0
        self._sites: Optional[Tuple[int, int]] = None  # on first trace

    def start(self, on_request: RequestHandler) -> ServiceAddress:
        """Wrap the request path with interception costs."""
        cost = self.cal.intercept_us

        def intercept_request(request: GiopRequest,
                              send_reply: ReplyHandler) -> None:
            self.calls_intercepted += 1
            telemetry = self.process.sim.telemetry
            span = None
            if telemetry.enabled:
                if self._sites is None:
                    self._sites = _intercept_sites(telemetry, self.process)
                span = telemetry.open(request.trace, self._sites[0],
                                      self.process.sim.now)

            def intercepted_reply(reply: GiopReply) -> None:
                self.calls_intercepted += 1
                reply_span = None
                if telemetry.enabled:
                    reply_span = telemetry.open(reply.trace, self._sites[1],
                                                self.process.sim.now)

                def deliver() -> None:
                    if telemetry.enabled:
                        telemetry.end(reply_span, self.process.sim.now)
                    if self.process.alive:
                        send_reply(reply)

                self.process.host.cpu.execute(cost, deliver)

            def dispatch() -> None:
                if telemetry.enabled:
                    telemetry.end(span, self.process.sim.now)
                if self.process.alive:
                    on_request(request, intercepted_reply)

            self.process.host.cpu.execute(cost, dispatch)

        return self.inner.start(intercept_request)

    def stop(self) -> None:
        """Stop the wrapped transport."""
        self.inner.stop()
