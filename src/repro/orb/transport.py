"""ORB transports.

The ORB talks to the wire through a narrow transport seam — exactly
the seam the paper's replicator exploits via library interposition:
"because the replicator mimics the TCP/IP programming interface, the
application continues to believe that it is using regular CORBA GIOP
connections" (Section 3.1).

:class:`TcpClientTransport` / :class:`TcpServerTransport` implement
the plain point-to-point path (the paper's "no interceptor" baseline).
The interposition layer and the replication layer provide drop-in
replacements for these same interfaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.errors import OrbError
from repro.net.frame import Endpoint, Frame
from repro.net.network import Network
from repro.orb.giop import GiopReply, GiopRequest
from repro.sim.config import OrbCalibration
from repro.sim.host import Process
from repro.telemetry.spans import COMPONENT_NETWORK, KIND_TRANSIT

ReplyHandler = Callable[[GiopReply], None]
RequestHandler = Callable[[GiopRequest, ReplyHandler], None]


@dataclass(frozen=True)
class ServiceAddress:
    """Where a service can be reached: a TCP endpoint or a GCS group."""

    kind: str  # "tcp" | "group"
    host: str = ""
    port: int = 0
    group: str = ""

    @staticmethod
    def tcp(host: str, port: int) -> "ServiceAddress":
        return ServiceAddress(kind="tcp", host=host, port=port)

    @staticmethod
    def replicated(group: str) -> "ServiceAddress":
        return ServiceAddress(kind="group", group=group)


class ClientTransport:
    """Client-side connection to one service."""

    def send_request(self, request: GiopRequest,
                     on_reply: ReplyHandler) -> None:
        """Transmit a request; ``on_reply`` fires with the reply."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any resources (ports, group watches)."""


class ServerTransport:
    """Server-side acceptor for one service."""

    def start(self, on_request: RequestHandler) -> ServiceAddress:
        """Begin accepting requests; returns the service address."""
        raise NotImplementedError

    def stop(self) -> None:
        """Stop accepting requests."""


@dataclass(frozen=True)
class _TcpEnvelope:
    """Wire wrapper pairing a GIOP message with its reply path."""

    message: Any
    reply_to: Endpoint


class TcpClientTransport(ClientTransport):
    """Plain GIOP-over-TCP to a fixed server endpoint."""

    def __init__(self, process: Process, network: Network,
                 server: ServiceAddress,
                 calibration: Optional[OrbCalibration] = None):
        if server.kind != "tcp":
            raise OrbError(f"TcpClientTransport needs a tcp address: {server}")
        self.process = process
        self.network = network
        self.cal = calibration or OrbCalibration()
        self.server = server
        self._port = process.host.allocate_port()
        self._local = Endpoint(process.host.name, self._port)
        self._waiting: Dict[str, ReplyHandler] = {}
        process.host.bind(self._port, self._on_frame)
        process.on_kill(self.close)
        self._closed = False
        self._site: Optional[int] = None  # interned on the first trace

    def send_request(self, request: GiopRequest,
                     on_reply: ReplyHandler) -> None:
        """Send the request as one GIOP-over-TCP frame."""
        if self._closed:
            raise OrbError("transport closed")
        if not request.oneway:
            self._waiting[request.request_id] = on_reply
        telemetry = self.process.sim.telemetry
        if telemetry.enabled:
            ctx = request.trace
            if ctx is not None:
                site = self._site
                if site is None:
                    site = self._site = telemetry.site(
                        "net.request", COMPONENT_NETWORK,
                        self.process.host.name, self.process.name,
                        KIND_TRANSIT)
                span_id = telemetry.open(ctx, site, self.process.sim.now)
                if span_id is not None:
                    object.__setattr__(request, "trace",
                                       ctx.in_transit(span_id))
        self.network.send(
            self._local, Endpoint(self.server.host, self.server.port),
            _TcpEnvelope(message=request, reply_to=self._local),
            payload_bytes=request.payload_bytes + self.cal.giop_header_bytes,
            kind="giop.request")

    def _on_frame(self, frame: Frame) -> None:
        payload = frame.payload
        if not isinstance(payload, _TcpEnvelope):
            return
        reply = payload.message
        if not isinstance(reply, GiopReply):
            return
        handler = self._waiting.pop(reply.request_id, None)
        if handler is not None:
            telemetry = self.process.sim.telemetry
            if telemetry.enabled:
                ctx = reply.trace
                if ctx is not None:
                    telemetry.finish_inflight(ctx, self.process.sim.now)
                    object.__setattr__(reply, "trace", ctx.at_root())
            handler(reply)

    def close(self) -> None:
        """Release the reply port and drop waiters."""
        if self._closed:
            return
        self._closed = True
        self.process.host.unbind(self._port)
        self._waiting.clear()


class TcpServerTransport(ServerTransport):
    """Plain GIOP-over-TCP acceptor on a fixed port."""

    def __init__(self, process: Process, network: Network, port: int,
                 calibration: Optional[OrbCalibration] = None):
        self.process = process
        self.network = network
        self.cal = calibration or OrbCalibration()
        self.port = port
        self._on_request: Optional[RequestHandler] = None
        self._started = False
        self._site: Optional[int] = None  # interned on the first trace
        process.on_kill(self.stop)

    def start(self, on_request: RequestHandler) -> ServiceAddress:
        """Bind the acceptor port; returns the TCP address."""
        if self._started:
            raise OrbError("server transport already started")
        self._on_request = on_request
        self.process.host.bind(self.port, self._on_frame)
        self._started = True
        return ServiceAddress.tcp(self.process.host.name, self.port)

    def _on_frame(self, frame: Frame) -> None:
        payload = frame.payload
        if not isinstance(payload, _TcpEnvelope):
            return
        request = payload.message
        if not isinstance(request, GiopRequest) or self._on_request is None:
            return
        telemetry = self.process.sim.telemetry
        if telemetry.enabled:
            ctx = request.trace
            if ctx is not None:
                telemetry.finish_inflight(ctx, self.process.sim.now)
                object.__setattr__(request, "trace", ctx.at_root())
        reply_to = payload.reply_to

        def send_reply(reply: GiopReply) -> None:
            if telemetry.enabled:
                reply_ctx = reply.trace
                if reply_ctx is not None:
                    site = self._site
                    if site is None:
                        site = self._site = telemetry.site(
                            "net.reply", COMPONENT_NETWORK,
                            self.process.host.name, self.process.name,
                            KIND_TRANSIT)
                    span_id = telemetry.open(reply_ctx, site,
                                             self.process.sim.now)
                    if span_id is not None:
                        object.__setattr__(reply, "trace",
                                           reply_ctx.in_transit(span_id))
            self.network.send(
                Endpoint(self.process.host.name, self.port), reply_to,
                _TcpEnvelope(message=reply, reply_to=reply_to),
                payload_bytes=reply.payload_bytes + self.cal.giop_header_bytes,
                kind="giop.reply")

        self._on_request(request, send_reply)

    def stop(self) -> None:
        """Release the acceptor port."""
        if self._started:
            self.process.host.unbind(self.port)
            self._started = False
