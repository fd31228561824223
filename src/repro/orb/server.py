"""Server-side ORB: object adapter, dispatch, state capture.

The :class:`OrbServer` is deliberately replication-unaware: replicas
run an unmodified server over a replicated transport, matching the
paper's transparency goal.  The state-capture hooks aggregate servant
state so the replication layer can checkpoint the *process* as a unit
(the paper replicates at process, not object, granularity).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from repro.errors import OrbError
from repro.orb.giop import GiopReply, GiopRequest, ReplyStatus
from repro.orb.servant import Servant, ServantResult
from repro.orb.transport import ReplyHandler, ServerTransport, ServiceAddress
from repro.sim.config import OrbCalibration
from repro.sim.host import Process
from repro.telemetry.spans import COMPONENT_APPLICATION, COMPONENT_ORB


class OrbServer:
    """Hosts servants and dispatches incoming GIOP requests to them."""

    def __init__(self, process: Process, transport: ServerTransport,
                 calibration: Optional[OrbCalibration] = None):
        self.process = process
        self.sim = process.sim
        self.transport = transport
        self.cal = calibration or OrbCalibration()
        self._servants: Dict[str, Servant] = {}
        self._started = False
        self.address: Optional[ServiceAddress] = None
        self.requests_served = 0
        #: Optional lazy object adapter: :meth:`adopt_servant` uses it
        #: to materialize servants for migrated keys that were never
        #: registered here — including keys adopted with *no* state,
        #: when the source shard died before any state transfer.
        self.servant_factory: Optional[Callable[[str], Servant]] = None
        #: Span site codes (demarshal, execute, marshal), interned on
        #: the first traced request.
        self._sites: Optional[Tuple[int, int, int]] = None

    # ------------------------------------------------------------------
    # Object adapter
    # ------------------------------------------------------------------
    def register(self, object_key: str, servant: Servant) -> None:
        """Bind a servant to an object key."""
        if object_key in self._servants:
            raise OrbError(f"object key already registered: {object_key}")
        self._servants[object_key] = servant

    def servant(self, object_key: str) -> Servant:
        """Look up a registered servant by key."""
        try:
            return self._servants[object_key]
        except KeyError:
            raise OrbError(f"no servant for key: {object_key}") from None

    def start(self) -> ServiceAddress:
        """Start accepting requests; returns the service address."""
        if self._started:
            raise OrbError("server already started")
        if not self._servants and self.servant_factory is None:
            # A shard may legitimately own zero keys at deploy time if
            # it has a factory to materialize migrated ones later.
            raise OrbError("no servants registered")
        self.address = self.transport.start(self._on_request)
        self._started = True
        return self.address

    # ------------------------------------------------------------------
    # Process-level state (for the replication layer)
    # ------------------------------------------------------------------
    def capture_state(self) -> Tuple[Dict[str, Any], int]:
        """Snapshot the state of every servant; returns (state, bytes)."""
        state: Dict[str, Any] = {}
        total_bytes = 0
        for key, servant in self._servants.items():
            value, nbytes = servant.get_state()
            state[key] = value
            total_bytes += nbytes
        return state, total_bytes

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Install a snapshot produced by :meth:`capture_state`."""
        for key, value in state.items():
            servant = self._servants.get(key)
            if servant is not None:
                servant.set_state(value)

    @property
    def deterministic(self) -> bool:
        return all(s.deterministic for s in self._servants.values())

    # ------------------------------------------------------------------
    # Key-scoped state (for shard migration)
    # ------------------------------------------------------------------
    @property
    def servant_keys(self) -> Tuple[str, ...]:
        """The registered object keys, in registration order."""
        return tuple(self._servants)

    def capture_keys(self, keys: Iterable[str]) -> Tuple[Dict[str, Any],
                                                         int]:
        """Snapshot only the named servants; returns (state, bytes).
        Unregistered keys are skipped — their state lives elsewhere."""
        state: Dict[str, Any] = {}
        total_bytes = 0
        for key in keys:
            servant = self._servants.get(key)
            if servant is not None:
                value, nbytes = servant.get_state()
                state[key] = value
                total_bytes += nbytes
        return state, total_bytes

    def adopt_servant(self, key: str, state: Any = None) -> bool:
        """Take ownership of a migrated key: materialize a servant via
        :attr:`servant_factory` (unless one is already registered) and
        install ``state`` when given.  Returns False when no factory
        exists and the key is unknown — the caller journals the miss."""
        servant = self._servants.get(key)
        if servant is None:
            if self.servant_factory is None:
                return False
            servant = self.servant_factory(key)
            self._servants[key] = servant
        if state is not None:
            servant.set_state(state)
        return True

    def drop_servants(self, keys: Iterable[str]) -> int:
        """Deactivate the named servants (the source side of a shard
        migration); returns how many were actually registered."""
        dropped = 0
        for key in keys:
            if self._servants.pop(key, None) is not None:
                dropped += 1
        return dropped

    # ------------------------------------------------------------------
    # Request processing
    # ------------------------------------------------------------------
    def _on_request(self, request: GiopRequest,
                    send_reply: ReplyHandler) -> None:
        if not self.process.alive:
            return
        demarshal_us = (self.cal.demarshal_fixed_us
                        + self.cal.demarshal_per_byte_us
                        * request.payload_bytes)
        cpu = self.process.host.cpu
        telemetry = self.sim.telemetry
        ctx = request.trace if telemetry.enabled else None
        sites = demarshal_span = None
        if ctx is not None:
            sites = self._sites or self._intern_sites(telemetry)
            demarshal_span = telemetry.open(ctx, sites[0], self.sim.now)

        def dispatch() -> None:
            if ctx is not None:
                telemetry.end(demarshal_span, self.sim.now)
            if not self.process.alive:
                return
            servant = self._servants.get(request.object_key)
            if servant is None:
                self._finish(request, send_reply,
                             ServantResult(None, 0, 0.0),
                             status=ReplyStatus.NO_SUCH_OBJECT)
                return
            try:
                result = servant.dispatch(request.operation, request.payload)
            except OrbError as exc:
                self._finish(request, send_reply,
                             ServantResult(str(exc), 32, 0.0),
                             status=ReplyStatus.EXCEPTION)
                return
            execute_span = telemetry.open(
                ctx, sites[1], self.sim.now) if ctx is not None else None

            def executed() -> None:
                if ctx is not None:
                    telemetry.end(execute_span, self.sim.now)
                self._finish(request, send_reply, result,
                             status=ReplyStatus.OK)

            cpu.execute(result.processing_us, executed)

        cpu.execute(demarshal_us + self.cal.dispatch_us, dispatch)

    def _finish(self, request: GiopRequest, send_reply: ReplyHandler,
                result: ServantResult, status: ReplyStatus) -> None:
        if not self.process.alive:
            return
        self.requests_served += 1
        if request.oneway:
            return
        marshal_us = (self.cal.marshal_fixed_us
                      + self.cal.marshal_per_byte_us * result.payload_bytes)
        # The reply starts from the request's trace context; reply-path
        # layers then move the reply's own.
        reply = GiopReply(request_id=request.request_id, status=status,
                          payload=result.payload,
                          payload_bytes=result.payload_bytes,
                          trace=request.trace)
        telemetry = self.sim.telemetry
        ctx = reply.trace if telemetry.enabled else None
        marshal_span = None
        if ctx is not None:
            sites = self._sites or self._intern_sites(telemetry)
            marshal_span = telemetry.open(ctx, sites[2], self.sim.now)

        def marshalled() -> None:
            if ctx is not None:
                telemetry.end(marshal_span, self.sim.now)
            if self.process.alive:
                send_reply(reply)

        self.process.host.cpu.execute(marshal_us, marshalled)

    def _intern_sites(self, telemetry: Any) -> Tuple[int, int, int]:
        """Intern the demarshal, execute and marshal span sites (once)."""
        host, name = self.process.host.name, self.process.name
        self._sites = (
            telemetry.site("server.demarshal", COMPONENT_ORB, host, name),
            telemetry.site("server.execute", COMPONENT_APPLICATION, host,
                           name),
            telemetry.site("server.marshal", COMPONENT_ORB, host, name))
        return self._sites
