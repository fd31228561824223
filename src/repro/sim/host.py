"""Hosts, CPUs and processes.

A :class:`Host` models one machine of the paper's testbed: a single
CPU (jobs serialize), a network attachment point, and a set of
:class:`Process` instances.  Crashing a host kills every process on it
(the paper's node-level crash fault); a process can also crash alone
(process-level crash fault).
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, TYPE_CHECKING

from repro.errors import SimulationError
from repro.sim.config import HostCalibration
from repro.sim.kernel import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.network import Network


class Cpu:
    """A single serializing CPU.

    Jobs are executed FIFO; a job submitted while the CPU is busy
    starts when the CPU frees up.  Service demands are expressed in µs
    on the reference machine and divided by ``speed``.  The busy-time
    integral supports the monitoring subsystem's CPU-load metric.
    """

    def __init__(self, sim: Simulator, calibration: HostCalibration):
        self._sim = sim
        self._cal = calibration
        self._ready_at = 0.0
        self._busy_us = 0.0
        self._jobs_run = 0

    def execute(self, demand_us: float, callback: Callable[..., None],
                *args: Any) -> float:
        """Run a job of ``demand_us`` reference-µs; invoke
        ``callback(*args)`` on completion.  Returns the completion time.

        A demand that is not a finite number >= 0 (NaN included) is
        refused before any state changes: it would otherwise leave the
        CPU's busy time NaN for the rest of the run.
        """
        if not 0.0 <= demand_us < math.inf:
            raise SimulationError(
                f"CPU demand must be finite and >= 0, got {demand_us}")
        sim = self._sim
        now = sim.now
        cal = self._cal
        service = demand_us / cal.speed
        start = max(now, self._ready_at)
        if start > now:
            # Queued behind an earlier job: charge a context switch.
            service += cal.context_switch_us / cal.speed
        done = start + service
        self._ready_at = done
        self._busy_us += service
        self._jobs_run += 1
        sim.schedule_at(done, callback, *args)
        return done

    @property
    def busy_us(self) -> float:
        """Total busy time accumulated so far (µs)."""
        return self._busy_us

    @property
    def jobs_run(self) -> int:
        return self._jobs_run

    @property
    def queue_delay_us(self) -> float:
        """How long a job submitted now would wait before starting."""
        return max(0.0, self._ready_at - self._sim.now)

    def utilization(self, window_start: float) -> float:
        """Approximate utilization since ``window_start`` (0..1)."""
        elapsed = self._sim.now - window_start
        if elapsed <= 0:
            return 0.0
        return min(1.0, self._busy_us / elapsed)


class Host:
    """One machine: a CPU, a NIC attachment, and its processes."""

    def __init__(self, sim: Simulator, name: str,
                 calibration: Optional[HostCalibration] = None):
        self.sim = sim
        self.name = name
        self.calibration = calibration or HostCalibration()
        self.cpu = Cpu(sim, self.calibration)
        self.alive = True
        self.processes: List["Process"] = []
        self.network: Optional["Network"] = None
        self._ports: Dict[int, Callable[[Any], None]] = {}
        self._next_ephemeral_port = 49152

    # ------------------------------------------------------------------
    # Ports (the network delivers frames to (host, port) handlers)
    # ------------------------------------------------------------------
    def bind(self, port: int, handler: Callable[[Any], None]) -> None:
        """Register a frame handler on ``port``."""
        if port in self._ports:
            raise SimulationError(f"{self.name}: port {port} already bound")
        self._ports[port] = handler

    def unbind(self, port: int) -> None:
        """Release ``port`` (no-op if unbound)."""
        self._ports.pop(port, None)

    def allocate_port(self) -> int:
        """Return a fresh ephemeral port number."""
        port = self._next_ephemeral_port
        self._next_ephemeral_port += 1
        return port

    def deliver(self, port: int, payload: Any) -> None:
        """Hand an arriving frame to the bound handler, if any.

        Frames to dead hosts or unbound ports are silently dropped,
        matching real UDP/IP behaviour.
        """
        if not self.alive:
            return
        handler = self._ports.get(port)
        if handler is not None:
            handler(payload)

    # ------------------------------------------------------------------
    # Fault model
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Node-level crash fault: kill the host and all its processes."""
        if not self.alive:
            return
        self.alive = False
        for proc in list(self.processes):
            proc.kill()
        self._ports.clear()

    def restart(self) -> None:
        """Bring a crashed host back (empty: processes must be respawned)."""
        if self.alive:
            return
        self.alive = True
        self.cpu = Cpu(self.sim, self.calibration)

    def __repr__(self) -> str:
        state = "up" if self.alive else "down"
        return f"<Host {self.name} {state} procs={len(self.processes)}>"


class Process:
    """A process on a host.

    Subsystems (GCS clients, ORB endpoints, replicators) register
    themselves as *components* of a process; killing the process stops
    them all.  A process-level crash leaves the host (and the GCS
    daemon on it) running — the distinction matters for failure
    detection latency, exactly as in the paper's testbed.
    """

    def __init__(self, host: Host, name: str):
        if not host.alive:
            raise SimulationError(f"cannot start {name}: host {host.name} is down")
        self.host = host
        self.sim = host.sim
        self.name = name
        self.pid = self.sim.allocate_pid()
        self.alive = True
        self._on_kill: List[Callable[[], None]] = []
        host.processes.append(self)

    def on_kill(self, callback: Callable[[], None]) -> None:
        """Register a cleanup callback invoked when the process dies."""
        self._on_kill.append(callback)

    def kill(self) -> None:
        """Process-level crash fault."""
        if not self.alive:
            return
        self.alive = False
        for callback in list(self._on_kill):
            callback()
        self._on_kill.clear()
        if self in self.host.processes:
            self.host.processes.remove(self)

    def __repr__(self) -> str:
        state = "alive" if self.alive else "dead"
        return f"<Process {self.name} pid={self.pid} on {self.host.name} {state}>"
