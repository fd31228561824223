"""Actor base class: timer management tied to a process's lifetime.

Protocol modules (failure detectors, replicators, adaptation
coordinators) subclass :class:`Actor` to get timers that are cancelled
automatically when the owning process dies — a dead replica must not
keep heartbeating.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.sim.host import Process
from repro.sim.kernel import Simulator


class Actor:
    """Event-driven component owned by a :class:`Process`."""

    def __init__(self, process: Process, name: Optional[str] = None):
        self.process = process
        self.sim: Simulator = process.sim
        self.name = name or f"{process.name}/{type(self).__name__}"
        self._timers: Dict[str, list] = {}
        process.on_kill(self._on_process_killed)

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def set_timer(self, key: str, delay_us: float,
                  callback: Callable[..., None], *args: Any) -> None:
        """(Re)arm a named one-shot timer; rearming cancels the old one."""
        self.cancel_timer(key)
        if not self.alive:
            return

        def fire() -> None:
            self._timers.pop(key, None)
            if self.alive:
                callback(*args)

        self._timers[key] = self.sim.schedule(delay_us, fire)

    def set_periodic_timer(self, key: str, interval_us: float,
                           callback: Callable[[], None],
                           first_at_us: Optional[float] = None) -> None:
        """Arm a named timer that refires every ``interval_us`` until
        cancelled or the process dies; it first fires at the absolute
        instant ``first_at_us`` if given, else ``interval_us`` from
        now."""
        self.cancel_timer(key)
        if not self.alive:
            return
        # Bound once: heartbeat and failure-check timers fire on every
        # daemon every interval, so each fire skips the property and
        # attribute lookups.
        process = self.process
        timers = self._timers
        schedule = self.sim.schedule

        def fire() -> None:
            if not process.alive:
                timers.pop(key, None)
                return
            timers[key] = schedule(interval_us, fire)
            callback()

        timers[key] = schedule(interval_us, fire) if first_at_us is None \
            else self.sim.schedule_at(first_at_us, fire)

    def cancel_timer(self, key: str) -> None:
        """Cancel a named timer (no-op if absent)."""
        handle = self._timers.pop(key, None)
        if handle is not None:
            self.sim.cancel(handle)

    def cancel_all_timers(self) -> None:
        """Cancel every armed timer."""
        for handle in self._timers.values():
            self.sim.cancel(handle)
        self._timers.clear()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        """An actor lives exactly as long as its process."""
        return self.process.alive

    def _on_process_killed(self) -> None:
        self.cancel_all_timers()
        self.on_stop()

    def on_stop(self) -> None:
        """Hook for subclasses; called once when the process dies."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"
