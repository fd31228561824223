"""Operating modes and degraded-contract negotiation.

Section 3.1: "If the contracts for the desired behavior can no longer
be honored, the replicator adapts the fault-tolerance to the new
working conditions (including modes within the application, if they
happen to exist). ... if the re-enforcement of a previous contract is
not feasible, versatile dependability can offer alternative (possibly
degraded) behavioral contracts that the application might still wish
to have; manual intervention might be warranted in some extreme
cases."

An :class:`OperatingMode` bundles a knob configuration with the
contracts it promises.  The :class:`ModeManager` applies modes,
monitors their contracts against live metrics, and on sustained
violation steps down through the declared degradation chain — raising
:class:`ContractViolation` (the "manual intervention" signal) only
when even the most degraded mode cannot be honoured.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import AdaptationError, ContractViolation, Rule, check_fields
from repro.monitoring.contracts import Contract, ContractMonitor, ContractStatus
from repro.monitoring.sensors import MetricsSnapshot
from repro.replication.styles import ReplicationStyle


@dataclass(frozen=True)
class OperatingMode:
    """One named operating point: knob settings + promised contracts."""

    name: str
    style: ReplicationStyle
    n_replicas: int
    contracts: Tuple[Contract, ...] = ()
    checkpoint_interval: Optional[int] = None

    def __post_init__(self) -> None:
        check_fields(vars(self), (Rule(("name",), str, ge=1),
                                  Rule(("n_replicas",), int, ge=1)),
                     AdaptationError)


@dataclass(frozen=True)
class ModeTransition:
    """Record of one mode change."""

    time: float
    from_mode: Optional[str]
    to_mode: str
    reason: str


class ModeManager:
    """Applies operating modes and degrades them when contracts fail.

    Parameters
    ----------
    modes:
        The degradation chain, most-capable first.  ``set_mode`` may
        jump anywhere; automatic degradation only moves *down* the
        chain from the current position.
    style_knob, replicas_knob, checkpoint_knob:
        The low-level knobs the manager drives (any may be None if
        the deployment fixes that dimension).
    violation_tolerance:
        Consecutive violating evaluations required before degrading
        (debounce against transient spikes).
    """

    def __init__(self, modes: Sequence[OperatingMode],
                 style_knob=None, replicas_knob=None,
                 checkpoint_knob=None,
                 violation_tolerance: int = 3,
                 on_transition: Optional[Callable[[ModeTransition], None]] = None):
        if not modes:
            raise AdaptationError("at least one mode required")
        names = [mode.name for mode in modes]
        if len(set(names)) != len(names):
            raise AdaptationError("mode names must be unique")
        if violation_tolerance < 1:
            raise AdaptationError("violation tolerance must be >= 1")
        self.modes: List[OperatingMode] = list(modes)
        self._style_knob = style_knob
        self._replicas_knob = replicas_knob
        self._checkpoint_knob = checkpoint_knob
        self.violation_tolerance = violation_tolerance
        self._on_transition = on_transition
        self._current_index: Optional[int] = None
        self._monitor: Optional[ContractMonitor] = None
        self._consecutive_violations = 0
        self.transitions: List[ModeTransition] = []

    # ------------------------------------------------------------------
    # Mode control
    # ------------------------------------------------------------------
    @property
    def current_mode(self) -> Optional[OperatingMode]:
        if self._current_index is None:
            return None
        return self.modes[self._current_index]

    def mode_named(self, name: str) -> OperatingMode:
        """Look up a declared mode by name."""
        for mode in self.modes:
            if mode.name == name:
                return mode
        raise AdaptationError(f"unknown mode: {name}")

    def set_mode(self, name: str, time: float = 0.0,
                 reason: str = "operator request") -> OperatingMode:
        """Apply a mode by name (operator-initiated transition)."""
        index = next(i for i, mode in enumerate(self.modes)
                     if mode.name == self.mode_named(name).name)
        return self._apply(index, time, reason)

    def _apply(self, index: int, time: float,
               reason: str) -> OperatingMode:
        mode = self.modes[index]
        previous = self.current_mode.name if self.current_mode else None
        if self._replicas_knob is not None:
            self._replicas_knob.set(mode.n_replicas)
        if self._style_knob is not None:
            current_style = self._style_knob.get()
            if current_style is not mode.style:
                self._style_knob.set(mode.style)
        if self._checkpoint_knob is not None \
                and mode.checkpoint_interval is not None:
            self._checkpoint_knob.set(mode.checkpoint_interval)
        self._current_index = index
        self._monitor = ContractMonitor(list(mode.contracts))
        self._consecutive_violations = 0
        transition = ModeTransition(time=time, from_mode=previous,
                                    to_mode=mode.name, reason=reason)
        self.transitions.append(transition)
        if self._on_transition is not None:
            self._on_transition(transition)
        return mode

    # ------------------------------------------------------------------
    # Contract supervision
    # ------------------------------------------------------------------
    def evaluate(self, snapshot: MetricsSnapshot) -> ContractStatus:
        """Feed one metrics snapshot; degrade if the current mode's
        contracts keep failing.

        Returns the worst contract status observed this round.  Raises
        :class:`ContractViolation` when the *last* (most degraded)
        mode is itself in sustained violation.
        """
        if self._monitor is None or self._current_index is None:
            raise AdaptationError("no mode applied yet")
        statuses = self._monitor.evaluate(snapshot)
        worst = ContractStatus.HONOURED
        for status in statuses.values():
            if status is ContractStatus.VIOLATED:
                worst = ContractStatus.VIOLATED
            elif status is ContractStatus.WARNING \
                    and worst is ContractStatus.HONOURED:
                worst = ContractStatus.WARNING
        if worst is ContractStatus.VIOLATED:
            self._consecutive_violations += 1
        else:
            self._consecutive_violations = 0
        if self._consecutive_violations >= self.violation_tolerance:
            self._degrade(snapshot.time)
        return worst

    def _degrade(self, time: float) -> None:
        assert self._current_index is not None
        if self._current_index + 1 >= len(self.modes):
            raise ContractViolation(
                f"mode '{self.modes[self._current_index].name}' cannot "
                f"be honoured and no more degraded mode exists; manual "
                f"intervention required")
        self._apply(self._current_index + 1, time,
                    reason="sustained contract violation")
