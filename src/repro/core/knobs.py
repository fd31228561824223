"""The knob hierarchy: low-level and high-level tuning controls.

Low-level knobs set internal fault-tolerance parameters directly (the
replication style, the number of replicas, the checkpointing
frequency).  High-level knobs expose externally meaningful properties
(scalability, availability) and translate a setting into low-level
knob actions through a policy — "the users ... do not need to quantify
or understand the intricate relationships between internal and
external properties" (Section 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

from repro.core.policies import PolicyEntry, ScalabilityPolicy
from repro.errors import PolicyError
from repro.replication.factory import ReplicaFactory
from repro.replication.server import ServerReplicator
from repro.replication.styles import ReplicationStyle


class Knob:
    """Base class: a named control with a current value."""

    def __init__(self, name: str, level: str):
        if level not in ("low", "high"):
            raise PolicyError(f"knob level must be low|high, not {level}")
        self.name = name
        self.level = level
        self.history: List[Any] = []

    def get(self) -> Any:
        """Current value of the knob."""
        raise NotImplementedError

    def set(self, value: Any) -> None:
        """Apply a new value and record it in the history."""
        self._apply(value)
        self.history.append(value)

    def _apply(self, value: Any) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{self.level}-level knob {self.name!r} = {self.get()!r}>"


# ---------------------------------------------------------------------------
# Low-level knobs
# ---------------------------------------------------------------------------

class ReplicationStyleKnob(Knob):
    """Low-level knob: the group's replication style, switched at
    runtime through the Fig. 5 protocol on any live replica."""

    def __init__(self, replicas: Sequence[ServerReplicator]):
        super().__init__("replication_style", "low")
        self._replicas = list(replicas)

    def add_replica(self, replicator: ServerReplicator) -> None:
        """Track another replica's replicator."""
        self._replicas.append(replicator)

    def _live(self) -> List[ServerReplicator]:
        return [r for r in self._replicas if r.alive]

    def get(self) -> Optional[ReplicationStyle]:
        """Style of the first live replica (None if none)."""
        live = self._live()
        return live[0].style if live else None

    def _apply(self, value: ReplicationStyle) -> None:
        live = self._live()
        if not live:
            raise PolicyError("no live replica to switch")
        if live[0].style is value and not live[0].switching:
            return  # already there
        live[0].request_switch(value)


class NumReplicasKnob(Knob):
    """Low-level knob: the redundancy level, via the replica factory."""

    def __init__(self, factory: ReplicaFactory):
        super().__init__("n_replicas", "low")
        self._factory = factory

    def get(self) -> int:
        """The factory's current target."""
        return self._factory.target

    def _apply(self, value: int) -> None:
        self._factory.set_target(int(value))


class CheckpointIntervalKnob(Knob):
    """Low-level knob: checkpoint every N requests (warm/cold passive)."""

    def __init__(self, replicas: Sequence[ServerReplicator]):
        super().__init__("checkpoint_interval", "low")
        self._replicas = list(replicas)

    def add_replica(self, replicator: ServerReplicator) -> None:
        """Track another replica's replicator."""
        self._replicas.append(replicator)

    def get(self) -> Optional[int]:
        """Interval at the first live replica (None if none)."""
        live = [r for r in self._replicas if r.alive]
        return live[0].config.checkpoint_interval_requests if live else None

    def _apply(self, value: int) -> None:
        for replicator in self._replicas:
            if replicator.alive:
                replicator.set_checkpoint_interval(int(value))


# ---------------------------------------------------------------------------
# High-level knobs
# ---------------------------------------------------------------------------

class ScalabilityKnob(Knob):
    """High-level knob of Section 4.3: "given a number of clients,
    decide the best possible configuration for the servers".

    Setting the knob to N clients looks up the synthesized policy and
    drives the style and redundancy low-level knobs accordingly.
    """

    def __init__(self, policy: ScalabilityPolicy,
                 style_knob: ReplicationStyleKnob,
                 replicas_knob: NumReplicasKnob):
        super().__init__("scalability", "high")
        self.policy = policy
        self._style_knob = style_knob
        self._replicas_knob = replicas_knob
        self._current: Optional[int] = None
        self.last_entry: Optional[PolicyEntry] = None

    def get(self) -> Optional[int]:
        """The client count the knob was last set to."""
        return self._current

    def _apply(self, n_clients: int) -> None:
        entry = self.policy.best_configuration(int(n_clients))
        # Order matters: grow the group before relaxing the style, so
        # fault-tolerance never dips below both settings' minimum.
        if entry.config.n_replicas >= (self._replicas_knob.get() or 0):
            self._replicas_knob.set(entry.config.n_replicas)
            self._style_knob.set(entry.config.style)
        else:
            self._style_knob.set(entry.config.style)
            self._replicas_knob.set(entry.config.n_replicas)
        self._current = int(n_clients)
        self.last_entry = entry


@dataclass(frozen=True)
class AvailabilityModel:
    """Steady-state availability of a replicated service.

    With per-replica MTTF and a style-dependent recovery time, the
    service is unavailable only when all replicas are down (active /
    warm) or during the recovery window (cold).  This simple Markov
    approximation is enough to invert "desired availability" into a
    redundancy level — the paper's availability high-level knob
    (Table 1 maps it to the replication style, the number of replicas
    and the checkpointing frequency).
    """

    replica_mttf_us: float = 3.6e9          # ~1 hour
    active_failover_us: float = 1_000.0     # surviving replicas answer
    warm_failover_us: float = 500_000.0     # detection + promotion
    cold_failover_us: float = 5_000_000.0   # detection + spawn + restore

    def failover_us(self, style: ReplicationStyle) -> float:
        """Failover window for ``style``."""
        if style is ReplicationStyle.ACTIVE:
            return self.active_failover_us
        if style is ReplicationStyle.WARM_PASSIVE:
            return self.warm_failover_us
        return self.cold_failover_us

    def availability(self, style: ReplicationStyle,
                     n_replicas: int) -> float:
        """Fraction of time the service answers requests.

        Unavailability has two terms: (a) the failover window paid on
        each primary fault (style-dependent; a single unreplicated
        copy always pays the cold restart), and (b) the probability
        that *every* replica is simultaneously down (each replica is
        independently in its restart window a fraction of the time),
        which shrinks geometrically with the redundancy level.
        """
        if n_replicas < 1:
            return 0.0
        per_fault = (self.failover_us(style) if n_replicas >= 2
                     else self.cold_failover_us)
        u_failover = per_fault / self.replica_mttf_us
        restart_fraction = self.cold_failover_us / self.replica_mttf_us
        u_exhaust = restart_fraction ** n_replicas
        return max(0.0, 1.0 - u_failover - u_exhaust)


class AvailabilityKnob(Knob):
    """High-level knob: set a target availability (e.g. 0.9999); the
    knob picks the cheapest (style, n_replicas) meeting it."""

    def __init__(self, model: AvailabilityModel,
                 style_knob: ReplicationStyleKnob,
                 replicas_knob: NumReplicasKnob,
                 candidate_styles: Sequence[ReplicationStyle] = (
                     ReplicationStyle.COLD_PASSIVE,
                     ReplicationStyle.WARM_PASSIVE,
                     ReplicationStyle.ACTIVE),
                 max_replicas: int = 5):
        super().__init__("availability", "high")
        self.model = model
        self._style_knob = style_knob
        self._replicas_knob = replicas_knob
        self.candidate_styles = list(candidate_styles)
        self.max_replicas = max_replicas
        self._current: Optional[float] = None
        self.chosen: Optional[tuple] = None

    def get(self) -> Optional[float]:
        """The availability target last applied."""
        return self._current

    def plan(self, target: float) -> tuple:
        """Cheapest (style, n_replicas) reaching ``target``; candidate
        styles are tried in the given (cheap-first) order."""
        if not 0.0 < target < 1.0:
            raise PolicyError("availability target must be in (0, 1)")
        for n_replicas in range(1, self.max_replicas + 1):
            for style in self.candidate_styles:
                if self.model.availability(style, n_replicas) >= target:
                    return style, n_replicas
        raise PolicyError(
            f"availability {target} unreachable with "
            f"<= {self.max_replicas} replicas")

    def _apply(self, target: float) -> None:
        style, n_replicas = self.plan(float(target))
        self._replicas_knob.set(n_replicas)
        self._style_knob.set(style)
        self._current = float(target)
        self.chosen = (style, n_replicas)
