"""Adaptation policies: the logic behind the knobs.

Two policies from the paper's evaluation:

- :class:`ScalabilityPolicy` — the Section 4.3 high-level knob: for a
  given client population, pick the configuration that (1) meets the
  latency constraint, (2) meets the bandwidth constraint, (3) has the
  best fault-tolerance, (4) breaks ties by lowest cost.  Produces the
  paper's Table 2.
- :class:`ThresholdSwitchPolicy` — the Section 4.2 low-level policy:
  switch to active replication when the request arrival rate climbs
  above a threshold, back to warm passive when it falls (Fig. 6), with
  hysteresis so a noisy rate does not cause switch thrashing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.cost import Constraints, CostFunction
from repro.core.measurements import ConfigPoint, Profile
from repro.errors import ContractViolation, PolicyError, Rule, check_fields
from repro.replication.styles import ReplicationStyle


@dataclass(frozen=True)
class PolicyEntry:
    """One row of the synthesized policy (one row of Table 2)."""

    n_clients: int
    config: ConfigPoint
    latency_us: float
    bandwidth_mbps: float
    faults_tolerated: int
    cost: float


class ScalabilityPolicy:
    """The high-level scalability knob's decision table."""

    def __init__(self, entries: Dict[int, Optional[PolicyEntry]],
                 constraints: Constraints, cost_fn: CostFunction):
        self.entries = dict(entries)
        self.constraints = constraints
        self.cost_fn = cost_fn

    @classmethod
    def synthesize(cls, profile: Profile,
                   constraints: Optional[Constraints] = None,
                   cost_fn: Optional[CostFunction] = None
                   ) -> "ScalabilityPolicy":
        """Derive the policy from empirical data (Section 4.3 steps).

        For each client count: filter by the hard constraints, keep
        the configurations with the maximum faults tolerated, then
        pick the lowest-cost survivor.  A client count with no feasible
        configuration maps to ``None`` (the operator must be notified).
        """
        constraints = constraints or Constraints()
        cost_fn = cost_fn or CostFunction.from_constraints(constraints)
        entries: Dict[int, Optional[PolicyEntry]] = {}
        for n_clients in profile.client_counts():
            candidates = [
                m for m in profile.for_clients(n_clients)
                if constraints.satisfied_by(m.latency_us, m.bandwidth_mbps)
            ]
            if not candidates:
                entries[n_clients] = None
                continue
            best_ft = max(m.config.faults_tolerated for m in candidates)
            finalists = [m for m in candidates
                         if m.config.faults_tolerated == best_ft]
            winner = min(
                finalists,
                key=lambda m: (cost_fn.cost(m.latency_us, m.bandwidth_mbps),
                               m.config.label))
            entries[n_clients] = PolicyEntry(
                n_clients=n_clients, config=winner.config,
                latency_us=winner.latency_us,
                bandwidth_mbps=winner.bandwidth_mbps,
                faults_tolerated=winner.config.faults_tolerated,
                cost=cost_fn.cost(winner.latency_us, winner.bandwidth_mbps))
        return cls(entries, constraints, cost_fn)

    def best_configuration(self, n_clients: int) -> PolicyEntry:
        """Requirement lookup; raises :class:`ContractViolation` when
        no configuration can honour the constraints (the paper: "the
        system notifies the operators that the tuning policy can no
        longer be honored")."""
        if n_clients not in self.entries:
            raise PolicyError(
                f"no profile data for {n_clients} clients "
                f"(profiled: {sorted(self.entries)})")
        entry = self.entries[n_clients]
        if entry is None:
            raise ContractViolation(
                f"no configuration satisfies the constraints for "
                f"{n_clients} clients; a new policy must be defined")
        return entry

    def table(self) -> List[PolicyEntry]:
        """All feasible rows, ordered by client count (Table 2)."""
        return [entry for _, entry in sorted(self.entries.items())
                if entry is not None]

    def max_supported_clients(self) -> int:
        """Largest profiled client count with a feasible configuration."""
        feasible = [n for n, e in self.entries.items() if e is not None]
        if not feasible:
            raise ContractViolation("no client count is servable")
        return max(feasible)


@dataclass(frozen=True)
class ThresholdSwitchPolicy:
    """Rate-threshold adaptive replication (Fig. 6).

    Above ``rate_high_per_s`` the policy demands active replication
    (it sustains higher arrival rates); below ``rate_low_per_s`` it
    returns to warm passive (it is cheaper).  The gap between the two
    thresholds is the hysteresis band.
    """

    rate_high_per_s: float
    rate_low_per_s: float
    high_style: ReplicationStyle = ReplicationStyle.ACTIVE
    low_style: ReplicationStyle = ReplicationStyle.WARM_PASSIVE

    def __post_init__(self) -> None:
        check_fields(vars(self), (Rule(("rate_high_per_s", "rate_low_per_s"),
                                       float, ge=0),), PolicyError)
        if self.rate_low_per_s > self.rate_high_per_s:
            raise PolicyError("low threshold must not exceed high")

    def decide(self, current: ReplicationStyle,
               rate_per_s: float) -> Optional[ReplicationStyle]:
        """Return the style to switch to, or None to stay put."""
        if rate_per_s > self.rate_high_per_s and current is not self.high_style:
            return self.high_style
        if rate_per_s < self.rate_low_per_s and current is not self.low_style:
            return self.low_style
        return None
