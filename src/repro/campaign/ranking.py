"""Ranking campaign results in the paper's design space.

Fig. 1/9 frame every configuration as a point in {fault-tolerance x
performance x resources}; a campaign measures those points under
fault load instead of assuming them.  This module extracts the
Pareto-optimal configurations (no other configuration is at least as
good on every axis and better on one) and, for operators who want one
answer, a weighted-sum ranking in the spirit of the Section 4.3 cost
heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.campaign.results import DependabilityScore
from repro.core.design_space import DesignPoint, DesignSpace
from repro.errors import ConfigurationError, PolicyError, Rule, check_fields
from repro.replication.styles import ReplicationStyle


def dominates(a: DependabilityScore, b: DependabilityScore) -> bool:
    """True when ``a`` is at least as good as ``b`` on all three axes
    (dependability up, latency down, resource cost down) and strictly
    better on at least one."""
    at_least = (a.dependability >= b.dependability
                and a.latency_us <= b.latency_us
                and a.resource_cost <= b.resource_cost)
    strictly = (a.dependability > b.dependability
                or a.latency_us < b.latency_us
                or a.resource_cost < b.resource_cost)
    return at_least and strictly


def pareto_front(scores: Sequence[DependabilityScore]
                 ) -> List[DependabilityScore]:
    """The non-dominated configurations, best-dependability first."""
    front = [s for s in scores
             if not any(dominates(other, s) for other in scores
                        if other is not s)]
    return sorted(front, key=lambda s: (-s.dependability, s.latency_us,
                                        s.resource_cost, s.config_key))


@dataclass(frozen=True)
class RankWeights:
    """Weights of the scalar ranking (normalized internally)."""

    dependability: float = 0.5
    latency: float = 0.25
    resources: float = 0.25

    def __post_init__(self) -> None:
        check_fields(vars(self), (Rule(("dependability", "latency",
                                        "resources"), float, ge=0),))
        if self.dependability + self.latency + self.resources <= 0:
            raise ConfigurationError("at least one weight must be positive")


def rank(scores: Sequence[DependabilityScore],
         weights: RankWeights = RankWeights()
         ) -> List[Tuple[DependabilityScore, float]]:
    """Weighted-sum ranking, best first.  Latency and resource cost
    are normalized to the worst observed value so every term lies in
    [0, 1] and higher is better."""
    if not scores:
        raise PolicyError("nothing to rank: no scores")
    total = weights.dependability + weights.latency + weights.resources
    max_latency = max(s.latency_us for s in scores) or 1.0
    max_cost = max(s.resource_cost for s in scores) or 1.0
    ranked = []
    for score in scores:
        value = (weights.dependability * score.dependability
                 + weights.latency * (1.0 - score.latency_us / max_latency)
                 + weights.resources
                 * (1.0 - score.resource_cost / max_cost)) / total
        ranked.append((score, value))
    ranked.sort(key=lambda pair: (-pair[1], pair[0].config_key))
    return ranked


def to_design_space(scores: Sequence[DependabilityScore]) -> DesignSpace:
    """Project scores into the Fig. 9 normalized design space so the
    existing region/coverage machinery applies to campaign output.

    The fault-tolerance axis carries *measured* dependability rather
    than the static replicas-minus-one count — the campaign's whole
    point is replacing that assumption with data.
    """
    if not scores:
        raise PolicyError("cannot build a design space from no scores")
    max_latency = max(s.latency_us for s in scores) or 1.0
    max_cost = max(s.resource_cost for s in scores) or 1.0
    points = []
    for s in scores:
        points.append(DesignPoint(
            style=ReplicationStyle(s.style), n_replicas=s.n_replicas,
            n_clients=s.n_clients,
            fault_tolerance=s.dependability,
            performance=1.0 - s.latency_us / max_latency,
            resources=s.resource_cost / max_cost))
    return DesignSpace(points)
