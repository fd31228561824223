"""Constraints and the cost function of Section 4.3.

The scalability knob selects, for each client population, the best
server configuration subject to:

1. average latency <= 7000 µs,
2. bandwidth usage <= 3 MB/s,
3. best fault-tolerance possible given 1-2,
4. ties broken by the lowest cost::

       Cost_i = p * Latency_i / 7000us + (1 - p) * Bandwidth_i / 3MB/s

with p = 0.5 in the paper (latency and bandwidth weighted equally).
The paper stresses the cost function is "a heuristic rule of thumb"
and that other developers could define different ones — so it is a
plain dataclass any policy can swap out.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import Rule, check_fields
from repro.sim.config import (
    PAPER_BANDWIDTH_LIMIT_MBPS,
    PAPER_COST_WEIGHT,
    PAPER_LATENCY_LIMIT_US,
)


#: The declared rules of :class:`Constraints` and :class:`CostFunction`.
CONSTRAINT_RULES = (
    Rule(("max_latency_us", "max_bandwidth_mbps"), float, gt=0),)
COST_RULES = (Rule(("latency_weight",), float, ge=0, le=1),
              Rule(("latency_norm_us", "bandwidth_norm_mbps"), float, gt=0))


@dataclass(frozen=True)
class Constraints:
    """Hard limits (requirements 1-2 of Section 4.3)."""

    max_latency_us: float = PAPER_LATENCY_LIMIT_US
    max_bandwidth_mbps: float = PAPER_BANDWIDTH_LIMIT_MBPS

    def __post_init__(self) -> None:
        check_fields(vars(self), CONSTRAINT_RULES)

    def satisfied_by(self, latency_us: float,
                     bandwidth_mbps: float) -> bool:
        """True when both hard limits hold."""
        return (latency_us <= self.max_latency_us
                and bandwidth_mbps <= self.max_bandwidth_mbps)


@dataclass(frozen=True)
class CostFunction:
    """The paper's tie-breaking heuristic (requirement 4)."""

    latency_weight: float = PAPER_COST_WEIGHT
    latency_norm_us: float = PAPER_LATENCY_LIMIT_US
    bandwidth_norm_mbps: float = PAPER_BANDWIDTH_LIMIT_MBPS

    def __post_init__(self) -> None:
        check_fields(vars(self), COST_RULES)

    def cost(self, latency_us: float, bandwidth_mbps: float) -> float:
        """The paper's weighted, normalized cost."""
        p = self.latency_weight
        return (p * latency_us / self.latency_norm_us
                + (1.0 - p) * bandwidth_mbps / self.bandwidth_norm_mbps)

    @staticmethod
    def from_constraints(constraints: Constraints,
                         latency_weight: float = PAPER_COST_WEIGHT
                         ) -> "CostFunction":
        """The paper normalizes by the constraint limits themselves."""
        return CostFunction(
            latency_weight=latency_weight,
            latency_norm_us=constraints.max_latency_us,
            bandwidth_norm_mbps=constraints.max_bandwidth_mbps)
