"""Declarative service-level objectives.

An :class:`SloSpec` states what "dependable enough" means for one
shard (or every shard): an availability target over an evaluation
window, optionally a latency percentile target over the telemetry
latency histograms, plus the fast/slow burn-rate window pair the
alerting engine evaluates (the multi-window multi-burn-rate scheme
from the SRE literature: page only when *both* a short and a long
window burn budget faster than the threshold, so blips don't page
and slow leaks still do).

Specs are data, not code: they round-trip through canonical JSON so
a campaign can record exactly which objectives a verdict was computed
against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.errors import ConfigurationError, Rule, check_fields

#: Spec applying to every shard discovered in the journal.
ALL_SHARDS = "*"

#: The declared rules of an :class:`SloSpec`.
SLO_SPEC_RULES = (
    Rule(("name",), str, ge=1),
    Rule(("shard",), str),
    Rule(("availability_target",), float, gt=0, lt=1),
    Rule(("latency_p",), float, gt=0, le=1, nullable=True),
    Rule(("latency_target_us",), float, gt=0, nullable=True),
    Rule(("fast_window_us", "slow_window_us", "burn_threshold"), float,
         gt=0),
)


@dataclass(frozen=True)
class SloSpec:
    """One service-level objective for one shard (or all of them).

    ``availability_target`` defines the error budget: a window of
    span ``T`` grants ``(1 - target) * T`` of tolerated downtime.
    ``latency_p``/``latency_target_us`` optionally add a latency
    objective (e.g. p99 <= 5 ms) evaluated against the merged
    ``request_latency_us`` histogram of the shard.  ``burn_threshold``
    is the budget-consumption speed (1.0 = exactly on budget) that
    must be exceeded over *both* burn windows before an alert fires.
    """

    name: str
    shard: str = ALL_SHARDS
    availability_target: float = 0.999
    latency_p: Optional[float] = None
    latency_target_us: Optional[float] = None
    fast_window_us: float = 500_000.0
    slow_window_us: float = 4_000_000.0
    burn_threshold: float = 2.0

    def __post_init__(self) -> None:
        check_fields(vars(self), SLO_SPEC_RULES)
        if (self.latency_p is None) != (self.latency_target_us is None):
            raise ConfigurationError(
                "latency_p and latency_target_us come together")
        if self.fast_window_us > self.slow_window_us:
            raise ConfigurationError(
                "fast burn window must not exceed the slow one")

    def budget_us(self, span_us: float) -> float:
        """Tolerated downtime over a window of ``span_us``."""
        return (1.0 - self.availability_target) * max(span_us, 0.0)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict (latency fields omitted when unset)."""
        out: Dict[str, Any] = {
            "name": self.name,
            "shard": self.shard,
            "availability_target": self.availability_target,
            "fast_window_us": self.fast_window_us,
            "slow_window_us": self.slow_window_us,
            "burn_threshold": self.burn_threshold,
        }
        if self.latency_p is not None:
            out["latency_p"] = self.latency_p
            out["latency_target_us"] = self.latency_target_us
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SloSpec":
        """Inverse of :meth:`to_dict`; the values are checked as
        they are, never cast."""
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigurationError(f"bad SLO spec: {exc}") from None


def default_slo_specs() -> List[SloSpec]:
    """The stock objective set: three-nines availability per shard.

    Deliberately availability-only: latency objectives need the
    telemetry registry, which not every journal-driven caller has.
    """
    return [SloSpec(name="availability-3n", shard=ALL_SHARDS,
                    availability_target=0.999)]


def load_slo_specs(path: str) -> List[SloSpec]:
    """Load a JSON spec file: a list of spec objects (or one object).
    Raises :class:`ConfigurationError` naming ``path`` when it cannot."""
    try:
        with open(path) as handle:
            data = json.load(handle)
        if isinstance(data, dict):
            data = [data]
        if not isinstance(data, list) \
                or not all(isinstance(item, dict) for item in data):
            raise ConfigurationError("must hold a list of objects")
        return [SloSpec.from_dict(item) for item in data]
    except (OSError, ValueError, ConfigurationError) as exc:
        raise ConfigurationError(f"bad spec {path}: {exc}") from None
