"""Time-varying load profiles for open-loop clients.

Figure 6 drives the system with a request rate that climbs above and
falls below the adaptation threshold; these profiles describe such
rate trajectories as functions of time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.errors import ConfigurationError, Rule, check_fields

#: The declared rules of each rate profile: rates in requests per
#: second, instants and durations in µs, all finite.
CONSTANT_RATE_RULES = (Rule(("rate_per_s",), float, ge=0),)
STEP_RULES = (Rule(("start_us",), float), Rule(("rate",), float, ge=0))
RAMP_RULES = (Rule(("start_rate", "end_rate"), float, ge=0),
              Rule(("duration_us",), float, gt=0))
SPIKE_RULES = (Rule(("base_rate", "spike_rate"), float, ge=0),
               Rule(("spike_start_us", "spike_end_us"), float))

class RateProfile:
    """A request rate (requests/second) as a function of time (µs)."""

    def rate_at(self, time_us: float) -> float:
        """Offered rate (req/s) at ``time_us``."""
        raise NotImplementedError

    def peak(self, duration_us: float, step_us: float = 10_000.0) -> float:
        """Maximum rate over [0, duration] (sampled)."""
        t = 0.0
        peak = 0.0
        while t <= duration_us:
            peak = max(peak, self.rate_at(t))
            t += step_us
        return peak


@dataclass(frozen=True)
class ConstantRate(RateProfile):
    rate_per_s: float

    def __post_init__(self) -> None:
        check_fields(vars(self), CONSTANT_RATE_RULES)

    def rate_at(self, time_us: float) -> float:
        """See :meth:`RateProfile.rate_at`."""
        return self.rate_per_s


class StepProfile(RateProfile):
    """Piecewise-constant rate: [(start_us, rate), ...]."""

    def __init__(self, steps: Sequence[Tuple[float, float]]):
        if not steps:
            raise ConfigurationError("a step profile needs steps")
        for start, rate in steps:
            check_fields({"start_us": start, "rate": rate}, STEP_RULES)
        ordered = sorted(steps)
        if ordered[0][0] > 0:
            ordered.insert(0, (0.0, 0.0))
        self.steps: List[Tuple[float, float]] = ordered

    def rate_at(self, time_us: float) -> float:
        """See :meth:`RateProfile.rate_at`."""
        current = self.steps[0][1]
        for start, rate in self.steps:
            if time_us >= start:
                current = rate
            else:
                break
        return current


@dataclass(frozen=True)
class RampProfile(RateProfile):
    """Linear ramp from ``start_rate`` to ``end_rate`` over
    [0, duration_us], constant afterwards."""

    start_rate: float
    end_rate: float
    duration_us: float

    def __post_init__(self) -> None:
        check_fields(vars(self), RAMP_RULES)

    def rate_at(self, time_us: float) -> float:
        """See :meth:`RateProfile.rate_at`."""
        if time_us >= self.duration_us:
            return self.end_rate
        fraction = time_us / self.duration_us
        return self.start_rate + fraction * (self.end_rate - self.start_rate)


@dataclass(frozen=True)
class SpikeProfile(RateProfile):
    """Fig. 6-style load: a base rate with a high-rate window in the
    middle — the 'limited window of opportunity' of Section 5."""

    base_rate: float
    spike_rate: float
    spike_start_us: float
    spike_end_us: float

    def __post_init__(self) -> None:
        check_fields(vars(self), SPIKE_RULES)
        if not self.spike_end_us > self.spike_start_us:
            raise ConfigurationError("spike end must be after start")

    def rate_at(self, time_us: float) -> float:
        """See :meth:`RateProfile.rate_at`."""
        if self.spike_start_us <= time_us < self.spike_end_us:
            return self.spike_rate
        return self.base_rate
