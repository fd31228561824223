"""The real-time-guarantees high-level knob (paper Table 1, row 3).

Table 1 maps "Real-Time Guarantees" onto *all three* low-level knobs
(replication style, number of replicas, checkpointing frequency) plus
the full set of application parameters.  The knob's contract is a
probabilistic deadline: "round trips complete within D µs with
probability at least p".

Selection uses the empirical profile's latency mean and jitter: under
a one-sided Chebyshev/Cantelli bound, a configuration with mean m and
standard deviation s meets the deadline D with probability at least
1 - s² / (s² + (D - m)²) whenever m < D.  Among the qualifying
configurations the knob maximizes fault-tolerance and breaks ties by
the lowest mean latency (the tightest real-time behaviour).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.measurements import Measurement, Profile
from repro.errors import ContractViolation, PolicyError, Rule, check_fields


@dataclass(frozen=True)
class RealTimeRequirement:
    """A probabilistic deadline contract."""

    deadline_us: float
    confidence: float = 0.99

    def __post_init__(self) -> None:
        check_fields(vars(self), (Rule(("deadline_us",), float, gt=0),
                                  Rule(("confidence",), float, gt=0, lt=1)),
                     PolicyError)


def deadline_meet_probability(mean_us: float, jitter_us: float,
                              deadline_us: float) -> float:
    """Lower bound on P(latency <= deadline) via Cantelli's
    inequality.  Returns 0 when the mean already misses the deadline
    (no distribution-free guarantee is possible)."""
    if mean_us >= deadline_us:
        return 0.0
    if jitter_us <= 0.0:
        return 1.0
    slack = deadline_us - mean_us
    variance = jitter_us * jitter_us
    return slack * slack / (variance + slack * slack)


@dataclass(frozen=True)
class RealTimeEntry:
    """The selected configuration for one (requirement, load) pair."""

    measurement: Measurement
    guaranteed_probability: float


class RealTimePolicy:
    """Configuration selection for probabilistic deadlines.

    Synthesized from the same empirical profile as the scalability
    policy; queried per client load.
    """

    def __init__(self, profile: Profile):
        if len(profile) == 0:
            raise PolicyError("empty profile")
        self.profile = profile

    def best_configuration(self, requirement: RealTimeRequirement,
                           n_clients: int) -> RealTimeEntry:
        """The qualifying configuration with the best fault-tolerance,
        ties broken by the lowest mean latency.

        Raises :class:`ContractViolation` when no configuration can
        guarantee the deadline at the requested confidence — the
        operator must relax the contract (the paper's degraded-
        contract negotiation, Section 3.1).
        """
        candidates = []
        for measurement in self.profile.for_clients(n_clients):
            probability = deadline_meet_probability(
                measurement.latency_us, measurement.jitter_us,
                requirement.deadline_us)
            if probability >= requirement.confidence:
                candidates.append((measurement, probability))
        if not candidates:
            raise ContractViolation(
                f"no configuration guarantees {requirement.deadline_us} us "
                f"at confidence {requirement.confidence} with "
                f"{n_clients} clients; offer a degraded contract")
        best_ft = max(m.config.faults_tolerated for m, _ in candidates)
        finalists = [(m, p) for m, p in candidates
                     if m.config.faults_tolerated == best_ft]
        measurement, probability = min(
            finalists, key=lambda pair: (pair[0].latency_us,
                                         pair[0].config.label))
        return RealTimeEntry(measurement=measurement,
                             guaranteed_probability=probability)

    def tightest_feasible_deadline(self, n_clients: int,
                                   confidence: float = 0.99,
                                   resolution_us: float = 50.0
                                   ) -> Optional[float]:
        """The smallest deadline some configuration can guarantee at
        the given confidence (binary search over the profile)."""
        measurements = self.profile.for_clients(n_clients)
        if not measurements:
            return None
        low = min(m.latency_us for m in measurements)
        high = max(m.latency_us + 100 * max(m.jitter_us, 1.0)
                   for m in measurements)
        requirement = None
        while high - low > resolution_us:
            mid = (low + high) / 2.0
            feasible = any(
                deadline_meet_probability(m.latency_us, m.jitter_us, mid)
                >= confidence for m in measurements)
            if feasible:
                high = mid
            else:
                low = mid
        return high


class RealTimeKnob:
    """High-level knob: set a (deadline, confidence) contract; the
    knob drives the style and redundancy low-level knobs to the
    selected configuration for the current load."""

    def __init__(self, policy: RealTimePolicy, style_knob,
                 replicas_knob):
        self.policy = policy
        self._style_knob = style_knob
        self._replicas_knob = replicas_knob
        self.current: Optional[RealTimeRequirement] = None
        self.last_entry: Optional[RealTimeEntry] = None

    def set(self, requirement: RealTimeRequirement,
            n_clients: int) -> RealTimeEntry:
        """Apply the configuration selected for the requirement."""
        entry = self.policy.best_configuration(requirement, n_clients)
        config = entry.measurement.config
        if config.n_replicas >= (self._replicas_knob.get() or 0):
            self._replicas_knob.set(config.n_replicas)
            self._style_knob.set(config.style)
        else:
            self._style_knob.set(config.style)
            self._replicas_knob.set(config.n_replicas)
        self.current = requirement
        self.last_entry = entry
        return entry
