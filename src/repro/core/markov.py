"""Continuous-time Markov-chain availability model.

A rigorous companion to the closed-form :class:`AvailabilityModel`:
the replica group is a birth-death chain on the number of live
replicas.  Replicas fail independently at rate ``1/MTTF``; a repair
process (respawn + state transfer) restores one replica at a time at
rate ``1/MTTR``.  The service is *available* in every state with at
least one live replica, except that each transition out of the
full-service state charges the style's failover window.

The steady-state distribution of a birth-death chain has the standard
product form; with it we compute availability, the expected number of
live replicas, and the mean time to total failure (all replicas down
simultaneously) — the quantity an operator sizes redundancy against.

Both solutions are closed recurrences over the chain's states, so the
module is pure Python.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.errors import PolicyError
from repro.replication.styles import ReplicationStyle


@dataclass(frozen=True)
class RepairableGroupModel:
    """Parameters of the replica birth-death chain (rates per µs)."""

    n_replicas: int
    mttf_us: float = 3.6e9        # per-replica time to failure
    mttr_us: float = 5.0e6        # respawn + state-transfer time
    failover_us: float = 500_000.0  # service blip per primary fault

    def __post_init__(self) -> None:
        if self.n_replicas < 1:
            raise PolicyError("need at least one replica")
        if self.mttf_us <= 0 or self.mttr_us <= 0:
            raise PolicyError("MTTF and MTTR must be positive")
        if self.failover_us < 0:
            raise PolicyError("failover window must be >= 0")

    # ------------------------------------------------------------------
    # Steady state (product form for the birth-death chain)
    # ------------------------------------------------------------------
    def steady_state(self) -> List[float]:
        """P(k replicas alive) for k = 0..n, in steady state.

        State k fails at rate k/MTTF (k independent replicas) and
        repairs at rate 1/MTTR (one respawn at a time).
        """
        n = self.n_replicas
        lam = 1.0 / self.mttr_us          # repair (birth) rate
        mu = 1.0 / self.mttf_us           # per-replica failure rate
        # pi_k proportional to prod_{j=k+1..n} (j*mu) / lam ... build
        # downward from full service.
        weights = [0.0] * (n + 1)
        weights[n] = 1.0
        for k in range(n - 1, -1, -1):
            # Transition n..k: each step down multiplies by
            # (failure rate out of k+1) / (repair rate into k+1).
            weights[k] = weights[k + 1] * ((k + 1) * mu) / lam
        total = sum(weights)
        return [w / total for w in weights]

    def availability(self) -> float:
        """P(service answers) = P(>=1 replica) minus the failover
        blips charged on departures from the full state."""
        pi = self.steady_state()
        p_some_alive = 1.0 - pi[0]
        # Only the *primary's* fault interrupts service (backup faults
        # are masked by the group), so the blip rate is one replica's
        # failure rate, weighted by the time some replica is primary.
        blip_fraction = (1.0 - pi[0]) * (1.0 / self.mttf_us) \
            * self.failover_us
        return max(0.0, p_some_alive - blip_fraction)

    def expected_live_replicas(self) -> float:
        """Steady-state mean of live replicas."""
        pi = self.steady_state()
        return float(sum(k * p for k, p in enumerate(pi)))

    # ------------------------------------------------------------------
    # Mean time to total failure (absorbing chain, first passage)
    # ------------------------------------------------------------------
    def mean_time_to_total_failure_us(self) -> float:
        """Expected time from full service until all replicas are
        simultaneously down (state 0 absorbing).

        The first-passage system Q_t m = -1 over the transient states
        1..n is tridiagonal, and for a birth-death chain it solves by
        recurrence: the time T_k to first step from k down to k-1 is
        T_n = 1/(n mu) and T_k = (1 + lam T_{k+1}) / (k mu), and
        m_n = T_1 + ... + T_n.  Every term is positive, so the sum
        cancels nothing.
        """
        n = self.n_replicas
        lam = 1.0 / self.mttr_us
        mu = 1.0 / self.mttf_us
        step_down = 1.0 / (n * mu)
        total = step_down
        for k in range(n - 1, 0, -1):
            step_down = (1.0 + lam * step_down) / (k * mu)
            total += step_down
        return total


def failover_window_for_style(style: ReplicationStyle,
                              active_us: float = 1_000.0,
                              warm_us: float = 500_000.0,
                              cold_us: float = 5_000_000.0) -> float:
    """Style-dependent failover window (the same taxonomy as the
    closed-form model): active masks faults nearly instantly, warm
    passive pays detection + promotion, cold pays respawn + restore."""
    if style in (ReplicationStyle.ACTIVE, ReplicationStyle.SEMI_ACTIVE):
        return active_us
    if style is ReplicationStyle.WARM_PASSIVE \
            or style is ReplicationStyle.HYBRID:
        return warm_us
    return cold_us


def plan_redundancy(target_availability: float,
                    style: ReplicationStyle,
                    mttf_us: float = 3.6e9, mttr_us: float = 5.0e6,
                    max_replicas: int = 7) -> int:
    """Smallest replica count whose CTMC availability meets the
    target, for the given style.  Raises when unreachable."""
    if not 0.0 < target_availability < 1.0:
        raise PolicyError("target availability must be in (0, 1)")
    window = failover_window_for_style(style)
    for n in range(1, max_replicas + 1):
        model = RepairableGroupModel(n_replicas=n, mttf_us=mttf_us,
                                     mttr_us=mttr_us,
                                     failover_us=window)
        if model.availability() >= target_availability:
            return n
    raise PolicyError(
        f"availability {target_availability} unreachable with "
        f"{max_replicas} {style.value} replicas")
