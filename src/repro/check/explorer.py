"""Bounded schedule-space exploration with state-digest dedup.

The explorer runs the canonical scenario under a budget of random
walks — each a fresh :class:`repro.check.policies.RandomWalkPolicy`
seed plus a deterministic crash-time variation — and verifies every
schedule: linearizability of the client history against the counter
spec, the journal-level protocol invariants, and the counter
consistency cross-check.  Schedules whose outcome digest was already
seen count as revisits, not as fresh coverage, so the reported
``distinct_schedules`` honestly measures explored behaviours.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, List, Optional, Set

from repro.check.invariants import (
    Violation,
    check_counter_consistency,
    check_invariants,
)
from repro.check.linearizability import CounterSpec, check_linearizability
from repro.check.policies import RandomWalkPolicy
from repro.check.scenario import (
    CHECKPOINT_PHASES,
    CheckScenario,
    ScheduleOutcome,
    run_schedule,
)

#: Crash-time multipliers cycled across walks, so the primary dies at
#: varied points of the request stream (deterministic per walk index).
#: The sub-0.25 factors land the crash *inside* the closed-loop load
#: window, where a reply can be lost between checkpoint stability and
#: delivery — the region that exposes duplicate-suppression bugs.
CRASH_VARIATIONS = (1.0, 0.45, 0.19, 1.6, 0.1, 0.22, 2.4, 0.15,
                    0.05, 0.2)

#: Partition-start multipliers cycled across walks of the partition
#: scenario.  The split duration (heal - start) is preserved — long
#: enough for the failure detector to fire and the minority to wedge —
#: while the cut lands at varied points of the request stream.
PARTITION_VARIATIONS = (1.0, 0.5, 1.5, 0.25, 2.0, 0.75, 1.25, 0.4,
                        1.75, 0.6)


def verify_outcome(outcome: ScheduleOutcome) -> List[Violation]:
    """Run every checker over one schedule outcome."""
    violations: List[Violation] = list(
        check_invariants(outcome.journal_events))
    counter_ops = tuple(op for op in outcome.operations
                        if op.object_key == "counter")
    lin = check_linearizability(counter_ops, CounterSpec())
    if not lin.ok:
        violations.append(Violation(
            invariant="linearizability",
            message=lin.reason,
            details={"blocked_ops": list(lin.blocked_ops),
                     "configurations_explored":
                         lin.configurations_explored}))
    violations.extend(check_counter_consistency(
        counter_ops, outcome.survivor_values))
    if outcome.truncated_rings:
        # Not a violation — but any verdict over a truncated journal
        # is advisory, so surface it alongside the violations.
        violations.append(Violation(
            invariant="journal_truncated",
            message="per-host flight-recorder rings truncated; the "
                    "journal evidence for this schedule is incomplete",
            details={"truncated_rings": outcome.truncated_rings}))
    return violations


@dataclass
class ScheduleReport:
    """One explored schedule: identity plus verification verdict."""

    walk_seed: int
    scenario: CheckScenario
    digest: str
    fresh: bool
    violations: List[Violation] = field(default_factory=list)
    decisions: List[Any] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no checker reported a violation."""
        return not self.violations


@dataclass
class ExplorationResult:
    """Aggregate outcome of one exploration run."""

    scenario: CheckScenario
    budget: int
    schedules_run: int = 0
    distinct_schedules: int = 0
    reports: List[ScheduleReport] = field(default_factory=list)

    @property
    def violating(self) -> List[ScheduleReport]:
        """Reports of schedules with at least one violation."""
        return [r for r in self.reports if not r.ok]

    @property
    def ok(self) -> bool:
        """True when every explored schedule verified clean."""
        return not self.violating


def explore(scenario: CheckScenario, budget: int = 200,
            base_walk_seed: int = 0, tie_choices: int = 4,
            delay_bound_us: float = 150.0,
            stop_on_violation: bool = True,
            progress: Optional[Any] = None) -> ExplorationResult:
    """Explore up to ``budget`` schedules of ``scenario``.

    Walk ``i`` uses policy seed ``base_walk_seed + i`` and, when the
    scenario crashes the primary, cycles the crash time through
    :data:`CRASH_VARIATIONS` (or, when the scenario names a checkpoint
    phase to die in, that phase through ``CHECKPOINT_PHASES``) — both
    fully determined by ``i``, so any violating walk is reproducible
    from its report alone.
    ``progress`` (optional callable) receives ``(i, report)`` after
    each walk.
    """
    result = ExplorationResult(scenario=scenario, budget=budget)
    seen_digests: Set[str] = set()
    for i in range(budget):
        variant = scenario
        if scenario.crash_primary_phase is not None:
            # The crash is pinned to a checkpoint, not to an instant
            # (which must stay after the backups' restart): vary the
            # phase of that checkpoint instead of the time.
            variant = replace(
                scenario,
                crash_primary_phase=CHECKPOINT_PHASES[
                    i % len(CHECKPOINT_PHASES)])
        elif scenario.crash_primary_at_us is not None:
            factor = CRASH_VARIATIONS[i % len(CRASH_VARIATIONS)]
            variant = replace(
                scenario,
                crash_primary_at_us=scenario.crash_primary_at_us * factor)
        if scenario.partition_at_us is not None:
            factor = PARTITION_VARIATIONS[i % len(PARTITION_VARIATIONS)]
            start = scenario.partition_at_us * factor
            duration = scenario.heal_at_us - scenario.partition_at_us
            variant = replace(variant, partition_at_us=start,
                              heal_at_us=start + duration)
        policy = RandomWalkPolicy(seed=base_walk_seed + i,
                                  tie_choices=tie_choices,
                                  delay_bound_us=delay_bound_us)
        outcome = run_schedule(variant, policy)
        fresh = outcome.digest not in seen_digests
        seen_digests.add(outcome.digest)
        report = ScheduleReport(
            walk_seed=base_walk_seed + i, scenario=variant,
            digest=outcome.digest, fresh=fresh,
            violations=verify_outcome(outcome),
            decisions=policy.decisions)
        result.schedules_run += 1
        result.reports.append(report)
        if progress is not None:
            progress(i, report)
        if not report.ok and stop_on_violation:
            break
    result.distinct_schedules = len(seen_digests)
    return result
