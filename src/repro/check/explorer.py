"""Bounded schedule-space exploration with state-digest dedup.

The explorer runs the canonical scenario under a budget of random
walks — each a fresh :class:`repro.check.policies.RandomWalkPolicy`
seed plus a deterministic crash-time variation — and verifies every
schedule: linearizability of the client history against the counter
spec, the journal-level protocol invariants, the counter consistency
cross-check, and progress (no operation, and no late duplicate the
scenario sent, is left unanswered).  Schedules whose outcome digest
was already seen count as revisits, not as fresh coverage, so the
reported ``distinct_schedules`` honestly measures explored behaviours.

A walk is a pure function of ``(scenario, walk index)``, so the walks
run on every CPU the process may use; the parent consumes their
results in walk order, and every report equals the one-CPU loop's.
"""

from __future__ import annotations

import os
import pickle
from dataclasses import dataclass, field, replace
from typing import Any, List, Optional, Sequence, Set, Tuple

from repro.check.invariants import (
    Violation,
    check_counter_consistency,
    check_invariants,
)
from repro.check.linearizability import CounterSpec, check_linearizability
from repro.check.policies import (
    WALK_RULES,
    Decision,
    Decisions,
    RandomWalkPolicy,
)
from repro.check.scenario import (
    CHECKPOINT_PHASES,
    CheckScenario,
    ScheduleOutcome,
    _validate,
    run_schedule,
)
from repro.errors import Rule, VerificationError, check_fields

#: The declared rules of :func:`explore`'s parameters.
EXPLORE_RULES = (Rule(("budget",), int, ge=1), *WALK_RULES)

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
    pending = [op.op_id for op in outcome.operations if op.pending]
    pending += [f"late duplicate {op_id}"
                for op_id in outcome.unanswered_duplicates]
    if pending:
        violations.append(Violation(
            invariant="progress",
            message=f"still pending after the closing settle: "
                    f"{', '.join(pending)}",
            details={"pending": pending}))
    if outcome.journal_dropped:
        # Not a violation — but any verdict over a truncated journal
        # is advisory, so surface it alongside the violations.
        violations.append(Violation(
            invariant="journal_truncated",
            message="the journal dropped events past its cap; the "
                    "evidence for this schedule is incomplete",
            details={"dropped": outcome.journal_dropped}))
    return violations


@dataclass
class ScheduleReport:
    """One explored schedule: identity plus verification verdict."""

    walk_seed: int
    scenario: CheckScenario
    digest: str
    fresh: bool
    violations: List[Violation] = field(default_factory=list)
    decisions: Sequence[Decision] = field(default_factory=list)

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

    The walks run on every CPU the process may use (at most
    ``budget`` workers); results are consumed in walk order, so the
    reports, the counts and the ``progress`` calls equal a one-CPU
    run's.  The parameters are validated here, before any worker
    starts: a bad one raises :class:`VerificationError` once.
    """
    check_fields({"budget": budget, "tie_choices": tie_choices,
                  "delay_bound_us": delay_bound_us}, EXPLORE_RULES,
                 VerificationError)
    _validate(scenario)
    result = ExplorationResult(scenario=scenario, budget=budget)
    seen_digests: Set[str] = set()
    jobs = [(scenario, i, base_walk_seed + i, tie_choices, delay_bound_us)
            for i in range(budget)]
    workers = min(budget, _usable_cpus())
    pool = None
    try:
        if workers > 1:
            # Lazy: the one-CPU path needs no multiprocessing.
            from concurrent.futures import ProcessPoolExecutor

            from repro.campaign.runner import _mp_context, chunk_size
            # An executor, not a multiprocessing.Pool: when a worker
            # dies, Pool.imap loses its chunk and waits for good, the
            # executor raises BrokenProcessPool.
            pool = ProcessPoolExecutor(workers, mp_context=_mp_context())
            # Unpickled here, not by the executor's manager thread: that
            # thread's malloc arena cannot reuse memory this thread
            # freed, and holding every report there cost 4-10 MiB of
            # peak RSS on perfbench's check_explore.
            walks = map(_unpickled_walk, pool.map(
                _pickled_walk, jobs,
                chunksize=chunk_size(budget, workers)))
        else:
            walks = map(_walk, jobs)
        for i, (variant, digest, violations, decisions) in enumerate(walks):
            fresh = digest not in seen_digests
            seen_digests.add(digest)
            report = ScheduleReport(
                walk_seed=base_walk_seed + i, scenario=variant,
                digest=digest, fresh=fresh, violations=violations,
                decisions=decisions)
            result.schedules_run += 1
            result.reports.append(report)
            if progress is not None:
                progress(i, report)
            if not report.ok and stop_on_violation:
                break
    finally:
        if pool is not None:
            # Walks not yet started are dropped; those running finish,
            # so no worker outlives the call.
            pool.shutdown(wait=True, cancel_futures=True)
    result.distinct_schedules = len(seen_digests)
    return result


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


#: ``(scenario, walk index, walk seed, tie_choices, delay_bound_us)``.
_Job = Tuple[CheckScenario, int, int, int, float]


def _walk(job: _Job) -> Tuple[CheckScenario, str, List[Violation],
                              Decisions]:
    """Run and verify walk ``i`` of ``scenario``: a pure function of
    its job, so any process may run it.

    Returns ``(variant, digest, violations, decisions)``.
    """
    scenario, i, walk_seed, tie_choices, delay_bound_us = job
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
    policy = RandomWalkPolicy(seed=walk_seed, tie_choices=tie_choices,
                              delay_bound_us=delay_bound_us)
    outcome = run_schedule(variant, policy)
    return variant, outcome.digest, verify_outcome(outcome), \
        policy.decisions


def _pickled_walk(job: _Job) -> bytes:
    """:func:`_walk` in a pool worker, its result (or the exception it
    raised) pickled for the consuming thread to load.

    A chunk of walks comes back whole or not at all, so a walk that
    raises ships its exception as its result: the walks before it are
    still reported, and :func:`_unpickled_walk` raises it in its turn
    (without the worker's traceback; the one-CPU path keeps it).
    """
    try:
        return pickle.dumps((None, _walk(job)))
    except Exception as error:  # re-raised by the consumer
        return pickle.dumps((error, None))


def _unpickled_walk(blob: bytes) -> Tuple[CheckScenario, str,
                                          List[Violation], Decisions]:
    """Load one :func:`_pickled_walk` result; raise what it raised."""
    error, walk = pickle.loads(blob)
    if error is not None:
        raise error
    return walk
