"""Schedule-space exploration and consistency verification.

The paper's safety claims — view-synchronous switch delivery, the
Fig. 5 on-the-fly style-switch protocol, and "no lost acked updates"
under crash faults — hold *per schedule*: a single deterministic run
exercises exactly one interleaving.  This subsystem searches the
schedule space instead of sampling it:

- :mod:`repro.check.policies` — pluggable kernel scheduling policies
  that perturb same-timestamp tie-breaks and add bounded message
  delays, recording every decision (a compact :class:`Decisions`
  trace) for byte-identical replay;
- :mod:`repro.check.history` — client-observed operation histories
  captured at the ORB boundary;
- :mod:`repro.check.linearizability` — a Wing–Gong single-object
  linearizability checker over those histories;
- :mod:`repro.check.invariants` — protocol invariant monitors over
  journal events (unique primary, view agreement, switch phase
  safety, no lost acknowledged updates);
- :mod:`repro.check.scenario` — the canonical crash/switch scenario
  and seedable protocol mutations;
- :mod:`repro.check.explorer` — the bounded random-walk exploration
  loop with state-digest deduplication;
- :mod:`repro.check.artifact` — minimized repro artifacts
  (seed + schedule-decision trace) that replay byte-identically;
- :mod:`repro.check.report` — human-readable rendering.

Layering: ``repro.check`` sits above ``repro.experiments`` (it drives
testbeds) and is imported by nothing below it; the kernel and network
only ever *duck-type* the policy object.
"""

from repro.check.artifact import (
    ReproArtifact,
    load_artifact,
    minimize,
    replay,
    write_artifact,
)
from repro.check.explorer import ExplorationResult, explore
from repro.check.history import HistoryRecorder, Operation
from repro.check.invariants import (
    Violation,
    check_counter_consistency,
    check_invariants,
)
from repro.check.linearizability import (
    CounterSpec,
    IncrementSpec,
    LinearizabilityResult,
    check_linearizability,
)
from repro.check.policies import (
    Decisions,
    RandomWalkPolicy,
    ReplayPolicy,
    SchedulerPolicy,
)
from repro.check.report import render_exploration, render_outcome
from repro.check.scenario import (
    CHECKPOINT_PHASES,
    MUTATIONS,
    CheckScenario,
    ScheduleOutcome,
    canonical_checkpoint_crash_scenario,
    canonical_partition_scenario,
    canonical_scenario,
    run_schedule,
)

__all__ = [
    "CHECKPOINT_PHASES",
    "CheckScenario",
    "CounterSpec",
    "Decisions",
    "ExplorationResult",
    "HistoryRecorder",
    "IncrementSpec",
    "LinearizabilityResult",
    "MUTATIONS",
    "Operation",
    "RandomWalkPolicy",
    "ReplayPolicy",
    "ReproArtifact",
    "ScheduleOutcome",
    "SchedulerPolicy",
    "Violation",
    "canonical_checkpoint_crash_scenario",
    "canonical_partition_scenario",
    "canonical_scenario",
    "check_counter_consistency",
    "check_invariants",
    "check_linearizability",
    "explore",
    "load_artifact",
    "minimize",
    "render_exploration",
    "render_outcome",
    "replay",
    "run_schedule",
    "write_artifact",
]
