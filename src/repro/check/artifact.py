"""Repro artifacts: violations as replayable files.

A violating schedule is only useful if someone else can *see* it.  The
artifact captures the complete identity of a schedule — scenario
parameters, policy configuration and the recorded decision trace —
plus the outcome digest and the violations found, as one sorted-keys
JSON file.  Replaying feeds the recorded decisions back through a
:class:`repro.check.policies.ReplayPolicy`; the outcome digest must
match byte-for-byte, otherwise the replay *drifted* and the artifact
is reported as stale rather than silently trusted.

:func:`minimize` greedily shrinks the scenario (fewer requests, then
a shorter horizon cap) while re-exploring with the same walk seed,
keeping each shrink only if the violation persists — the emitted
artifact is the smallest variant that still fails.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional

from repro.check.explorer import ScheduleReport, verify_outcome
from repro.check.invariants import Violation
from repro.check.policies import WALK_RULES, RandomWalkPolicy, ReplayPolicy
from repro.check.scenario import CheckScenario, run_schedule
from repro.errors import Rule, VerificationError, check_fields

#: Artifact schema version.  Version 3: a walk's waits end at the
#: first slice end at which the system is at rest, and each daemon has
#: one liveness timer, so a trace recorded under an older version
#: (fixed waits, then quiet periods and two timers) cannot replay.
ARTIFACT_VERSION = 3

#: The declared rules of an artifact's JSON form: its top level and
#: its policy section (:data:`SCENARIO_RULES` check the scenario).
ARTIFACT_RULES = (
    Rule(("scenario", "policy"), dict),
    Rule(("digest",), str),
    Rule(("violations",), list),
    Rule(("version",), int),
    Rule(("minimized",), bool),
)
POLICY_RULES = WALK_RULES + (Rule(("walk_seed",), int),
                             Rule(("decisions",), list))


@dataclass
class ReproArtifact:
    """One violating schedule, frozen for replay."""

    scenario: CheckScenario
    walk_seed: int
    tie_choices: int
    delay_bound_us: float
    decisions: List[Any]
    digest: str
    violations: List[Dict[str, Any]]
    minimized: bool = False

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict (sorted-keys on serialization)."""
        return {
            "version": ARTIFACT_VERSION,
            "scenario": self.scenario.to_dict(),
            "policy": {
                "walk_seed": self.walk_seed,
                "tie_choices": self.tie_choices,
                "delay_bound_us": self.delay_bound_us,
                "decisions": self.decisions,
            },
            "digest": self.digest,
            "violations": self.violations,
            "minimized": self.minimized,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ReproArtifact":
        """Inverse of :meth:`to_dict`; rejects another format version,
        a scenario section no schedule can honour and a policy section
        no recorded walk could have produced.  The values are checked
        as they are, never cast."""
        data = {"minimized": False, **data}
        try:
            check_fields(data, ARTIFACT_RULES, VerificationError)
            if data["version"] != ARTIFACT_VERSION:
                raise VerificationError(
                    f"version {data['version']} is not the supported "
                    f"{ARTIFACT_VERSION}")
            policy = data["policy"]
            check_fields(policy, POLICY_RULES, VerificationError,
                         prefix="policy ")
            artifact = cls(
                scenario=CheckScenario.from_dict(data["scenario"]),
                walk_seed=policy["walk_seed"],
                tie_choices=policy["tie_choices"],
                delay_bound_us=policy["delay_bound_us"],
                decisions=policy["decisions"], digest=data["digest"],
                violations=data["violations"],
                minimized=data["minimized"])
        except (TypeError, VerificationError) as exc:
            raise VerificationError(
                f"malformed repro artifact: {exc}") from None
        artifact._check_decisions()
        return artifact

    def _check_decisions(self) -> None:
        """A decision is a tie-break rank (``int`` in ``[0,
        tie_choices)``) or a frame delay (``float`` in ``[0,
        delay_bound_us]``).  Replay feeds them to the kernel unchecked,
        so a negative, NaN or mistyped one must stop here."""
        for index, value in enumerate(self.decisions):
            # Exact types: bool is an int subclass, and JSON has no
            # other spelling for either kind of decision.
            if type(value) is int and 0 <= value < self.tie_choices:
                continue
            if type(value) is float \
                    and 0.0 <= value <= self.delay_bound_us:
                continue
            raise VerificationError(
                f"malformed repro artifact: decision {index} is "
                f"{value!r}, expected an int in [0, {self.tie_choices}) "
                f"or a float in [0, {self.delay_bound_us}]")


def artifact_from_report(report: ScheduleReport, tie_choices: int,
                         delay_bound_us: float,
                         minimized: bool = False) -> ReproArtifact:
    """Build an artifact from one violating exploration report."""
    return ReproArtifact(
        scenario=report.scenario,
        walk_seed=report.walk_seed,
        tie_choices=tie_choices,
        delay_bound_us=delay_bound_us,
        decisions=list(report.decisions),
        digest=report.digest,
        violations=[v.to_dict() for v in report.violations],
        minimized=minimized)


def write_artifact(artifact: ReproArtifact, path: str) -> None:
    """Write the artifact as sorted-keys JSON (trailing newline)."""
    with open(path, "w") as handle:
        json.dump(artifact.to_dict(), handle, sort_keys=True, indent=2)
        handle.write("\n")


def load_artifact(path: str) -> ReproArtifact:
    """Load an artifact written by :func:`write_artifact`; raises
    :class:`VerificationError` naming ``path`` when it cannot."""
    try:
        with open(path) as handle:
            data = json.load(handle)
        if not isinstance(data, dict):
            raise VerificationError("repro artifact is not a JSON object")
        return ReproArtifact.from_dict(data)
    except (OSError, ValueError, VerificationError) as exc:
        raise VerificationError(
            f"cannot load artifact {path}: {exc}") from None


@dataclass
class ReplayResult:
    """Outcome of replaying one artifact."""

    identical: bool
    digest: str
    expected_digest: str
    violations: List[Violation] = field(default_factory=list)

    @property
    def reproduced(self) -> bool:
        """True when the replay was byte-identical *and* the
        violations reappeared."""
        return self.identical and bool(self.violations)


def replay(artifact: ReproArtifact) -> ReplayResult:
    """Replay an artifact's schedule, decision for decision."""
    policy = ReplayPolicy(artifact.decisions,
                          delay_bound_us=artifact.delay_bound_us)
    outcome = run_schedule(artifact.scenario, policy)
    return ReplayResult(
        identical=(outcome.digest == artifact.digest),
        digest=outcome.digest,
        expected_digest=artifact.digest,
        violations=verify_outcome(outcome))


def _still_fails(scenario: CheckScenario, walk_seed: int,
                 tie_choices: int, delay_bound_us: float
                 ) -> Optional[ScheduleReport]:
    policy = RandomWalkPolicy(seed=walk_seed, tie_choices=tie_choices,
                              delay_bound_us=delay_bound_us)
    outcome = run_schedule(scenario, policy)
    violations = verify_outcome(outcome)
    if not violations:
        return None
    return ScheduleReport(walk_seed=walk_seed, scenario=scenario,
                          digest=outcome.digest, fresh=True,
                          violations=violations,
                          decisions=policy.decisions)


def minimize(artifact: ReproArtifact) -> ReproArtifact:
    """Greedily shrink an artifact's scenario while it still fails.

    Tries, in order: halving the request count (repeatedly, floor 1),
    then shortening the horizon and settle caps.  Each candidate
    re-runs the walk with the *same* policy seed; a shrink is kept
    only when some violation persists.  The result replays
    byte-identically because its decision trace is re-recorded from
    the final minimized run.
    """
    best = _still_fails(artifact.scenario, artifact.walk_seed,
                        artifact.tie_choices, artifact.delay_bound_us)
    if best is None:
        # The artifact's exact decisions are needed to fail at all
        # (the fresh walk diverged); keep it as-is but mark minimized.
        return replace(artifact, minimized=True)

    def try_shrink(candidate: CheckScenario) -> bool:
        nonlocal best
        report = _still_fails(candidate, artifact.walk_seed,
                              artifact.tie_choices,
                              artifact.delay_bound_us)
        if report is not None:
            best = report
            return True
        return False

    while best.scenario.n_requests > 1:
        candidate = replace(best.scenario,
                            n_requests=max(1, best.scenario.n_requests // 2))
        if candidate.n_requests == best.scenario.n_requests \
                or not try_shrink(candidate):
            break
    for horizon_factor in (0.5, 0.25):
        candidate = replace(
            best.scenario,
            horizon_us=best.scenario.horizon_us * horizon_factor)
        if not try_shrink(candidate):
            break
    return artifact_from_report(best, artifact.tie_choices,
                                artifact.delay_bound_us, minimized=True)
