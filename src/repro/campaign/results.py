"""Append-only campaign results store and dependability scoring.

Results live in a JSONL file: one self-contained record per trial,
each stamped with a schema version.  Append-only + one-line-per-trial
is what makes DAVOS-style checkpointing trivial — a campaign killed
mid-run leaves a valid store, and the next run skips every trial
already recorded (:meth:`ResultsStore.completed_ids`).

Records aggregate per knob configuration into
:class:`DependabilityScore` — the (dependability, latency, resource)
triple the ranking layer trades off, with resource cost computed by
the paper's :class:`~repro.core.cost.CostFunction`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from repro.canonical import canonical_json
from repro.campaign.spec import TrialSpec
from repro.core.cost import CostFunction
from repro.errors import ConfigurationError, Rule, check_fields

#: Bump on incompatible record layout changes; readers reject newer.
SCHEMA_VERSION = 1

_STATUSES = ("ok", "failed", "timeout")

#: The declared rules of a stored record's JSON form.
RECORD_RULES = (
    Rule(("schema",), int, le=SCHEMA_VERSION),
    Rule(("trial_id", "status"), str),
    Rule(("spec", "metrics"), dict),
    Rule(("error",), str, nullable=True),
)


@dataclass(frozen=True)
class TrialRecord:
    """One stored trial outcome."""

    trial_id: str
    status: str
    spec: Dict[str, object]
    metrics: Dict[str, object] = field(default_factory=dict)
    error: Optional[str] = None
    schema: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        if self.status not in _STATUSES:
            raise ConfigurationError(
                f"bad trial status {self.status!r}; "
                f"expected one of {_STATUSES}")

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_line(self) -> str:
        """Canonical single-line JSON (sorted keys: byte-stable)."""
        return canonical_json(
            {"schema": self.schema, "trial_id": self.trial_id,
             "status": self.status, "spec": self.spec,
             "metrics": self.metrics, "error": self.error})

    @classmethod
    def from_line(cls, line: str) -> "TrialRecord":
        """Parse one stored line; raises :class:`ConfigurationError`
        on a line that is not JSON or breaks :data:`RECORD_RULES` (a
        newer schema included)."""
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"corrupt results line: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigurationError("corrupt results line: not an object")
        data = {"spec": {}, "metrics": {}, **data}
        check_fields(data, RECORD_RULES, prefix="corrupt results line: ")
        return cls(trial_id=data["trial_id"], status=data["status"],
                   spec=data["spec"], metrics=data["metrics"],
                   error=data.get("error"), schema=data["schema"])


class ResultsStore:
    """Append-only JSONL store with resume support."""

    def __init__(self, path: str):
        self.path = path

    def exists(self) -> bool:
        """True when a results file is present on disk."""
        return os.path.exists(self.path)

    def append(self, record: TrialRecord) -> None:
        """Write one record and flush (a crash loses at most the
        in-flight line, never an earlier one)."""
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(record.to_line() + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def records(self) -> List[TrialRecord]:
        """All stored records (empty when the file does not exist).
        A trailing half-written line (killed mid-append) is dropped;
        corruption anywhere else raises."""
        if not self.exists():
            return []
        out: List[TrialRecord] = []
        with open(self.path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        for index, line in enumerate(lines):
            if not line.strip():
                continue
            try:
                out.append(TrialRecord.from_line(line))
            except ConfigurationError as exc:
                if index == len(lines) - 1:
                    break  # torn final write from an interrupted run
                raise ConfigurationError(
                    f"{self.path} line {index + 1}: {exc}") from None
        return out

    def completed_ids(self, include_failed: bool = False) -> Set[str]:
        """Trial ids to skip on resume.  Failed/timed-out trials are
        retried by default; pass ``include_failed=True`` to keep them."""
        return {r.trial_id for r in self.records()
                if r.ok or include_failed}

    def clear(self) -> None:
        """Start over (``--fresh``)."""
        if self.exists():
            os.remove(self.path)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DependabilityScore:
    """Per-configuration aggregate over every fault load and seed.

    ``dependability`` folds the three request-visible dependability
    measures into one 0..1 figure: the probability that an offered
    request is answered, on time, by a service that is up.
    """

    config_key: str
    style: str
    n_replicas: int
    checkpoint_interval: int
    n_clients: int
    n_trials: int
    availability: float
    failed_fraction: float
    late_fraction: float
    mean_recovery_us: float
    latency_us: float
    bandwidth_mbps: float
    resource_cost: float

    @property
    def dependability(self) -> float:
        return (self.availability * (1.0 - self.failed_fraction)
                * (1.0 - self.late_fraction))

    @property
    def faults_tolerated(self) -> int:
        return self.n_replicas - 1


def aggregate_scores(records: Iterable[TrialRecord],
                     cost_function: Optional[CostFunction] = None
                     ) -> List[DependabilityScore]:
    """Group ``ok`` records by knob configuration and average the
    dependability metrics; failed/timed-out trials count as total
    outages (availability 0, everything failed) so a configuration
    that crashes the harness cannot score well by dying early."""
    cost = cost_function or CostFunction()
    groups: Dict[str, List[TrialRecord]] = {}
    for record in records:
        spec = TrialSpec.from_dict(dict(record.spec))
        groups.setdefault(spec.config_key, []).append(record)

    scores = []
    for key in sorted(groups):
        group = groups[key]
        spec = TrialSpec.from_dict(dict(group[0].spec))
        n = len(group)

        def mean(metric: str, fallback: float) -> float:
            total = 0.0
            for record in group:
                if record.ok:
                    total += float(record.metrics.get(metric, fallback))
                else:
                    total += fallback
            return total / n

        latency = mean("latency_mean_us", spec.deadline_us)
        bandwidth = mean("bandwidth_mbps", 0.0)
        scores.append(DependabilityScore(
            config_key=key, style=spec.style,
            n_replicas=spec.n_replicas,
            checkpoint_interval=spec.checkpoint_interval,
            n_clients=spec.n_clients, n_trials=n,
            availability=mean("availability", 0.0),
            failed_fraction=mean("failed_fraction", 1.0),
            late_fraction=mean("late_fraction", 1.0),
            mean_recovery_us=mean("mean_recovery_us", spec.duration_us),
            latency_us=latency, bandwidth_mbps=bandwidth,
            resource_cost=cost.cost(latency, bandwidth)))
    return scores
