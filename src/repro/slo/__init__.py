"""repro.slo — the dependability observability plane.

Turns the raw journal/telemetry streams into operator-grade signals,
per shard: declarative SLOs (:mod:`repro.slo.spec`), error-budget
ledgers and multi-window burn-rate alerts (:mod:`repro.slo.engine`),
a fault/alert consistency cross-check (:mod:`repro.slo.alerts`) and
the status / report / HTML renderings behind ``python -m repro slo``
(:mod:`repro.slo.report`).

Like journaling and telemetry, SLO evaluation is observation-only and
strictly post-hoc: it reads event streams, never schedules simulator
events, so enabling it changes no simulated outcome and leaves every
journal/telemetry artifact byte-identical.
"""

from repro.slo.alerts import AlertMatch, match_fault_alerts, unmatched_alerts
from repro.slo.engine import (
    DEFAULT_EVAL_STEP_US,
    BurnRateAlert,
    ErrorBudget,
    SloOutcome,
    evaluate_slos,
)
from repro.slo.report import slo_alerts, slo_html, slo_report, slo_status
from repro.slo.spec import (
    ALL_SHARDS,
    SloSpec,
    default_slo_specs,
    load_slo_specs,
)

__all__ = [
    "ALL_SHARDS",
    "AlertMatch",
    "BurnRateAlert",
    "DEFAULT_EVAL_STEP_US",
    "ErrorBudget",
    "SloOutcome",
    "SloSpec",
    "default_slo_specs",
    "evaluate_slos",
    "load_slo_specs",
    "match_fault_alerts",
    "slo_alerts",
    "slo_html",
    "slo_report",
    "slo_status",
    "unmatched_alerts",
]
