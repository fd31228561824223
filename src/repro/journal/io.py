"""Journal serialization: canonical JSONL plus the campaign digest.

The JSONL form is the journal's *artifact* format: one canonical JSON
object per line (sorted keys, no whitespace), so two runs with the
same seed produce byte-identical files — asserted in the regression
tests, and the property that lets a journal file stand in for the run
it came from.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.canonical import canonical_json
from repro.journal.availability import (
    availability_report,
    match_faults,
    per_shard_reports,
)
from repro.errors import ConfigurationError, check_fields
from repro.journal.events import ATTR_RULES, EVENT_RULES, JournalEvent


def event_to_line(event: JournalEvent) -> str:
    """One event as canonical JSON (sorted keys, compact separators)."""
    return canonical_json(event.to_dict())


def events_to_jsonl(events: Iterable[JournalEvent]) -> str:
    """The whole journal as JSONL (trailing newline included)."""
    lines = [event_to_line(event) for event in events]
    return "\n".join(lines) + ("\n" if lines else "")


def write_jsonl(events: Iterable[JournalEvent], path: str) -> int:
    """Write the journal to ``path``; returns the event count."""
    rendered = events_to_jsonl(events)
    with open(path, "w") as handle:
        handle.write(rendered)
    return rendered.count("\n")


def parse_jsonl(text: str) -> List[JournalEvent]:
    """Parse a JSONL journal back into events.

    Raises :class:`ConfigurationError` on a line that is not JSON,
    breaks :data:`EVENT_RULES`, or holds an attr that breaks
    :data:`ATTR_RULES` — a journal is a reproducible artifact,
    so corruption is an error, not a warning.
    """
    events = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"journal line {lineno} is not valid "
                                     f"JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"journal line {lineno} is not an object")
        data.setdefault("attrs", {})
        prefix = f"journal line {lineno} is not a journal event: "
        check_fields(data, EVENT_RULES, prefix=prefix)
        attrs = data["attrs"]
        for rule in ATTR_RULES:
            for name in rule.names:
                if name in attrs:
                    rule.check(f"{prefix}attrs.{name}", attrs[name])
        events.append(JournalEvent.from_dict(data))
    return events


def read_jsonl(path: str) -> List[JournalEvent]:
    """Load a journal file written by :func:`write_jsonl`; raises
    :class:`ConfigurationError` naming ``path`` when it cannot."""
    try:
        with open(path) as handle:
            return parse_jsonl(handle.read())
    except (OSError, UnicodeDecodeError, ConfigurationError) as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from None


def journal_digest(journal: Any,
                   window_start_us: Optional[float] = None,
                   window_end_us: Optional[float] = None
                   ) -> Dict[str, Any]:
    """Compact JSON digest of a journal, for campaign trial records.

    Mirrors ``telemetry_summary``: event totals, per-component counts,
    the derived availability/MTTR figures and the injected-fault
    cross-check (matched / missed / false positives).
    """
    events: Sequence[JournalEvent] = list(journal.events)
    by_component: Dict[str, int] = {}
    for event in events:
        by_component[event.component] = \
            by_component.get(event.component, 0) + 1
    report = availability_report(events, window_start_us=window_start_us,
                                 window_end_us=window_end_us)
    matches = match_faults(events)
    # Per-shard rollup only for journals with shard-tagged events
    # (cluster deployments): single-group digests keep their exact
    # pre-shard shape.
    tagged = tuple(sorted({e.shard for e in events
                           if e.shard is not None}))
    per_shard: Dict[str, Any] = {}
    if tagged:
        for shard, rep in per_shard_reports(
                events, window_start_us=window_start_us,
                window_end_us=window_end_us, shards=tagged).items():
            per_shard[shard] = {
                "availability": rep.availability,
                "degraded_fraction": rep.degraded_fraction,
                "downtime_us": rep.downtime_us,
                "mttr_us": rep.mttr_us,
                "mttf_us": rep.mttf_us,
                "outages": rep.n_outages,
            }
    return {
        **({"per_shard": per_shard} if per_shard else {}),
        "events": len(events),
        "dropped": journal.dropped,
        "by_component": dict(sorted(by_component.items())),
        "availability": report.availability,
        "degraded_fraction": report.degraded_fraction,
        "downtime_us": report.downtime_us,
        "mttr_us": report.mttr_us,
        "mttf_us": report.mttf_us,
        "outages": report.n_outages,
        "faults_injected": len(matches),
        "faults_matched": sum(1 for m in matches if m.detected),
        "faults_missed": sum(1 for m in matches if not m.detected),
        "false_positives": report.false_positives,
        "mean_detection_latency_us": (
            sum(m.detection_latency_us for m in matches if m.detected)
            / max(sum(1 for m in matches if m.detected), 1)),
    }
