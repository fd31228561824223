"""The operator observatory: human-readable views of a journal.

Renders a dependability event journal (live, or reloaded from its
JSONL artifact) the way an operator consumes it: an annotated
timeline, a summary with the derived availability/MTTR figures and
the injected-fault cross-check, and a self-contained HTML report for
sharing — ``python -m repro observe`` is the CLI wrapper.
"""

from __future__ import annotations

import html
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.journal.availability import (
    AvailabilityReport,
    availability_report,
    discover_shards,
    match_faults,
    per_shard_reports,
)
from repro.journal.events import JournalEvent

#: Display tag per event-kind prefix, in match order.
JOURNAL_TAGS: Tuple[Tuple[str, str], ...] = (
    ("fault.inject", "FAULT"),
    ("fault.restart_skipped", "FAULT"),
    ("partition", "PARTITION"),
    ("client.breaker_open", "BREAKER"),
    ("detector.suspect", "DETECT"),
    ("membership.view", "GROUP"),
    ("daemon.install", "VIEW"),
    ("checkpoint", "CKPT"),
    ("switch", "SWITCH"),
    ("failover", "FAILOVER"),
    ("state.sync", "SYNC"),
    ("adaptation.decision", "ADAPT"),
    ("contract", "CONTRACT"),
    ("client.giveup", "GIVEUP"),
)

_STATE_COLOURS = {"up": "#2e7d32", "degraded": "#f9a825",
                  "down": "#c62828"}


def _tag(kind: str) -> str:
    for prefix, tag in JOURNAL_TAGS:
        if kind == prefix or kind.startswith(prefix + "."):
            return tag
    return "EVENT"


def _describe(event: JournalEvent) -> str:
    """One-line human description of an event's payload."""
    attrs = event.attrs
    if event.kind == "fault.inject":
        until = attrs.get("until_us")
        window = (f" until {float(until) / 1e6:.3f} s"
                  if until else "")
        return (f"inject {attrs.get('fault')} on {attrs.get('target')}"
                f" at {float(attrs.get('at_us', 0.0)) / 1e6:.3f} s{window}")
    if event.kind == "detector.suspect":
        return f"suspect {attrs.get('newly')}"
    if event.kind == "membership.view":
        parts = [f"group {attrs.get('group')} view {attrs.get('view_id')}"]
        if attrs.get("joined"):
            parts.append(f"+{attrs['joined']}")
        if attrs.get("left"):
            parts.append(f"-{attrs['left']}"
                         + (" (crashed)" if attrs.get("crashed") else ""))
        return " ".join(parts)
    if event.kind == "daemon.install":
        return (f"daemon view {attrs.get('view_id')} "
                f"members {attrs.get('members')} dead {attrs.get('dead')}")
    if event.kind.startswith("checkpoint"):
        return (f"{event.kind.split('.', 1)[1]} #{attrs.get('ckpt_id')} "
                f"({attrs.get('state_bytes', attrs.get('source', ''))})")
    if event.kind.startswith("switch"):
        return (f"{attrs.get('switch_id')} "
                f"[{event.kind.split('.', 1)[1]}]")
    if event.kind == "adaptation.decision":
        return (f"{attrs.get('from_style')} -> {attrs.get('to_style')} "
                f"at {attrs.get('rate_per_s', 0.0):.0f} req/s "
                f"({attrs.get('voters', 1)} voter(s))")
    if event.kind.startswith("contract."):
        return (f"{attrs.get('contract')} {event.kind.split('.', 1)[1]} "
                f"({attrs.get('metric')}={attrs.get('value')})")
    if event.kind == "failover":
        return f"{attrs.get('member')} takes over as primary"
    if event.kind == "state.sync":
        return f"{attrs.get('member')} synced"
    if event.kind == "fault.restart_skipped":
        return (f"restart of {attrs.get('target')} skipped (host down); "
                f"crash-only semantics apply")
    if event.kind == "partition.detected":
        return (f"minority component {attrs.get('live')} of "
                f"{attrs.get('members')}")
    if event.kind == "partition.wedged":
        return (f"wedged with {attrs.get('live')}; "
                f"groups {attrs.get('groups')} degraded")
    if event.kind == "partition.healed":
        return (f"merged into daemon view {attrs.get('view_id')} "
                f"members {attrs.get('members')}")
    if event.kind == "client.breaker_open":
        return (f"circuit open on {attrs.get('endpoint')} after "
                f"{attrs.get('timeouts')} timeout(s); rerouting")
    if event.kind == "client.giveup":
        return (f"gave up on {attrs.get('request_id')} after "
                f"{attrs.get('attempts')} attempts")
    return " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))


def render_journal(events: Iterable[JournalEvent],
                   limit: Optional[int] = None,
                   kind: Optional[str] = None) -> str:
    """The journal as ``[   t.tttt s] TAG  host  description`` lines."""
    chosen: List[JournalEvent] = sorted(
        events, key=lambda e: (e.time_us, e.seq))
    if kind:
        chosen = [e for e in chosen
                  if e.kind == kind or e.kind.startswith(kind + ".")]
    if limit is not None:
        chosen = chosen[:limit]
    return "\n".join(
        f"[{e.time_us / 1e6:10.4f} s] {_tag(e.kind):9s} "
        f"{e.host:8s} "
        + (f"[{e.shard}] " if e.shard is not None else "")
        + _describe(e)
        for e in chosen)


def journal_summary(events: Sequence[JournalEvent],
                    window_start_us: Optional[float] = None,
                    window_end_us: Optional[float] = None) -> str:
    """Availability accounting plus fault cross-check, as text."""
    report = availability_report(events, window_start_us=window_start_us,
                                 window_end_us=window_end_us)
    matches = match_faults(events)
    lines = [
        f"{len(list(events))} events over "
        f"{report.span_us / 1e6:.3f} s",
        f"availability {report.availability * 100:.3f} % "
        f"(down {report.downtime_us / 1e6:.3f} s over "
        f"{report.n_outages} outage(s), "
        f"degraded {report.degraded_fraction * 100:.2f} %)",
        f"MTTR {report.mttr_us / 1e6:.3f} s, "
        f"MTTF {report.mttf_us / 1e6:.3f} s, "
        f"{report.false_positives} false positive(s)",
    ]
    # Per-shard rollup, only for journals whose events carry
    # first-class shard tags (cluster runs) — single-group artifacts
    # keep the exact pre-shard summary.
    if any(e.shard is not None for e in events):
        shards = discover_shards(events)
        reports = per_shard_reports(events,
                                    window_start_us=window_start_us,
                                    window_end_us=window_end_us,
                                    shards=shards)
        if reports:
            lines.append("")
            lines.append(f"{'shard':12s} {'avail %':>8s} "
                         f"{'down [s]':>9s} {'MTTR [s]':>9s} "
                         f"{'outages':>8s}")
            for shard in sorted(reports):
                r = reports[shard]
                lines.append(f"{shard:12s} {r.availability * 100:8.3f} "
                             f"{r.downtime_us / 1e6:9.3f} "
                             f"{r.mttr_us / 1e6:9.3f} "
                             f"{r.n_outages:8d}")
    if matches:
        lines.append("")
        lines.append(f"{'fault':14s} {'target':18s} {'at [s]':>8s} "
                     f"{'detected by':22s} {'latency [s]':>12s}")
        for m in matches:
            if m.detected:
                detected = m.detected_kind or ""
                latency = f"{m.detection_latency_us / 1e6:12.3f}"
            else:
                detected, latency = "MISSED", f"{'-':>12s}"
            lines.append(f"{m.fault_kind:14s} {m.target:18s} "
                         f"{m.at_us / 1e6:8.3f} {detected:22s} {latency}")
    return "\n".join(lines)


def journal_html(events: Sequence[JournalEvent],
                 title: str = "Dependability journal",
                 window_start_us: Optional[float] = None,
                 window_end_us: Optional[float] = None) -> str:
    """A self-contained HTML report: summary, availability band,
    fault cross-check and the full event table."""
    report = availability_report(events, window_start_us=window_start_us,
                                 window_end_us=window_end_us)
    matches = match_faults(events)
    ordered = sorted(events, key=lambda e: (e.time_us, e.seq))

    band = _availability_band(report)
    fault_rows = "".join(
        "<tr><td>{}</td><td>{}</td><td>{:.3f}</td><td>{}</td>"
        "<td>{}</td></tr>".format(
            html.escape(m.fault_kind), html.escape(m.target),
            m.at_us / 1e6,
            html.escape(m.detected_kind) if m.detected
            else "<b>MISSED</b>",
            f"{m.detection_latency_us / 1e6:.3f} s" if m.detected else "—")
        for m in matches)
    event_rows = "".join(
        "<tr><td>{:.4f}</td><td>{}</td><td>{}</td><td>{}</td>"
        "<td>{}</td></tr>".format(
            e.time_us / 1e6, html.escape(e.host),
            html.escape(f"{e.component}/{e.kind}"),
            html.escape(_describe(e)),
            e.trace_id if e.trace_id is not None else "")
        for e in ordered)
    return f"""<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>{html.escape(title)}</title>
<style>
body {{ font-family: sans-serif; margin: 2em; }}
table {{ border-collapse: collapse; margin: 1em 0; }}
td, th {{ border: 1px solid #ccc; padding: 2px 8px;
          font-size: 13px; text-align: left; }}
.band {{ display: flex; height: 18px; width: 100%;
         border: 1px solid #888; }}
.figures td {{ border: none; padding-right: 2em; }}
</style></head><body>
<h1>{html.escape(title)}</h1>
<table class="figures"><tr>
<td><b>availability</b> {report.availability * 100:.3f} %</td>
<td><b>MTTR</b> {report.mttr_us / 1e6:.3f} s</td>
<td><b>MTTF</b> {report.mttf_us / 1e6:.3f} s</td>
<td><b>outages</b> {report.n_outages}</td>
<td><b>degraded</b> {report.degraded_fraction * 100:.2f} %</td>
<td><b>false positives</b> {report.false_positives}</td>
<td><b>events</b> {len(ordered)}</td>
</tr></table>
<div class="band">{band}</div>
<h2>Injected faults vs detection</h2>
<table><tr><th>fault</th><th>target</th><th>at [s]</th>
<th>detected by</th><th>latency</th></tr>{fault_rows}</table>
<h2>Events</h2>
<table><tr><th>t [s]</th><th>host</th><th>kind</th><th>detail</th>
<th>trace</th></tr>{event_rows}</table>
</body></html>
"""


def _availability_band(report: AvailabilityReport) -> str:
    """The up/degraded/down windows as proportional coloured strips."""
    if report.span_us <= 0:
        return ""
    strips = []
    for window in report.windows:
        width = 100.0 * window.duration_us / report.span_us
        colour = _STATE_COLOURS.get(window.state, "#999")
        strips.append(
            f'<div style="width:{width:.2f}%;background:{colour}" '
            f'title="{window.state} '
            f'{window.start_us / 1e6:.3f}-{window.end_us / 1e6:.3f} s">'
            f"</div>")
    return "".join(strips)
