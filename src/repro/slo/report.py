"""Operator-facing SLO renderings: status tables, alert log, HTML.

Text renderings back the ``repro slo`` CLI; the HTML fleet panel is
the per-shard complement of the observatory's journal page — one
budget bar per (spec, shard), colored by how much budget is left.
"""

from __future__ import annotations

import html as _html
from typing import List, Optional, Sequence

from repro.journal.events import JournalEvent
from repro.slo.alerts import match_fault_alerts, unmatched_alerts
from repro.slo.engine import BurnRateAlert, ErrorBudget, SloOutcome


def _ms(value_us: Optional[float]) -> str:
    if value_us is None:
        return "-"
    return f"{value_us / 1000.0:.1f}ms"


def _budget_status(budget: ErrorBudget) -> str:
    return "BREACH" if budget.exhausted else "ok"


def slo_status(outcome: SloOutcome) -> str:
    """Per-shard budget table (the ``repro slo status`` body)."""
    lines: List[str] = []
    span_ms = (outcome.window_end_us - outcome.window_start_us) / 1000.0
    lines.append(f"SLO status over {span_ms:.1f}ms window "
                 f"({len(outcome.shards)} shard(s), "
                 f"{len(outcome.budgets)} objective(s))")
    header = (f"  {'shard':12s} {'spec':18s} {'target':>8s} "
              f"{'budget':>10s} {'consumed':>10s} {'left':>7s} "
              f"{'alerts':>6s}  status")
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    for budget in outcome.budgets:
        n_alerts = sum(1 for a in outcome.alerts
                       if a.shard == budget.shard
                       and a.spec_name == budget.spec_name)
        left_pct = (100.0 * budget.remaining_us / budget.budget_us
                    if budget.budget_us > 0 else 0.0)
        lines.append(
            f"  {budget.shard:12s} {budget.spec_name:18s} "
            f"{budget.availability_target:8.4f} "
            f"{_ms(budget.budget_us):>10s} "
            f"{_ms(budget.consumed_us):>10s} "
            f"{left_pct:6.1f}% {n_alerts:6d}  "
            f"{_budget_status(budget)}")
    if not outcome.budgets:
        lines.append("  (no shards discovered in the journal)")
    return "\n".join(lines)


def _alert_line(alert: BurnRateAlert) -> str:
    cleared = (_ms(alert.cleared_at_us)
               if alert.cleared_at_us is not None else "active")
    return (f"  {alert.shard:12s} {alert.spec_name:18s} "
            f"fired {_ms(alert.fired_at_us):>10s} "
            f"cleared {cleared:>10s} "
            f"fast {alert.fast_burn:8.1f}x slow {alert.slow_burn:8.1f}x "
            f"(threshold {alert.threshold:.1f}x)")


def slo_alerts(outcome: SloOutcome) -> str:
    """Burn-rate alert log (the ``repro slo alerts`` body)."""
    lines = [f"{len(outcome.alerts)} burn-rate alert(s)"]
    for alert in outcome.alerts:
        lines.append(_alert_line(alert))
    if not outcome.alerts:
        lines.append("  (no alerts fired)")
    return "\n".join(lines)


def slo_report(events: Sequence[JournalEvent],
               outcome: SloOutcome) -> str:
    """Full report: status + alerts + the fault/alert cross-check."""
    sections = [slo_status(outcome), "", slo_alerts(outcome), ""]
    matches = match_fault_alerts(events, outcome)
    total, spurious = unmatched_alerts(events, outcome)
    sections.append(f"fault/alert cross-check: "
                    f"{len(matches)} injected outage fault(s), "
                    f"{sum(1 for m in matches if m.ok)} consistent, "
                    f"{spurious} spurious alert(s)")
    for match in matches:
        verdict = "ok" if match.ok else "INCONSISTENT"
        expect = ("1 alert" if match.budget_exhausted
                  else "0 alerts (within budget)")
        sections.append(
            f"  {match.fault_kind:14s} -> {match.target:12s} "
            f"shard {str(match.shard):12s} at {_ms(match.at_us):>10s} "
            f"expected {expect}, saw {match.n_alerts}  [{verdict}]")
    return "\n".join(sections)


_BAR_COLOURS = {"ok": "#2f9e44", "warn": "#e8a33d", "breach": "#d64545"}


def slo_html(outcome: SloOutcome, title: str = "SLO fleet panel") -> str:
    """Self-contained HTML fleet panel: one budget bar per objective."""
    rows: List[str] = []
    for budget in outcome.budgets:
        used = (budget.consumed_us / budget.budget_us
                if budget.budget_us > 0 else 1.0)
        pct = min(used * 100.0, 100.0)
        colour = _BAR_COLOURS["ok"]
        if budget.exhausted:
            colour = _BAR_COLOURS["breach"]
        elif used > 0.5:
            colour = _BAR_COLOURS["warn"]
        n_alerts = sum(1 for a in outcome.alerts
                       if a.shard == budget.shard
                       and a.spec_name == budget.spec_name)
        label = (f"{_html.escape(budget.shard)} · "
                 f"{_html.escape(budget.spec_name)} · "
                 f"target {budget.availability_target:.4f} · "
                 f"{_ms(budget.consumed_us)} of "
                 f"{_ms(budget.budget_us)} spent · "
                 f"{n_alerts} alert(s)")
        rows.append(
            f'<div class="slo"><div class="label">{label}</div>'
            f'<div class="bar"><div class="fill" style="width:'
            f'{pct:.1f}%;background:{colour}"></div></div></div>')
    alerts = "".join(
        f'<li>{_html.escape(a.shard)} / {_html.escape(a.spec_name)}: '
        f'fired {_ms(a.fired_at_us)}, '
        f'{"cleared " + _ms(a.cleared_at_us) if a.cleared_at_us is not None else "still active"} '
        f'(fast {a.fast_burn:.1f}x / slow {a.slow_burn:.1f}x)</li>'
        for a in outcome.alerts) or "<li>no alerts fired</li>"
    return f"""<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>{_html.escape(title)}</title>
<style>
body {{ font-family: system-ui, sans-serif; margin: 2em; }}
.slo {{ margin-bottom: 0.8em; }}
.label {{ font-size: 0.85em; color: #333; margin-bottom: 2px; }}
.bar {{ background: #eee; border-radius: 3px; height: 14px;
        overflow: hidden; }}
.fill {{ height: 100%; }}
ul {{ font-size: 0.85em; color: #333; }}
</style></head>
<body>
<h1>{_html.escape(title)}</h1>
<p>{len(outcome.shards)} shard(s), {len(outcome.budgets)} objective(s),
{len(outcome.breached)} breached, {len(outcome.alerts)} alert(s).</p>
{"".join(rows)}
<h2>Burn-rate alerts</h2>
<ul>{alerts}</ul>
</body></html>
"""
