"""The SLO engine: error-budget ledgers and burn-rate alerts.

Compiles declarative :class:`~repro.slo.spec.SloSpec`s against the
journal's per-shard availability windows:

- an **error-budget ledger** per (spec, shard): how much downtime the
  target tolerated over the window, how much the shard actually spent,
  and the instant the budget ran dry;
- **burn-rate alerts** per (spec, shard): the classic multi-window
  pair — an alert fires at the first instant both the fast and the
  slow trailing window consume budget faster than ``burn_threshold``,
  stays active while the fast window still burns, and a later breach
  opens a *new* alert.  One contiguous outage therefore produces
  exactly one alert, which is what the fault/alert cross-check in
  :mod:`repro.slo.alerts` verifies.

Everything here is pure arithmetic over the (already deterministic)
event stream: burn rates are evaluated on a fixed grid anchored at the
window start, so the same journal always yields byte-identical ledgers
— serial or parallel, like every other artifact in this repo.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.canonical import canonical_json
from repro.journal.availability import (
    AvailabilityReport,
    discover_shards,
    per_shard_reports,
)
from repro.journal.events import JournalEvent
from repro.slo.spec import ALL_SHARDS, SloSpec, default_slo_specs

#: Burn-rate evaluation grid step: fine enough to land inside any
#: fast window the stock specs use, coarse enough to stay cheap.
DEFAULT_EVAL_STEP_US = 50_000.0


@dataclass(frozen=True)
class ErrorBudget:
    """The budget ledger of one (spec, shard) pair over one window."""

    spec_name: str
    shard: str
    availability_target: float
    window_start_us: float
    window_end_us: float
    budget_us: float
    consumed_us: float
    exhausted_at_us: Optional[float] = None

    @property
    def remaining_us(self) -> float:
        return max(self.budget_us - self.consumed_us, 0.0)

    @property
    def exhausted(self) -> bool:
        return self.consumed_us > self.budget_us

    @property
    def ok(self) -> bool:
        return not self.exhausted

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready ledger row."""
        out: Dict[str, Any] = {
            "spec": self.spec_name,
            "shard": self.shard,
            "target": self.availability_target,
            "window_start_us": self.window_start_us,
            "window_end_us": self.window_end_us,
            "budget_us": self.budget_us,
            "consumed_us": self.consumed_us,
            "remaining_us": self.remaining_us,
            "exhausted": self.exhausted,
            "ok": self.ok,
        }
        if self.exhausted_at_us is not None:
            out["exhausted_at_us"] = self.exhausted_at_us
        return out


@dataclass(frozen=True)
class BurnRateAlert:
    """One burn-rate breach episode of one (spec, shard) pair."""

    spec_name: str
    shard: str
    fired_at_us: float
    cleared_at_us: Optional[float]
    fast_burn: float
    slow_burn: float
    threshold: float

    @property
    def active(self) -> bool:
        return self.cleared_at_us is None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready alert row (``cleared_at_us`` null while active)."""
        return {
            "spec": self.spec_name,
            "shard": self.shard,
            "fired_at_us": self.fired_at_us,
            "cleared_at_us": self.cleared_at_us,
            "fast_burn": self.fast_burn,
            "slow_burn": self.slow_burn,
            "threshold": self.threshold,
        }


@dataclass(frozen=True)
class SloOutcome:
    """Everything one evaluation produced, in deterministic order."""

    budgets: Tuple[ErrorBudget, ...]
    alerts: Tuple[BurnRateAlert, ...]
    window_start_us: float
    window_end_us: float

    @property
    def shards(self) -> Tuple[str, ...]:
        return tuple(sorted({b.shard for b in self.budgets}))

    @property
    def breached(self) -> Tuple[ErrorBudget, ...]:
        return tuple(b for b in self.budgets if not b.ok)

    @property
    def ok(self) -> bool:
        return not self.breached

    def verdict(self) -> Dict[str, Any]:
        """Compact per-trial verdict for campaign records."""
        return {
            "slos": len(self.budgets),
            "breached": len(self.breached),
            "alerts": len(self.alerts),
            "ok": self.ok,
        }

    def ledger_jsonl(self) -> str:
        """Canonical JSONL of the ledger + alerts: the byte-identity
        artifact (sorted keys, compact separators, trailing newline)."""
        lines = [canonical_json(row)
                 for row in ([b.to_dict() for b in self.budgets]
                             + [a.to_dict() for a in self.alerts])]
        return "\n".join(lines) + ("\n" if lines else "")

    def journal_events(self, host: str = "fleet",
                       seq_start: int = 0) -> List[JournalEvent]:
        """The outcome as first-class journal events.

        ``slo.budget`` per ledger row and ``slo.alert`` per breach
        episode, ordered and sequence-stamped so they can ride in a
        JSONL artifact next to the raw stream (component ``slo``).
        """
        events: List[JournalEvent] = []
        seq = seq_start
        for budget in self.budgets:
            events.append(JournalEvent(
                seq=seq, time_us=self.window_end_us, host=host,
                component="slo", kind="slo.budget", shard=budget.shard,
                attrs=budget.to_dict()))
            seq += 1
        for alert in self.alerts:
            events.append(JournalEvent(
                seq=seq, time_us=alert.fired_at_us, host=host,
                component="slo", kind="slo.alert", shard=alert.shard,
                attrs=alert.to_dict()))
            seq += 1
        return events


def _down_intervals(report: AvailabilityReport
                    ) -> List[Tuple[float, float]]:
    return [(w.start_us, w.end_us) for w in report.windows
            if w.state == "down"]


def _bad_in(intervals: Sequence[Tuple[float, float]],
            start: float, end: float) -> float:
    """Total bad time inside ``[start, end]``."""
    total = 0.0
    for s, e in intervals:
        lo = max(s, start)
        hi = min(e, end)
        if hi > lo:
            total += hi - lo
    return total


def _exhausted_at(intervals: Sequence[Tuple[float, float]],
                  budget_us: float) -> Optional[float]:
    """Instant cumulative bad time first *exceeds* the budget."""
    spent = 0.0
    for s, e in intervals:
        if spent + (e - s) > budget_us:
            return s + (budget_us - spent)
        spent += e - s
    return None


def _burn_rate(intervals: Sequence[Tuple[float, float]], now: float,
               window_us: float, window_start_us: float,
               target: float) -> float:
    """Budget-consumption speed over the trailing window ending at
    ``now`` (1.0 = consuming exactly the tolerated rate).

    Bad time is measured only inside the observed part of the trailing
    window, but the tolerated rate always uses the *nominal* window
    span: dividing by a start-clipped span would inflate burn early in
    the observation and let a blip clear the slow window — defeating
    exactly the suppression the multi-window pair exists for.
    """
    lo = max(now - window_us, window_start_us)
    if now <= lo:
        return 0.0
    tolerated = (1.0 - target) * window_us
    if tolerated <= 0:
        return 0.0
    return _bad_in(intervals, lo, now) / tolerated


def _alerts_for(spec: SloSpec, shard: str,
                intervals: Sequence[Tuple[float, float]],
                start: float, end: float,
                eval_step_us: float) -> List[BurnRateAlert]:
    """Walk the evaluation grid and cut breach episodes into alerts."""
    alerts: List[BurnRateAlert] = []
    active: Optional[Dict[str, float]] = None
    t = start
    while True:
        t = min(t, end)
        fast = _burn_rate(intervals, t, spec.fast_window_us, start,
                          spec.availability_target)
        slow = _burn_rate(intervals, t, spec.slow_window_us, start,
                          spec.availability_target)
        if active is None:
            if fast >= spec.burn_threshold \
                    and slow >= spec.burn_threshold:
                active = {"fired_at_us": t, "fast": fast, "slow": slow}
        elif fast < spec.burn_threshold:
            alerts.append(BurnRateAlert(
                spec_name=spec.name, shard=shard,
                fired_at_us=active["fired_at_us"], cleared_at_us=t,
                fast_burn=active["fast"], slow_burn=active["slow"],
                threshold=spec.burn_threshold))
            active = None
        if t >= end:
            break
        t += eval_step_us
    if active is not None:
        alerts.append(BurnRateAlert(
            spec_name=spec.name, shard=shard,
            fired_at_us=active["fired_at_us"], cleared_at_us=None,
            fast_burn=active["fast"], slow_burn=active["slow"],
            threshold=spec.burn_threshold))
    return alerts


def evaluate_slos(events: Sequence[JournalEvent],
                  specs: Optional[Sequence[SloSpec]] = None,
                  window_start_us: Optional[float] = None,
                  window_end_us: Optional[float] = None,
                  eval_step_us: float = DEFAULT_EVAL_STEP_US
                  ) -> SloOutcome:
    """Compile ``specs`` against the journal into one outcome."""
    if eval_step_us <= 0:
        raise ValueError("eval_step_us must be positive")
    specs = list(specs) if specs is not None else default_slo_specs()
    ordered = sorted(events, key=lambda e: (e.time_us, e.seq))
    universe = discover_shards(ordered)
    start = 0.0 if window_start_us is None else float(window_start_us)
    end = (max([e.time_us for e in ordered], default=start)
           if window_end_us is None else float(window_end_us))
    end = max(end, start)
    reports = per_shard_reports(ordered, window_start_us=start,
                                window_end_us=end, shards=universe)

    budgets: List[ErrorBudget] = []
    alerts: List[BurnRateAlert] = []
    for spec in specs:
        if spec.shard == ALL_SHARDS:
            shards = list(universe)
        else:
            shards = [spec.shard]
        for shard in shards:
            report = reports.get(shard)
            intervals = (_down_intervals(report)
                         if report is not None else [])
            budget_us = spec.budget_us(end - start)
            consumed = _bad_in(intervals, start, end)
            budgets.append(ErrorBudget(
                spec_name=spec.name, shard=shard,
                availability_target=spec.availability_target,
                window_start_us=start, window_end_us=end,
                budget_us=budget_us, consumed_us=consumed,
                exhausted_at_us=_exhausted_at(intervals, budget_us)))
            if end > start:
                alerts.extend(_alerts_for(spec, shard, intervals,
                                          start, end, eval_step_us))
    budgets.sort(key=lambda b: (b.spec_name, b.shard))
    alerts.sort(key=lambda a: (a.spec_name, a.shard, a.fired_at_us))
    return SloOutcome(budgets=tuple(budgets), alerts=tuple(alerts),
                      window_start_us=start, window_end_us=end)
