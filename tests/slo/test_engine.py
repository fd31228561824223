"""Error-budget ledgers and burn-rate alerts over synthetic journals."""

import pytest

from repro.journal import Journal
from repro.slo import (
    AlertMatch,
    SloSpec,
    evaluate_slos,
    match_fault_alerts,
    unmatched_alerts,
)

#: One evaluation window for every synthetic stream here: 10 s, so a
#: three-nines objective grants a 10 ms error budget.
WINDOW_US = 10_000_000.0


def outage_events(at_us, recover_us, shard="shard0", seq_base=None):
    """A crash on ``shard`` plus the membership view that closes it."""
    journal = Journal()
    journal.record(5.0, "s01", "gcs", "membership.view",
                   group=shard, view_id=1, left=[])
    journal.record(5.0, "s02", "gcs", "membership.view",
                   group="shard9", view_id=1, left=[])
    journal.record(at_us, "net", "injector", "fault.inject",
                   fault="process_crash", target=f"{shard}-r1",
                   at_us=at_us)
    journal.record(recover_us, "s01", "gcs", "membership.view",
                   group=shard, view_id=2,
                   left=[f"{shard}-r1#1@s01"], crashed=True)
    return journal.events


def evaluate(events, **kwargs):
    kwargs.setdefault("window_start_us", 0.0)
    kwargs.setdefault("window_end_us", WINDOW_US)
    return evaluate_slos(events, **kwargs)


class TestErrorBudget:
    def test_ledger_accounts_downtime_per_shard(self):
        outcome = evaluate(outage_events(1_000_000.0, 1_600_000.0))
        by_shard = {b.shard: b for b in outcome.budgets}
        assert set(by_shard) == {"shard0", "shard9"}
        assert by_shard["shard0"].budget_us == pytest.approx(10_000.0)
        assert by_shard["shard0"].consumed_us == pytest.approx(600_000.0)
        assert by_shard["shard0"].exhausted
        assert by_shard["shard9"].consumed_us == 0.0
        assert by_shard["shard9"].ok
        assert not outcome.ok
        assert [b.shard for b in outcome.breached] == ["shard0"]

    def test_exhausted_at_is_the_budget_crossing_instant(self):
        outcome = evaluate(outage_events(1_000_000.0, 1_600_000.0))
        budget = {b.shard: b for b in outcome.budgets}["shard0"]
        # 10 ms of budget burns dry 10 ms into the outage.
        assert budget.exhausted_at_us == pytest.approx(1_010_000.0)

    def test_within_budget_outage_stays_ok(self):
        outcome = evaluate(outage_events(1_000_000.0, 1_005_000.0))
        budget = {b.shard: b for b in outcome.budgets}["shard0"]
        assert budget.consumed_us == pytest.approx(5_000.0)
        assert not budget.exhausted
        assert budget.remaining_us == pytest.approx(5_000.0)
        assert outcome.ok


class TestBurnRateAlerts:
    def test_contiguous_outage_fires_exactly_one_alert(self):
        outcome = evaluate(outage_events(1_000_000.0, 1_600_000.0))
        assert len(outcome.alerts) == 1
        (alert,) = outcome.alerts
        assert alert.shard == "shard0"
        assert alert.fired_at_us >= 1_000_000.0
        assert alert.cleared_at_us is not None
        assert alert.cleared_at_us > 1_600_000.0
        assert not alert.active
        assert alert.fast_burn >= alert.threshold
        assert alert.slow_burn >= alert.threshold

    def test_short_blip_fires_no_alert(self):
        # 5 ms of downtime burns the fast window hard but never moves
        # the slow one past the threshold — the multi-window pair is
        # exactly what keeps blips off the pager.
        outcome = evaluate(outage_events(1_000_000.0, 1_005_000.0))
        assert outcome.alerts == ()

    def test_separate_outages_fire_separate_alerts(self):
        journal = Journal()
        for at, recover, view in ((1_000_000.0, 1_600_000.0, 2),
                                  (6_000_000.0, 6_600_000.0, 3)):
            journal.record(at, "net", "injector", "fault.inject",
                           fault="process_crash", target="shard0-r1",
                           at_us=at)
            journal.record(recover, "s01", "gcs", "membership.view",
                           group="shard0", view_id=view,
                           left=["shard0-r1#1@s01"], crashed=True)
        outcome = evaluate(journal.events)
        assert len(outcome.alerts) == 2
        first, second = outcome.alerts
        assert first.cleared_at_us is not None
        assert first.cleared_at_us <= second.fired_at_us

    def test_unrecovered_outage_leaves_alert_active(self):
        journal = Journal()
        journal.record(5.0, "s01", "gcs", "membership.view",
                       group="shard0", view_id=1, left=[])
        journal.record(9_000_000.0, "net", "injector", "fault.inject",
                       fault="process_crash", target="shard0-r1",
                       at_us=9_000_000.0)
        outcome = evaluate(journal.events)
        (alert,) = outcome.alerts
        assert alert.active
        assert alert.to_dict()["cleared_at_us"] is None


class TestDeterminism:
    def test_ledger_is_byte_identical_across_reruns(self):
        events = outage_events(1_000_000.0, 1_600_000.0)
        first = evaluate(events).ledger_jsonl()
        second = evaluate(events).ledger_jsonl()
        assert first == second

    def test_event_order_does_not_matter(self):
        events = outage_events(1_000_000.0, 1_600_000.0)
        shuffled = list(reversed(events))
        assert evaluate(events).ledger_jsonl() \
            == evaluate(shuffled).ledger_jsonl()

    def test_outcome_as_journal_events(self):
        outcome = evaluate(outage_events(1_000_000.0, 1_600_000.0))
        emitted = outcome.journal_events(host="fleet", seq_start=100)
        kinds = {e.kind for e in emitted}
        assert kinds == {"slo.budget", "slo.alert"}
        assert [e.seq for e in emitted] == list(
            range(100, 100 + len(emitted)))
        assert all(e.shard is not None for e in emitted)


class TestFaultAlertCrossCheck:
    def test_exhausting_fault_needs_exactly_one_alert(self):
        events = outage_events(1_000_000.0, 1_600_000.0)
        outcome = evaluate(events)
        (match,) = match_fault_alerts(events, outcome)
        assert match.shard == "shard0"
        assert match.budget_exhausted
        assert match.n_alerts == 1
        assert match.ok
        total, spurious = unmatched_alerts(events, outcome)
        assert (total, spurious) == (1, 0)

    def test_within_budget_fault_needs_zero_alerts(self):
        events = outage_events(1_000_000.0, 1_005_000.0)
        outcome = evaluate(events)
        (match,) = match_fault_alerts(events, outcome)
        assert not match.budget_exhausted
        assert match.n_alerts == 0
        assert match.ok

    def test_silent_pager_through_exhaustion_is_inconsistent(self):
        match = AlertMatch(fault_kind="process_crash",
                           target="shard0-r1", at_us=1.0,
                           shard="shard0", budget_exhausted=True,
                           n_alerts=0)
        assert not match.ok
        double = AlertMatch(fault_kind="process_crash",
                            target="shard0-r1", at_us=1.0,
                            shard="shard0", budget_exhausted=True,
                            n_alerts=2)
        assert not double.ok

    def test_unattributable_fault_is_not_checked(self):
        match = AlertMatch(fault_kind="process_crash", target="net",
                           at_us=1.0, shard=None,
                           budget_exhausted=False, n_alerts=0)
        assert match.ok
