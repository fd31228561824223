"""End-to-end acceptance: the observability plane over real journals.

The canonical crash scenario drives all three promises at once: a
budget-exhausting fault yields exactly one burn-rate alert, the
``repro slo`` CLI renders the per-shard ledger from the captured
journal, and SLO-annotated campaigns stay byte-identical whether they
run serially or across worker processes.
"""

import json

import pytest

from repro.check import canonical_scenario, run_schedule
from repro.cli import main
from repro.cluster import run_cluster_trial
from repro.journal.io import events_to_jsonl, write_jsonl
from repro.replication import ReplicationStyle
from repro.slo import (
    SloSpec,
    evaluate_slos,
    match_fault_alerts,
    unmatched_alerts,
)
from tests.support import assert_cli_refuses_non_event_journals

#: Seven nines over a ~330 ms horizon tolerates well under a
#: microsecond of downtime, so the canonical crash (a few hundred us
#: of outage) always exhausts the budget.
TIGHT = SloSpec(name="tight", availability_target=0.9999999)


@pytest.fixture(scope="module")
def crash_journal():
    return run_schedule(canonical_scenario()).journal_events


class TestCanonicalScenarioAcceptance:
    def test_exhausting_fault_produces_exactly_one_alert(
            self, crash_journal):
        outcome = evaluate_slos(crash_journal, specs=[TIGHT])
        (budget,) = outcome.budgets
        assert budget.shard == "svc"
        assert budget.exhausted
        assert len(outcome.alerts) == 1

    def test_cross_check_is_consistent(self, crash_journal):
        outcome = evaluate_slos(crash_journal, specs=[TIGHT])
        matches = match_fault_alerts(crash_journal, outcome)
        assert matches
        assert all(m.ok for m in matches)
        exhausted = [m for m in matches if m.budget_exhausted]
        assert exhausted and all(m.n_alerts == 1 for m in exhausted)
        _, spurious = unmatched_alerts(crash_journal, outcome)
        assert spurious == 0

    def test_default_objective_absorbs_the_crash(self, crash_journal):
        # Three nines over the same horizon grants ~330 us of budget;
        # the canonical crash spends less, so no breach and no page.
        outcome = evaluate_slos(crash_journal)
        assert outcome.ok
        assert outcome.alerts == ()


class TestObservationOnly:
    def test_journal_bytes_identical_with_slo_on_or_off(self):
        """The plane is post-hoc: evaluating budgets and alerts over a
        sharded crash trial leaves its journal byte for byte as it
        was."""
        def trial(slo):
            return run_cluster_trial(
                style=ReplicationStyle.WARM_PASSIVE, n_shards=3,
                n_clients=6, duration_us=400_000.0, rate_per_s=200.0,
                seed=1, fault_load="process_crash", journal=True,
                slo=slo)

        plain, observed = trial(False), trial(True)
        assert plain.slo is None and observed.slo["slos"] > 0
        assert plain.journal.events
        assert (events_to_jsonl(plain.journal.events)
                == events_to_jsonl(observed.journal.events))


class TestSloCli:
    @pytest.fixture()
    def journal_path(self, tmp_path, crash_journal):
        path = tmp_path / "journal.jsonl"
        write_jsonl(crash_journal, str(path))
        return str(path)

    @pytest.fixture()
    def tight_spec_path(self, tmp_path):
        path = tmp_path / "slos.json"
        path.write_text(json.dumps([TIGHT.to_dict()]))
        return str(path)

    def test_status_renders_budget_table(self, journal_path, capsys):
        assert main(["slo", "status", journal_path]) == 0
        out = capsys.readouterr().out
        assert "SLO status" in out
        assert "svc" in out
        assert "availability-3n" in out

    def test_status_exits_1_on_breach(self, journal_path,
                                      tight_spec_path, capsys):
        assert main(["slo", "status", journal_path,
                     "--spec", tight_spec_path]) == 1
        assert "BREACH" in capsys.readouterr().out

    def test_alerts_lists_episodes(self, journal_path,
                                   tight_spec_path, capsys):
        main(["slo", "alerts", journal_path, "--spec", tight_spec_path])
        out = capsys.readouterr().out
        assert "1 burn-rate alert(s)" in out
        assert "tight" in out

    def test_report_includes_cross_check(self, journal_path,
                                         tight_spec_path, capsys):
        main(["slo", "report", journal_path, "--spec", tight_spec_path])
        out = capsys.readouterr().out
        assert "fault/alert cross-check" in out
        assert "INCONSISTENT" not in out

    def test_status_writes_html_panel(self, journal_path, tmp_path,
                                      capsys):
        html = tmp_path / "panel.html"
        assert main(["slo", "status", journal_path,
                     "--html", str(html)]) == 0
        assert html.read_text().startswith("<!DOCTYPE html>")

    def test_missing_journal_is_a_usage_error(self, tmp_path, capsys):
        assert main(["slo", "status", str(tmp_path / "nope.jsonl")]) == 2
        for action in ("status", "alerts", "report"):
            assert_cli_refuses_non_event_journals(["slo", action],
                                                  tmp_path, capsys)

    def test_empty_journal_exits_1(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["slo", "status", str(path)]) == 1


class TestCampaignSloDeterminism:
    def spec(self):
        from repro.campaign import CampaignSpec
        return CampaignSpec(
            name="slo-determinism", styles=["warm_passive"],
            replica_counts=[2], fault_loads=["none", "process_crash"],
            seeds=[0], n_clients=1, duration_us=200_000.0,
            rate_per_s=100.0, settle_us=400_000.0)

    def run_to_bytes(self, tmp_path, tag, workers):
        from repro.campaign import ResultsStore, run_campaign
        store = ResultsStore(str(tmp_path / f"{tag}.jsonl"))
        summary = run_campaign(self.spec(), store, workers=workers,
                               slo=True)
        assert summary.failed == 0
        return open(store.path, "rb").read()

    def test_parallel_matches_serial_byte_for_byte(self, tmp_path):
        serial = self.run_to_bytes(tmp_path, "serial", 1)
        parallel = self.run_to_bytes(tmp_path, "parallel", 2)
        assert parallel == serial

    def test_records_carry_slo_verdicts(self, tmp_path):
        from repro.campaign import ResultsStore, run_campaign
        store = ResultsStore(str(tmp_path / "verdicts.jsonl"))
        run_campaign(self.spec(), store, workers=1, slo=True)
        records = [json.loads(line) for line in
                   open(store.path).read().splitlines()]
        assert records
        for record in records:
            verdict = record["metrics"]["slo"]
            assert verdict["cross_check"]["ok"]
            assert {"slos", "breached", "alerts", "ok"} \
                <= set(verdict)

    def test_campaign_cli_slo_flag(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(self.spec().to_json())
        out_path = tmp_path / "results.jsonl"
        assert main(["campaign", str(spec_path),
                     "--results", str(out_path), "--slo"]) == 0
        out = capsys.readouterr().out
        assert "slo:" in out
        assert "cross-check failure(s)" in out
