"""End-to-end journal guarantees.

The three load-bearing properties from the PR contract:

- determinism: same seed -> byte-identical JSONL artifact;
- off by default, and observation-only: a run with the journal on is
  byte-identical (in its simulated outcomes) to the same run with it
  off;
- the derived accounting agrees with the scenario's own bookkeeping
  (switch durations within 5 %; availability 1.0 when nothing fails)
  and every injected fault is matched to a detection or flagged
  missed.
"""

import json

import pytest

from repro.core import ThresholdSwitchPolicy
from repro.experiments import run_adaptive_scenario, run_fault_trial
from repro.experiments.scenarios import run_replicated_load
from repro.journal import (
    availability_report,
    events_to_jsonl,
    match_faults,
    switch_windows,
)
from repro.replication import ReplicationStyle
from repro.workload import SpikeProfile


def crash_second_replica(context):
    context.injector.crash_process_at(context.replicas[1].process,
                                      context.t0 + 300_000.0)


def run_trial(journal, seed=3, inject=crash_second_replica):
    return run_fault_trial(ReplicationStyle.ACTIVE, n_replicas=3,
                           n_clients=1, duration_us=800_000.0,
                           rate_per_s=150.0, seed=seed, inject=inject,
                           journal=journal)


class TestDeterminism:
    def test_same_seed_gives_byte_identical_jsonl(self):
        first = run_trial(journal=True)
        second = run_trial(journal=True)
        assert events_to_jsonl(first.journal.events) == \
            events_to_jsonl(second.journal.events)
        assert json.dumps(first.metrics()["journal"], sort_keys=True) == \
            json.dumps(second.metrics()["journal"], sort_keys=True)

    def test_different_seed_gives_different_jsonl(self):
        first = run_trial(journal=True, seed=3)
        second = run_trial(journal=True, seed=4)
        assert events_to_jsonl(first.journal.events) != \
            events_to_jsonl(second.journal.events)


class TestOffByDefault:
    def test_trial_results_identical_with_journal_on_or_off(self):
        off = run_trial(journal=False)
        on = run_trial(journal=True)
        assert off.journal is None
        stripped = {k: v for k, v in on.metrics().items()
                    if k != "journal"}
        assert json.dumps(stripped, sort_keys=True, default=str) == \
            json.dumps(off.metrics(), sort_keys=True, default=str)

    def test_off_metrics_carry_no_journal_key(self):
        off = run_trial(journal=False)
        assert "journal" not in off.metrics()

    def test_scenario_results_identical_with_journal_on_or_off(self):
        kwargs = dict(n_replicas=2, n_clients=1, n_requests=40, seed=1)
        off = run_replicated_load(ReplicationStyle.WARM_PASSIVE, **kwargs)
        on = run_replicated_load(ReplicationStyle.WARM_PASSIVE,
                                 journal=True, **kwargs)
        assert off.journal is None
        assert on.journal is not None and len(on.journal) > 0
        assert on.latency_mean_us == off.latency_mean_us
        assert on.jitter_us == off.jitter_us
        assert on.bandwidth_mbps == off.bandwidth_mbps
        assert on.completed == off.completed
        assert on.throughput_per_s == off.throughput_per_s
        assert on.duration_us == off.duration_us


class TestFaultCrossCheck:
    def test_every_injected_fault_matched_or_missed(self):
        result = run_trial(journal=True)
        digest = result.metrics()["journal"]
        assert digest["faults_injected"] == 1
        assert digest["faults_injected"] == \
            digest["faults_matched"] + digest["faults_missed"]
        matches = match_faults(result.journal.events)
        assert all(m.detected or m.missed for m in matches)

    def test_process_crash_detected_with_positive_latency(self):
        result = run_trial(journal=True)
        (match,) = match_faults(result.journal.events)
        assert match.fault_kind == "process_crash"
        assert match.detected
        assert match.detection_latency_us > 0.0
        assert result.metrics()["journal"]["mean_detection_latency_us"] \
            > 0.0

    def test_journal_availability_tracks_trial_availability(self):
        result = run_trial(journal=True)
        # Both accountings bill the same outage; the journal closes it
        # at membership reconfiguration, the trial at the next
        # completed request, so they agree within 5 %.
        digest = result.metrics()["journal"]
        assert digest["availability"] == pytest.approx(
            result.availability, abs=0.05)
        assert digest["outages"] == 1


class TestAdaptiveCrossCheck:
    @pytest.fixture(scope="class")
    def adaptive(self):
        profile = SpikeProfile(base_rate=100.0, spike_rate=1100.0,
                               spike_start_us=700_000.0,
                               spike_end_us=2_200_000.0)
        policy = ThresholdSwitchPolicy(rate_high_per_s=400.0,
                                       rate_low_per_s=200.0)
        return run_adaptive_scenario(profile, 3_000_000.0,
                                     policy=policy, n_clients=2,
                                     seed=0, journal=True)

    def test_switch_durations_agree_within_5_percent(self, adaptive):
        assert adaptive.switch_events, "scenario produced no switches"
        completes = adaptive.journal.of_kind("switch.complete")
        for record in adaptive.switch_events:
            durations = [e.attrs["duration_us"] for e in completes
                         if e.attrs["switch_id"] == record.switch_id]
            assert durations, f"{record.switch_id} missing from journal"
            # The initiator's journal event carries the same duration
            # the SwitchRecord reports.
            closest = min(durations,
                          key=lambda d: abs(d - record.duration_us))
            assert abs(closest - record.duration_us) <= \
                max(0.05 * record.duration_us, 1.0)

    def test_journal_sees_every_completed_switch(self, adaptive):
        windows = switch_windows(adaptive.journal.events)
        assert set(windows) == {r.switch_id
                                for r in adaptive.switch_events}

    def test_faultless_run_is_fully_available(self, adaptive):
        report = availability_report(adaptive.journal.events)
        assert report.availability == 1.0
        assert report.downtime_us == 0.0
        assert report.n_outages == 0
        # The switches register as degraded time, not downtime.
        assert report.degraded_us > 0.0

    def test_decisions_deduplicated_across_managers(self, adaptive):
        decisions = adaptive.journal.of_kind("adaptation.decision")
        decision_ids = {d.attrs["switch_id"] for d in decisions}
        # One decision per switch — concurrent managers reaching the
        # same conclusion merge into voters rather than duplicates.
        assert len(decisions) == len(decision_ids)
        assert {r.switch_id
                for r in adaptive.switch_events} <= decision_ids
        for decision in decisions:
            assert decision.attrs["voters"] >= 1
            assert len(decision.attrs["voter_hosts"]) == \
                decision.attrs["voters"]
            assert "rate_per_s" in decision.attrs
            assert "inputs" in decision.attrs
