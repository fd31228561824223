"""Unit tests for the two metric definitions the scenario runner owns:
outage accounting and latency statistics (every pipeline reports them,
so they are defined once and tested without a simulated trial)."""

from types import SimpleNamespace

import pytest

from repro.experiments import ScenarioRun
from repro.faults import InjectedFault
from repro.workload import WorkloadStats, latency_stats

T0 = 1_000.0
WINDOW = 100.0


def run_with(completions, faults):
    """A run whose window opened at ``T0``, with one stub loader that
    completed requests at ``completions`` and ``faults`` given as
    ``(kind, at_us)`` pairs."""
    run = ScenarioRun(1, 1)
    run.t0 = T0
    run.loaders = [SimpleNamespace(
        stats=WorkloadStats(completion_times=list(completions)))]
    run.injector.injected.extend(
        InjectedFault(kind=kind, target="x", at_us=at_us)
        for kind, at_us in faults)
    return run


class TestOutages:
    def test_no_fault_is_fully_available(self):
        assert run_with([T0 + 5], []).outages(150.0, WINDOW) == (1.0, [])

    def test_gap_until_next_completion_is_downtime(self):
        run = run_with([T0 + 10, T0 + 45, T0 + 50],
                       [("process_crash", T0 + 20)])
        availability, recoveries = run.outages(150.0, WINDOW)
        assert recoveries == [25.0]
        assert availability == pytest.approx(0.75)

    def test_fault_at_or_after_the_window_end_is_ignored(self):
        run = run_with([T0 + 130], [("process_crash", T0 + WINDOW),
                                    ("host_crash", T0 + 120)])
        assert run.outages(150.0, WINDOW) == (1.0, [])

    def test_no_later_completion_bills_the_rest_of_the_run(self):
        # Recovery runs to the end of the settle period, downtime
        # stops at the window end.
        run = run_with([T0 + 10], [("crash_restart", T0 + 60)])
        availability, recoveries = run.outages(150.0, WINDOW)
        assert recoveries == [90.0]
        assert availability == pytest.approx(0.6)

    def test_two_faults_sum(self):
        run = run_with([T0 + 30, T0 + 80],
                       [("process_crash", T0 + 20),
                        ("process_crash", T0 + 60)])
        availability, recoveries = run.outages(150.0, WINDOW)
        assert recoveries == [10.0, 20.0]
        assert availability == pytest.approx(0.7)

    def test_non_outage_kinds_bill_nothing(self):
        run = run_with([T0 + 90], [("loss_burst", T0 + 10),
                                   ("partition", T0 + 20)])
        assert run.outages(150.0, WINDOW) == (1.0, [])

    def test_availability_floors_at_zero(self):
        run = run_with([], [("process_crash", T0 + 10),
                            ("host_crash", T0 + 20)])
        availability, recoveries = run.outages(150.0, WINDOW)
        assert availability == 0.0
        assert recoveries == [140.0, 130.0]


class TestLatencyStats:
    def test_empty_sample(self):
        assert latency_stats([]) == (0.0, 0.0)

    def test_single_sample_has_no_jitter(self):
        assert latency_stats([7.5]) == (7.5, 0.0)

    def test_population_standard_deviation(self):
        assert latency_stats([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]) \
            == (5.0, 2.0)

    def test_workload_stats_report_the_same_numbers(self):
        values = [812.5, 790.25, 1_204.0, 655.125]
        stats = WorkloadStats(latencies_us=values)
        assert (stats.mean_latency_us, stats.jitter_us) \
            == latency_stats(values)
