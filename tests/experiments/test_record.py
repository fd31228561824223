"""Every scenario engine returns one :class:`RunRecord`, and its
``telemetry`` / ``journal`` fields mean one thing: the recorder of the
run, or None when that observer was off."""

from dataclasses import replace

import pytest

import repro.experiments.run as run_module
from repro.cluster import (
    run_cluster_load,
    run_cluster_rebalance_check,
    run_cluster_trial,
)
from repro.experiments import (
    RunRecord,
    run_adaptive_scenario,
    run_fault_trial,
    run_overhead_modes,
    run_replicated_load,
)
from repro.journal import Journal
from repro.replication import ReplicationStyle
from repro.sim import JournalConfig, TelemetryConfig
from repro.telemetry import Telemetry
from repro.workload import ConstantRate

A = ReplicationStyle.ACTIVE
TRIAL = dict(n_clients=1, duration_us=100_000.0, rate_per_s=50.0,
             settle_us=100_000.0)

#: name -> (engine at a small shape, returns a list of records;
#: whether the engine always runs with the journal on).
ENGINES = {
    "replicated_load": (
        lambda: [run_replicated_load(A, 1, 1, 3)], False),
    "overhead_modes": (
        lambda: list(run_overhead_modes(n_requests=3).values()), False),
    "adaptive_scenario": (
        lambda: [run_adaptive_scenario(ConstantRate(50), 100_000.0,
                                       static_style=A)], False),
    "fault_trial": (
        lambda: [run_fault_trial(A, n_replicas=2, **TRIAL)], False),
    "cluster_trial": (
        lambda: [run_cluster_trial(A, n_shards=2, **TRIAL)], False),
    "cluster_load": (
        lambda: [run_cluster_load(n_shards=2, n_clients=2, n_requests=3,
                                  n_keys=2)], False),
    "cluster_rebalance_check": (
        lambda: [run_cluster_rebalance_check(n_clients=1, n_requests=4)],
        True),
}


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_observers_on_give_the_recorders(name, monkeypatch):
    observed = replace(run_module.default_calibration(),
                       telemetry=TelemetryConfig(enabled=True),
                       journal=JournalConfig(enabled=True))
    monkeypatch.setattr(run_module, "default_calibration",
                        lambda: observed)
    engine, _ = ENGINES[name]
    for record in engine():
        assert isinstance(record, RunRecord)
        assert isinstance(record.telemetry, Telemetry)
        assert record.telemetry.spans
        assert isinstance(record.journal, Journal)


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_observers_off_give_none(name):
    engine, forces_journal = ENGINES[name]
    for record in engine():
        assert isinstance(record, RunRecord)
        assert record.telemetry is None
        if forces_journal:
            assert isinstance(record.journal, Journal)
        else:
            assert record.journal is None
