"""Tests for the single fault-injection trial harness."""

from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.experiments import RunRecord, run_fault_trial
from repro.replication import ReplicationStyle


def run(style=ReplicationStyle.ACTIVE, **kwargs):
    defaults = dict(n_replicas=2, n_clients=1, duration_us=300_000.0,
                    rate_per_s=100.0, seed=1, settle_us=400_000.0)
    defaults.update(kwargs)
    return run_fault_trial(style, **defaults)


def test_fault_free_trial_is_fully_available():
    result = run()
    assert result.sent > 0
    assert result.completed == result.sent
    assert result.availability == 1.0
    assert result.metrics()["failed_fraction"] == 0.0
    assert result.mean_recovery_us == 0.0
    assert result.latency_mean_us > 0
    assert result.injected == []


def test_active_replication_masks_a_replica_crash():
    def crash_backup(ctx):
        ctx.injector.crash_process_at(ctx.replicas[1].process,
                                      ctx.t0 + 100_000.0)

    result = run(inject=crash_backup)
    assert len(result.injected) == 1
    # Active replication masks a non-primary crash completely.
    assert result.completed == result.sent
    assert result.availability > 0.99


def test_primary_crash_causes_measurable_downtime():
    def crash_primary(ctx):
        ctx.injector.crash_process_at(ctx.replicas[0].process,
                                      ctx.t0 + 100_000.0)

    result = run(style=ReplicationStyle.WARM_PASSIVE,
                 duration_us=400_000.0, settle_us=1_500_000.0,
                 inject=crash_primary)
    assert result.availability < 1.0
    assert result.mean_recovery_us > 0


def test_metrics_dict_is_json_ready():
    import json

    result = run()
    metrics = result.metrics()
    line = json.dumps(metrics, sort_keys=True)
    assert json.loads(line) == metrics
    for key in ("sent", "completed", "availability", "failed_fraction",
                "late_fraction", "latency_mean_us", "bandwidth_mbps",
                "mean_recovery_us", "faults"):
        assert key in metrics


def test_trials_are_deterministic_per_seed():
    a = run(seed=5).metrics()
    b = run(seed=5).metrics()
    c = run(seed=6).metrics()
    assert a == b
    assert a != c


def test_late_fraction_counts_deadline_misses():
    strict = run(deadline_us=1.0)
    assert strict.late == strict.completed
    assert strict.metrics()["late_fraction"] == 1.0
    relaxed = run(deadline_us=10_000_000.0)
    assert relaxed.late == 0


def test_respawn_replica_restores_group_size():
    observed = {}

    def crash_and_respawn(ctx):
        ctx.injector.crash_and_restart_at(
            ctx.replicas[0].process, ctx.t0 + 100_000.0,
            restart_after_us=50_000.0,
            restart=lambda: observed.setdefault(
                "respawned", ctx.respawn_replica(0)))

    run(duration_us=400_000.0, settle_us=1_500_000.0,
        inject=crash_and_respawn)
    assert "respawned" in observed


def test_bad_arguments_rejected():
    with pytest.raises(ConfigurationError):
        run(n_replicas=0)
    with pytest.raises(ConfigurationError):
        run(duration_us=0.0)
    with pytest.raises(ConfigurationError):
        run(rate_per_s=-5.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("field", ["duration_us", "rate_per_s",
                                   "deadline_us", "settle_us"])
def test_non_finite_window_rejected(field, value):
    with pytest.raises(ConfigurationError, match="finite"):
        run(**{field: value})


def test_failed_fraction_of_empty_trial_is_zero():
    metrics = RunRecord(duration_us=1.0, t0=0.0, sent=0, completed=0,
                        latency_mean_us=0.0, jitter_us=0.0,
                        wire_bytes=0.0, bandwidth_mbps=0.0,
                        throughput_per_s=0.0, events_dispatched=0,
                        telemetry=None, journal=None, failed=0, late=0,
                        availability=1.0, mean_recovery_us=0.0,
                        injected=[]).metrics()
    assert metrics["failed_fraction"] == 0.0
    assert metrics["late_fraction"] == 0.0


def test_check_attaches_verification_verdict():
    result = run(check=True)
    assert result.check is not None
    assert result.check["ok"] is True
    assert result.check["linearizable"] is True
    assert result.check["violations"] == []
    assert result.check["operations"] > 0
    assert result.check["journal_dropped"] == 0
    assert result.metrics()["check"]["ok"] is True


def test_check_fails_a_trial_whose_journal_dropped_events(monkeypatch):
    """Events dropped past ``max_events`` hide evidence, so the verdict
    fails even when every check that ran passed."""
    import repro.experiments.run as run_module
    from repro.sim import JournalConfig

    tiny = replace(run_module.default_calibration(),
                   journal=JournalConfig(max_events=5))
    monkeypatch.setattr(run_module, "default_calibration", lambda: tiny)
    result = run(check=True)
    assert result.check["journal_dropped"] > 0
    assert result.check["violations"] == []
    assert result.check["ok"] is False


def test_check_forces_journal_capture():
    result = run(check=True, journal=False)
    assert result.journal is not None


def test_no_check_by_default():
    result = run()
    assert result.check is None
    assert "check" not in result.metrics()
