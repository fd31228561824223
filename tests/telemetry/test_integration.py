"""End-to-end telemetry tests across the replication stack.

The system-level guarantees:

1. **Determinism** — simulated results are byte-identical with
   telemetry on or off (recording never schedules events).
2. **Propagation invariants** — even under crashes and lost frames,
   spans are never orphaned or cross-wired (they may stay *open*).
"""

import pytest

from repro.experiments import run_fault_trial, run_replicated_load
from repro.replication import ReplicationStyle
from repro.telemetry import (
    completed_traces,
    critical_path,
    style_aggregates,
    validate_spans,
)

REQUESTS = 40


def _load(style=ReplicationStyle.ACTIVE, **kwargs):
    defaults = dict(n_replicas=1, n_clients=1, n_requests=REQUESTS,
                    seed=0)
    defaults.update(kwargs)
    return run_replicated_load(style, **defaults)


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------

@pytest.mark.parametrize("style", [ReplicationStyle.ACTIVE,
                                   ReplicationStyle.WARM_PASSIVE])
def test_results_identical_with_telemetry_on_or_off(style):
    off = _load(style, n_replicas=2, n_clients=2, telemetry=False)
    on = _load(style, n_replicas=2, n_clients=2, telemetry=True)
    assert off.telemetry is None
    assert on.telemetry is not None
    assert on.latency_mean_us == off.latency_mean_us
    assert on.jitter_us == off.jitter_us
    assert on.duration_us == off.duration_us
    assert on.completed == off.completed
    assert on.bandwidth_mbps == off.bandwidth_mbps


# ----------------------------------------------------------------------
# Trace shape
# ----------------------------------------------------------------------

def test_every_request_yields_one_completed_valid_trace():
    result = _load(telemetry=True)
    recorder = result.telemetry
    assert recorder.dropped == 0
    assert recorder.open_spans == 0
    assert len(completed_traces(recorder.spans)) == result.completed
    assert validate_spans(recorder.spans) == []


def test_critical_path_covers_most_of_the_round_trip():
    result = _load(telemetry=True)
    for trace_spans in completed_traces(result.telemetry.spans).values():
        root = next(s for s in trace_spans if s.is_root)
        path = critical_path(trace_spans)
        busy = sum(seg.duration_us for seg in path)
        gaps = sum(seg.gap_us for seg in path)
        # Leaves plus surfaced gaps account for the full round trip
        # (the only untracked remainder is the tail after the last
        # leaf, i.e. the client accept already being a leaf -> ~0).
        assert busy + gaps <= root.duration_us + 1e-6
        assert busy > 0.5 * root.duration_us


def test_style_attribute_reaches_server_spans():
    result = _load(ReplicationStyle.WARM_PASSIVE, telemetry=True)
    aggregates = style_aggregates(result.telemetry.spans)
    assert "warm_passive" in aggregates
    assert aggregates["warm_passive"]["server.process"].count > 0


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------

def test_registry_histograms_hold_latency_and_checkpoint_sizes():
    result = _load(ReplicationStyle.WARM_PASSIVE, n_replicas=2,
                   telemetry=True, n_requests=30)
    registry = result.telemetry.metrics
    latency = registry.merged_histogram("request_latency_us")
    p50, p99 = latency.quantile(0.50), latency.quantile(0.99)
    assert p99 >= p50
    # Latency quantiles agree with the client-observed mean's scale.
    assert (0.25 * result.latency_mean_us < p50
            < 4.0 * result.latency_mean_us)
    assert registry.merged_histogram("checkpoint_bytes").mean > 0.0


def test_server_counters_count_requests():
    result = _load(ReplicationStyle.WARM_PASSIVE, n_replicas=2,
                   telemetry=True)
    registry = result.telemetry.metrics
    total = sum(metric.value for _, metric
                in registry.find("replicator_requests_total"))
    assert total == result.completed
    checkpoints = sum(metric.value for _, metric
                      in registry.find("replicator_checkpoints_total"))
    assert checkpoints > 0


# ----------------------------------------------------------------------
# Propagation invariants under fault injection
# ----------------------------------------------------------------------

def _trial(inject=None, style=ReplicationStyle.ACTIVE, **kwargs):
    defaults = dict(n_replicas=2, n_clients=1, duration_us=300_000.0,
                    rate_per_s=100.0, seed=1, settle_us=400_000.0,
                    telemetry=True)
    defaults.update(kwargs)
    return run_fault_trial(style, inject=inject, **defaults)


def test_trace_invariants_hold_across_replica_crash():
    def crash_backup(ctx):
        ctx.injector.crash_process_at(ctx.replicas[1].process,
                                      ctx.t0 + 100_000.0)

    result = _trial(crash_backup)
    assert result.telemetry is not None
    assert result.metrics()["telemetry"]["traces_completed"] \
        >= result.completed
    # Crash mid-request leaves spans open at worst — never orphaned
    # or cross-wired (validated inside the worker-free trial run).


def test_trace_invariants_hold_under_lost_frames():
    def lossy(ctx):
        ctx.injector.loss_burst(ctx.t0 + 50_000.0, ctx.t0 + 150_000.0,
                                rate=0.4)

    result = _trial(lossy, style=ReplicationStyle.WARM_PASSIVE)
    summary = result.metrics()["telemetry"]
    assert summary["spans"] > 0
    assert summary["dropped"] == 0
    # Lost frames may leave transit spans open, but completed traces
    # still at least match completed requests.
    assert summary["traces_completed"] >= result.completed


def test_validate_spans_clean_after_crash_with_recorder_access():
    """Drive the testbed directly so the recorder is in hand, crash a
    replica mid-run, and assert the span-tree invariants."""
    from dataclasses import replace

    from repro.experiments.testbed import (
        Testbed, deploy_client, deploy_replica_group)
    from repro.faults import FaultInjector
    from repro.orb import BusyServant
    from repro.replication import (
        ClientReplicationConfig, ReplicationConfig)
    from repro.sim import default_calibration
    from repro.workload import ClosedLoopClient

    base = default_calibration()
    calibration = replace(base,
                          telemetry=replace(base.telemetry, enabled=True))
    testbed = Testbed.paper_testbed(2, 1, seed=3, calibration=calibration)
    config = ReplicationConfig(style=ReplicationStyle.ACTIVE, group="svc")
    servants = {"bench": lambda: BusyServant(processing_us=15,
                                             reply_bytes=128,
                                             state_bytes=1024)}
    replicas = deploy_replica_group(testbed, ["s01", "s02"], config,
                                    servants)
    stack = deploy_client(testbed, "w01",
                          ClientReplicationConfig(group="svc"))
    testbed.run(150_000)

    injector = FaultInjector(testbed.sim, testbed.network)
    injector.crash_process_at(replicas[1].process, testbed.now + 20_000.0)
    injector.loss_burst(testbed.now + 10_000.0, testbed.now + 60_000.0,
                        rate=0.3)
    loader = ClosedLoopClient(stack, 30, object_key="bench")
    loader.start()
    testbed.run(3_000_000)

    recorder = testbed.sim.telemetry
    assert recorder.enabled
    assert len(recorder.spans) > 0
    # The hard invariants: no orphans, no cross-wiring, children
    # inside parents — even though some spans stay open.
    assert validate_spans(recorder.spans) == []
    # Completed requests closed their root span.
    assert len(completed_traces(recorder.spans)) >= loader.stats.completed


# ----------------------------------------------------------------------
# Campaign integration
# ----------------------------------------------------------------------

def test_trial_record_gains_telemetry_key_only_when_enabled():
    from repro.experiments.trial import run_fault_trial

    plain = run_fault_trial(ReplicationStyle.ACTIVE, n_replicas=1,
                            n_clients=1, duration_us=100_000.0,
                            rate_per_s=50.0, seed=0,
                            settle_us=200_000.0)
    traced = run_fault_trial(ReplicationStyle.ACTIVE, n_replicas=1,
                             n_clients=1, duration_us=100_000.0,
                             rate_per_s=50.0, seed=0,
                             settle_us=200_000.0, telemetry=True)
    assert "telemetry" not in plain.metrics()
    digest = traced.metrics()["telemetry"]
    assert digest["traces_completed"] == traced.completed
    assert digest["dropped"] == 0
    # Default records stay byte-identical to pre-telemetry trials.
    without = {k: v for k, v in traced.metrics().items()
               if k != "telemetry"}
    assert without == plain.metrics()


def test_adaptation_manager_samples_telemetry():
    from dataclasses import replace

    from repro.adaptation import AdaptationManager
    from repro.core import ThresholdSwitchPolicy
    from repro.experiments import (
        Testbed, deploy_client, deploy_replica_group)
    from repro.orb import BusyServant
    from repro.replication import (
        ClientReplicationConfig, ReplicationConfig)
    from repro.sim import default_calibration
    from repro.workload import ClosedLoopClient

    base = default_calibration()
    calibration = replace(base,
                          telemetry=replace(base.telemetry, enabled=True))
    testbed = Testbed.paper_testbed(2, 1, seed=0, calibration=calibration)
    config = ReplicationConfig(style=ReplicationStyle.ACTIVE, group="svc")
    replicas = deploy_replica_group(
        testbed, ["s01", "s02"], config,
        {"bench": lambda: BusyServant(processing_us=15, reply_bytes=128,
                                      state_bytes=1024)})
    policy = ThresholdSwitchPolicy(rate_high_per_s=1e9, rate_low_per_s=0)
    managers = [AdaptationManager(r.replicator, policy) for r in replicas]
    stack = deploy_client(testbed, "w01",
                          ClientReplicationConfig(group="svc"))
    testbed.run(150_000)
    loader = ClosedLoopClient(stack, 30, object_key="bench")
    loader.start()
    testbed.run(2_000_000)

    samples = managers[0].telemetry_samples
    assert samples, "manager recorded no telemetry samples"
    assert any(p99 > 0.0 for _, p99, _ in samples)
    # Local observation only: the replicated monitoring state carries
    # the rate key and nothing telemetry-derived (determinism).
    assert managers[0].state.values_matching("rate")
    published = managers[0].state.own_keys() \
        if hasattr(managers[0].state, "own_keys") else None
    if published is not None:
        assert all("telemetry" not in key for key in published)
