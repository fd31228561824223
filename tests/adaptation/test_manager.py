"""Tests for the automatic adaptation loop (Fig. 6 behaviour)."""

import pytest

from repro.adaptation import AdaptationManager
from repro.core import ThresholdSwitchPolicy
from repro.experiments import (
    Testbed,
    deploy_client,
    deploy_replica_group,
    run_adaptive_scenario,
)
from repro.orb import BusyServant
from repro.replication import (
    ClientReplicationConfig,
    ReplicationConfig,
    ReplicationStyle,
)
from repro.workload import ConstantRate, OpenLoopClient, SpikeProfile

POLICY = ThresholdSwitchPolicy(rate_high_per_s=400, rate_low_per_s=200)


def _adaptive_rig(initial=ReplicationStyle.WARM_PASSIVE, seed=0):
    testbed = Testbed.paper_testbed(3, 1, seed=seed)
    config = ReplicationConfig(style=initial, group="svc")
    replicas = deploy_replica_group(
        testbed, ["s01", "s02", "s03"], config,
        {"bench": lambda: BusyServant(processing_us=15, reply_bytes=128,
                                      state_bytes=1024)})
    managers = [AdaptationManager(r.replicator, POLICY) for r in replicas]
    client = deploy_client(testbed, "w01", ClientReplicationConfig(
        group="svc", expected_style=initial))
    testbed.run(150_000)
    return testbed, replicas, managers, client


def test_high_rate_triggers_switch_to_active():
    testbed, replicas, managers, client = _adaptive_rig()
    loader = OpenLoopClient(client, ConstantRate(900), 3_000_000,
                            object_key="bench", payload_bytes=128)
    loader.start()
    testbed.run(2_500_000)  # inspect while the load is still offered
    live = [r for r in replicas if r.alive]
    assert all(r.replicator.style is ReplicationStyle.ACTIVE for r in live)
    assert sum(len(m.events) for m in managers) >= 1


def test_low_rate_stays_passive():
    testbed, replicas, managers, client = _adaptive_rig()
    loader = OpenLoopClient(client, ConstantRate(100), 3_000_000,
                            object_key="bench", payload_bytes=128)
    loader.start()
    testbed.run(4_000_000)
    assert all(r.replicator.style is ReplicationStyle.WARM_PASSIVE
               for r in replicas)
    assert sum(len(m.events) for m in managers) == 0


def test_spike_switches_up_then_back_down():
    testbed, replicas, managers, client = _adaptive_rig()
    profile = SpikeProfile(base_rate=100, spike_rate=900,
                           spike_start_us=2_000_000,
                           spike_end_us=5_000_000)
    loader = OpenLoopClient(client, profile, 8_000_000,
                            object_key="bench", payload_bytes=128)
    loader.start()
    testbed.run(11_000_000)
    history = replicas[0].replicator.switch_history
    assert len(history) >= 2
    assert history[0].to_style is ReplicationStyle.ACTIVE
    assert history[1].to_style is ReplicationStyle.WARM_PASSIVE
    assert replicas[0].replicator.style is ReplicationStyle.WARM_PASSIVE


def test_concurrent_managers_cause_single_switch():
    """All three managers see the same replicated state and may all
    initiate; the Fig. 5 duplicate discard must leave exactly one
    completed switch."""
    testbed, replicas, managers, client = _adaptive_rig()
    loader = OpenLoopClient(client, ConstantRate(900), 2_000_000,
                            object_key="bench", payload_bytes=128)
    loader.start()
    testbed.run(1_800_000)
    for replica in replicas:
        history = replica.replicator.switch_history
        assert len(history) == 1
        assert history[0].to_style is ReplicationStyle.ACTIVE


def test_hysteresis_prevents_thrashing():
    """A rate inside the hysteresis band (250-500 req/s) must not
    cause switching in either direction: passive stays passive at
    350 req/s, and a group that switched up at 900 req/s stays
    active when the rate falls back to 350."""
    testbed, replicas, managers, client = _adaptive_rig()
    loader = OpenLoopClient(client, ConstantRate(350), 3_000_000,
                            object_key="bench", payload_bytes=128)
    loader.start()
    testbed.run(2_500_000)
    assert sum(len(m.events) for m in managers) == 0
    assert replicas[0].replicator.style is ReplicationStyle.WARM_PASSIVE

    from repro.workload import StepProfile
    testbed2, replicas2, managers2, client2 = _adaptive_rig(seed=1)
    profile = StepProfile([(0.0, 900.0), (1_500_000.0, 350.0)])
    loader2 = OpenLoopClient(client2, profile, 4_000_000,
                             object_key="bench", payload_bytes=128)
    loader2.start()
    testbed2.run(4_000_000)
    live = [r for r in replicas2 if r.alive]
    # One switch up at 900 req/s; 350 req/s is inside the band, so no
    # switch back down while the load runs.
    assert all(r.replicator.style is ReplicationStyle.ACTIVE for r in live)
    assert all(len(r.replicator.switch_history) == 1 for r in live)


def test_scenario_runner_adaptive_vs_static():
    """The paper's Fig. 6 headline: adaptive replication observes a
    higher request arrival rate than static passive under the same
    offered load (4.1% in the paper)."""
    profile = SpikeProfile(base_rate=100, spike_rate=1100,
                           spike_start_us=1_000_000,
                           spike_end_us=4_000_000)
    adaptive = run_adaptive_scenario(profile, 5_000_000, policy=POLICY,
                                     n_clients=2, seed=3)
    static = run_adaptive_scenario(profile, 5_000_000, n_clients=2,
                                   static_style=ReplicationStyle.WARM_PASSIVE,
                                   seed=3)
    assert adaptive.switch_events, "no switch happened"
    assert adaptive.latency_mean_us < static.latency_mean_us


def test_manager_rejects_bad_interval():
    testbed, replicas, managers, client = _adaptive_rig()
    from repro.errors import AdaptationError
    with pytest.raises(AdaptationError):
        AdaptationManager(replicas[0].replicator, POLICY,
                          evaluation_interval_us=0.0)
