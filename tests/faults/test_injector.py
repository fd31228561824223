"""Tests for the fault injector (the paper's fault model)."""

import pytest

from repro.errors import ConfigurationError
from repro.faults import FaultInjector
from repro.replication import ReplicationStyle
from tests.replication.helpers import (
    FAILOVER_US,
    build_rig,
    call,
    counter_values,
    fire,
    timed_call,
)


def _injector(testbed):
    return FaultInjector(testbed.sim, testbed.network)


def test_scheduled_process_crash():
    testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
    injector = _injector(testbed)
    injector.crash_process_at(replicas[1].process,
                              at_us=testbed.now + 100_000)
    testbed.run(200_000)
    assert not replicas[1].alive
    assert injector.injected[0].kind == "process_crash"


def test_scheduled_host_crash():
    testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
    injector = _injector(testbed)
    injector.crash_host_at(testbed.hosts["s02"], at_us=testbed.now + 50_000)
    testbed.run(100_000)
    assert not testbed.hosts["s02"].alive


def test_service_survives_scheduled_crash():
    testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE, seed=8)
    injector = _injector(testbed)
    injector.crash_process_at(replicas[0].process,
                              at_us=testbed.now + 30_000)
    reply = call(testbed, clients[0], "add", 6, timeout_us=FAILOVER_US)
    assert reply.payload == 6


def test_loss_burst_injected_and_recovered():
    testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE, seed=9)
    injector = _injector(testbed)
    injector.loss_burst(testbed.now, testbed.now + 200_000, rate=1.0)
    replies = fire(clients[0], "add", 2)
    testbed.run(5_000_000)
    assert len(replies) == 1
    assert counter_values(replicas) == [2, 2, 2]


def test_delay_spike_slows_but_preserves():
    testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
    _, fast_latency = timed_call(testbed, clients[0], "add", 1)
    injector = _injector(testbed)
    injector.delay_spike(testbed.now, testbed.now + 3_000_000,
                         extra_us=5_000.0)
    _, slow_latency = timed_call(testbed, clients[0], "add", 1)
    assert slow_latency > fast_latency + 5_000.0


def test_cpu_hog_delays_processing():
    testbed, replicas, clients = build_rig(ReplicationStyle.WARM_PASSIVE)
    _, base_latency = timed_call(testbed, clients[0], "add", 1)
    injector = _injector(testbed)
    # Hog the primary's CPU for 20 ms right now.
    injector.cpu_hog_at(testbed.hosts["s01"], testbed.now + 1,
                        busy_us=20_000.0)
    testbed.run(10)
    _, slow_latency = timed_call(testbed, clients[0], "add", 1,
                                 timeout_us=3_000_000)
    assert slow_latency > base_latency + 5_000.0


def test_past_injection_rejected():
    testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
    injector = _injector(testbed)
    with pytest.raises(ConfigurationError):
        injector.crash_host_at(testbed.hosts["s01"], at_us=testbed.now - 1)


def test_past_process_crash_rejected():
    testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
    injector = _injector(testbed)
    with pytest.raises(ConfigurationError):
        injector.crash_process_at(replicas[0].process,
                                  at_us=testbed.now - 1)


def test_past_loss_burst_rejected():
    testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
    injector = _injector(testbed)
    with pytest.raises(ConfigurationError):
        injector.loss_burst(testbed.now - 10_000, testbed.now + 10_000)


def test_past_delay_spike_rejected():
    testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
    injector = _injector(testbed)
    with pytest.raises(ConfigurationError):
        injector.delay_spike(testbed.now - 10_000, testbed.now + 10_000,
                             extra_us=500.0)


def test_inverted_window_rejected():
    testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
    injector = _injector(testbed)
    with pytest.raises(ConfigurationError):
        injector.loss_burst(testbed.now + 20_000, testbed.now + 10_000)
    with pytest.raises(ConfigurationError):
        injector.delay_spike(testbed.now + 20_000, testbed.now + 10_000,
                             extra_us=500.0)
    assert injector.injected == []


def test_past_cpu_hog_rejected():
    testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
    injector = _injector(testbed)
    with pytest.raises(ConfigurationError):
        injector.cpu_hog_at(testbed.hosts["s01"], testbed.now - 1,
                            busy_us=1_000.0)


def test_crash_and_restart_recovers_service():
    testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE, seed=4)
    injector = _injector(testbed)
    restarted = []
    injector.crash_and_restart_at(replicas[1].process,
                                  at_us=testbed.now + 50_000,
                                  restart_after_us=100_000,
                                  restart=lambda: restarted.append(True))
    testbed.run(100_000)
    assert not replicas[1].alive
    assert not restarted
    testbed.run(100_000)
    assert restarted == [True]
    fault = injector.injected[0]
    assert fault.kind == "crash_restart"
    assert fault.until_us == fault.at_us + 100_000


def test_crash_and_restart_validates():
    testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
    injector = _injector(testbed)
    with pytest.raises(ConfigurationError):
        injector.crash_and_restart_at(replicas[0].process,
                                      at_us=testbed.now - 1,
                                      restart_after_us=100)
    with pytest.raises(ConfigurationError):
        injector.crash_and_restart_at(replicas[0].process,
                                      at_us=testbed.now + 100,
                                      restart_after_us=0)


def test_crash_and_restart_skips_restart_on_dead_host():
    testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
    injector = _injector(testbed)
    restarted = []
    injector.crash_and_restart_at(replicas[1].process,
                                  at_us=testbed.now + 10_000,
                                  restart_after_us=100_000,
                                  restart=lambda: restarted.append(True))
    # The host dies before the restart point: recovery must not fire.
    injector.crash_host_at(replicas[1].process.host,
                           at_us=testbed.now + 50_000)
    testbed.run(300_000)
    assert not restarted


def test_invalid_cpu_hog():
    testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
    injector = _injector(testbed)
    with pytest.raises(ConfigurationError):
        injector.cpu_hog_at(testbed.hosts["s01"], testbed.now + 1,
                            busy_us=0.0)


def test_injection_log_records_everything():
    testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
    injector = _injector(testbed)
    injector.crash_process_at(replicas[0].process, testbed.now + 1000)
    injector.loss_burst(testbed.now, testbed.now + 100)
    injector.delay_spike(testbed.now, testbed.now + 100, 50.0)
    injector.cpu_hog_at(testbed.hosts["s02"], testbed.now + 1, 500.0)
    injector.crash_and_restart_at(replicas[1].process, testbed.now + 2000,
                                  restart_after_us=1000)
    injector.crash_host_at(testbed.hosts["s03"], testbed.now + 3000)
    assert [f.kind for f in injector.injected] == [
        "process_crash", "loss_burst", "delay_spike", "cpu_hog",
        "crash_restart", "host_crash"]
    assert all(f.target for f in injector.injected)
