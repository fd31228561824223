"""Topology fault injection: partitions, gray failures, skipped
restarts and their journal ground truth."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.trial import run_fault_trial
from repro.faults import FaultInjector
from repro.journal.events import Journal
from repro.journal.io import events_to_jsonl
from repro.net import PartitionFilter
from repro.replication import ReplicationStyle
from tests.replication.helpers import FAILOVER_US, build_rig, call


def _injector(testbed):
    return FaultInjector(testbed.sim, testbed.network)


def test_partition_records_resolved_component_cover():
    testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
    testbed.sim.journal = Journal()
    injector = _injector(testbed)
    injector.partition_at([["s03"]], testbed.now + 10_000,
                          testbed.now + 60_000)
    fault = injector.injected[0]
    assert fault.kind == "partition"
    events = [e for e in testbed.sim.journal.events
              if e.kind == "fault.inject"]
    assert len(events) == 1
    cover = events[0].attrs["components"]
    # The implicit remainder component is resolved and recorded.
    assert ["s03"] in cover
    assert sorted(h for c in cover for h in c) \
        == sorted(testbed.network.hosts)


def test_partition_filter_uninstalled_after_heal():
    testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
    injector = _injector(testbed)
    injector.partition_at([["s03"]], testbed.now + 10_000,
                          testbed.now + 50_000)
    assert len(testbed.network.topology) == 1
    testbed.run(100_000)
    assert testbed.network.topology == []


def test_idle_link_filter_is_invisible():
    """An installed filter whose window never opens is consulted on
    every cross-host frame yet may not consume RNG or perturb timing:
    journal and metrics match a run with no filter at all.  Installed directly on
    the network so the injector's ground-truth event stays out of the
    journal."""
    def trial(inject=None):
        return run_fault_trial(
            ReplicationStyle.ACTIVE, n_replicas=3, n_clients=2,
            duration_us=400_000.0, rate_per_s=200.0, seed=1,
            inject=inject, journal=True)

    def install_idle(ctx):
        names = sorted(ctx.testbed.network.hosts)
        horizon = ctx.t0 + 1_000.0 * ctx.duration_us
        ctx.testbed.network.add_link_filter(PartitionFilter(
            (frozenset(names[:1]), frozenset(names[1:])),
            horizon, horizon + 1.0))

    base, idle = trial(), trial(install_idle)
    assert base.completed > 0
    assert (events_to_jsonl(idle.journal.events)
            == events_to_jsonl(base.journal.events))
    assert idle.metrics() == base.metrics()


def test_partition_validation():
    testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
    injector = _injector(testbed)
    with pytest.raises(ConfigurationError):
        injector.partition_at([["nosuch"]], testbed.now + 1_000,
                              testbed.now + 2_000)
    all_hosts = [list(testbed.network.hosts)]
    with pytest.raises(ConfigurationError):
        # Every host in one component: nothing left to split.
        injector.partition_at(all_hosts, testbed.now + 1_000,
                              testbed.now + 2_000)


def test_active_group_survives_minority_partition():
    testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE,
                                           seed=11)
    injector = _injector(testbed)
    injector.partition_at([["s03"]], testbed.now + 10_000,
                          testbed.now + 10_000 + FAILOVER_US)
    testbed.run(20_000)
    reply = call(testbed, clients[0], "add", 4, timeout_us=FAILOVER_US)
    assert reply.payload == 4


def test_asymmetric_partition_records_direction():
    testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
    testbed.sim.journal = Journal()
    injector = _injector(testbed)
    injector.asymmetric_partition_at(
        ["s03"], ["s01", "s02"], testbed.now + 1_000,
        testbed.now + 2_000)
    event = [e for e in testbed.sim.journal.events
             if e.kind == "fault.inject"][0]
    assert event.attrs["fault"] == "asym_partition"
    assert event.attrs["src_hosts"] == ["s03"]
    assert event.attrs["dst_hosts"] == ["s01", "s02"]


def test_flaky_link_and_slow_host_record_parameters():
    testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
    testbed.sim.journal = Journal()
    injector = _injector(testbed)
    injector.flaky_link("s01", "s02", 0.25, testbed.now + 1_000,
                        testbed.now + 2_000)
    injector.slow_host(testbed.hosts["s03"], 5_000.0,
                       testbed.now + 1_000, testbed.now + 2_000)
    kinds = {e.attrs["fault"]: e for e in testbed.sim.journal.events
             if e.kind == "fault.inject"}
    assert kinds["flaky_link"].attrs["rate"] == 0.25
    assert kinds["slow_host"].attrs["extra_us"] == 5_000.0


def test_slow_host_delays_but_does_not_kill_service():
    testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE,
                                           seed=12)
    injector = _injector(testbed)
    injector.slow_host(testbed.hosts["s02"], 2_000.0,
                       testbed.now + 1_000,
                       testbed.now + 1_000 + FAILOVER_US)
    testbed.run(5_000)
    reply = call(testbed, clients[0], "add", 3, timeout_us=FAILOVER_US)
    assert reply.payload == 3
    for replica in replicas:
        assert replica.alive


def test_restart_skipped_event_when_host_down_at_restart_time():
    testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
    testbed.sim.journal = Journal()
    injector = _injector(testbed)
    target = replicas[1]
    injector.crash_and_restart_at(
        target.process, testbed.now + 10_000, 100_000,
        restart=lambda: pytest.fail("restart must be skipped"))
    # The host dies before the promised restart instant.
    injector.crash_host_at(target.process.host, testbed.now + 50_000)
    testbed.run(300_000)
    skips = [e for e in testbed.sim.journal.events
             if e.kind == "fault.restart_skipped"]
    assert len(skips) == 1
    assert skips[0].attrs["target"] == target.process.name


def test_restart_not_skipped_on_live_host():
    testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
    testbed.sim.journal = Journal()
    injector = _injector(testbed)
    restarted = []
    injector.crash_and_restart_at(
        replicas[1].process, testbed.now + 10_000, 100_000,
        restart=lambda: restarted.append(True))
    testbed.run(300_000)
    assert restarted == [True]
    assert not any(e.kind == "fault.restart_skipped"
                   for e in testbed.sim.journal.events)
