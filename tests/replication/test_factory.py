"""Replica factory: redundancy maintenance and the #replicas knob."""

import pytest

from repro.errors import ReplicationError
from repro.experiments.testbed import Testbed, deploy_client, deploy_replica
from repro.orb import CounterServant
from repro.replication import (
    ClientReplicationConfig,
    ReplicaFactory,
    ReplicationConfig,
    ReplicationStyle,
)
from tests.replication.helpers import FAILOVER_US, call


def _factory_rig(style=ReplicationStyle.ACTIVE, target=2, n_hosts=4,
                 seed=0):
    testbed = Testbed.paper_testbed(n_hosts, 1, seed=seed)
    config = ReplicationConfig(style=style, group="svc")

    def spawn(host):
        return deploy_replica(testbed, host.name, config,
                              {"counter": CounterServant},
                              process_name=f"svc@{host.name}")

    manager_proc = testbed.spawn("w01", "factory-mgr")
    manager_gcs = testbed.connect(manager_proc)
    hosts = [testbed.hosts[f"s{i:02d}"] for i in range(1, n_hosts + 1)]
    factory = ReplicaFactory(manager_gcs, "svc", hosts, spawn,
                             target=target,
                             calibration=testbed.calibration.replication)
    client = deploy_client(testbed, "w01", ClientReplicationConfig(
        group="svc", expected_style=style))
    return testbed, factory, client


def test_factory_spawns_to_target():
    testbed, factory, client = _factory_rig(target=3)
    testbed.run(3_000_000)
    assert factory.live_count == 3
    assert factory.spawned == 3


def test_factory_respawns_after_crash():
    testbed, factory, client = _factory_rig(target=2)
    testbed.run(3_000_000)
    assert factory.live_count == 2
    # Kill one replica: the factory must bring the count back up.
    victim = testbed.hosts["s01"].processes[-1]
    victim.kill()
    testbed.run(3_000_000)
    assert factory.live_count == 2
    assert factory.spawned == 3


def test_factory_respawn_preserves_service():
    testbed, factory, client = _factory_rig(target=2, seed=3)
    testbed.run(3_000_000)
    reply = call(testbed, client, "add", 5)
    assert reply.payload == 5
    for proc in list(testbed.hosts["s01"].processes):
        if proc.name.startswith("svc@"):
            proc.kill()
    testbed.run(3_000_000)
    reply = call(testbed, client, "add", 2, timeout_us=2 * FAILOVER_US)
    assert reply.payload == 7


def test_raising_target_adds_replicas():
    testbed, factory, client = _factory_rig(target=1)
    testbed.run(3_000_000)
    assert factory.live_count == 1
    factory.set_target(3)
    testbed.run(3_000_000)
    assert factory.live_count == 3


def test_lowering_target_retires_youngest():
    testbed, factory, client = _factory_rig(target=3)
    testbed.run(3_000_000)
    assert factory.live_count == 3
    factory.set_target(1)
    testbed.run(2_000_000)
    assert factory.live_count == 1
    assert factory.retired == 2


def test_cold_passive_relaunch_restores_state():
    """The cold-passive story end to end: primary checkpoints to the
    store, crashes, the factory relaunches, state survives."""
    testbed, factory, client = _factory_rig(
        style=ReplicationStyle.COLD_PASSIVE, target=1, seed=7)
    testbed.run(3_000_000)
    reply = call(testbed, client, "add", 9)
    assert reply.payload == 9
    testbed.run(1_000_000)  # let the checkpoint reach the store
    for proc in list(testbed.hosts["s01"].processes):
        if proc.name.startswith("svc@"):
            proc.kill()
    testbed.run(4_000_000)
    assert factory.live_count == 1
    reply = call(testbed, client, "read", None, timeout_us=3 * FAILOVER_US)
    assert reply.payload == 9


def test_no_free_host_logged_not_fatal():
    testbed, factory, client = _factory_rig(target=5, n_hosts=2)
    testbed.run(3_000_000)
    assert factory.live_count == 2


def test_negative_target_rejected():
    testbed, factory, client = _factory_rig(target=1)
    with pytest.raises(ReplicationError):
        factory.set_target(-1)
