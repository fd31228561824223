"""Client-side replicator: retries, failure reporting, loss recovery."""

import pytest

from repro.net import BurstLoss, RandomLoss
from repro.replication import ReplicationStyle
from tests.replication.helpers import build_rig, call, fire


def test_retry_after_total_loss_burst():
    """A loss burst swallows the first attempt; the retry (AGREED to
    the group) gets through once the burst ends."""
    testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE, seed=9)
    start = testbed.now
    testbed.network.add_loss_model(BurstLoss(start, start + 300_000,
                                             rate=1.0))
    replies = fire(clients[0], "add", 5)
    testbed.run(5_000_000)
    assert len(replies) == 1
    assert clients[0].replicator.retries >= 1


def test_random_loss_eventually_served():
    testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE, seed=11)
    testbed.network.add_loss_model(RandomLoss(0.2))
    done = []
    for i in range(10):
        done.append(fire(clients[0], "add", 1))
    testbed.run(30_000_000)
    assert all(len(d) == 1 for d in done)
    values = [r.servants["counter"].value for r in replicas]
    assert values == [10, 10, 10]


def test_failure_callback_after_max_retries():
    from repro.experiments.testbed import Testbed, deploy_client
    from repro.replication import (
        ClientReplicationConfig, ClientReplicator)
    from repro.orb import OrbClient
    testbed = Testbed.paper_testbed(1, 1, seed=2)
    # No replicas at all: every attempt times out.
    failures = []
    process = testbed.spawn("w01", "cli")
    gcs = testbed.connect(process)
    replicator = ClientReplicator(
        gcs,
        ClientReplicationConfig(group="svc", retry_timeout_us=50_000,
                                max_retries=2),
        on_failure=failures.append)
    client = OrbClient(process, replicator)
    replies = []
    client.invoke("counter", "add", 1, 32, replies.append)
    testbed.run(5_000_000)
    assert replies == []
    assert len(failures) == 1
    assert replicator.failures == 1


def test_retries_do_not_double_execute():
    """Retries are duplicates server-side: state must reflect each
    logical request exactly once despite loss-induced retries."""
    testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE, seed=13)
    start = testbed.now
    # Drop ~half of everything for a while: some replies will be lost
    # after execution, forcing retries of already-executed requests.
    testbed.network.add_loss_model(BurstLoss(start, start + 2_000_000,
                                             rate=0.5))
    done = [fire(clients[0], "add", 1) for _ in range(5)]
    testbed.run(60_000_000)
    assert all(len(d) == 1 for d in done)
    values = [r.servants["counter"].value for r in replicas]
    assert values == [5, 5, 5]


def test_outstanding_count_tracks_inflight():
    testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
    fire(clients[0], "add", 1)
    testbed.run(500)  # let the marshalling CPU job hand off
    assert clients[0].replicator.outstanding_count == 1
    testbed.run(2_000_000)
    assert clients[0].replicator.outstanding_count == 0


def _frames_of_second_call(style):
    """Frames put on the wire by a client's second call (the first
    one warms the client up)."""
    testbed, _replicas, clients = build_rig(style)
    call(testbed, clients[0], "add", 1)
    network = testbed.network
    frames = []
    transmit = network.transmit
    network.transmit = lambda frame: (frames.append(frame),
                                      transmit(frame))
    call(testbed, clients[0], "add", 1)
    return len(frames)


def test_passive_first_attempt_goes_direct():
    # Rough check: a direct-to-primary request generates far fewer
    # frames than a group multicast would (no per-member fanout).
    assert _frames_of_second_call(ReplicationStyle.WARM_PASSIVE) \
        < _frames_of_second_call(ReplicationStyle.ACTIVE)


def test_dead_client_cannot_send():
    from repro.errors import OrbError, ReplicationError
    testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
    clients[0].process.kill()
    with pytest.raises((OrbError, ReplicationError)):
        clients[0].orb_client.invoke("counter", "add", 1, 32,
                                     lambda r: None)
