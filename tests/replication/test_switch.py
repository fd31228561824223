"""Runtime replication-style switching (paper Fig. 5 protocol)."""

import pytest

from repro.errors import AdaptationError
from repro.replication import ReplicationStyle
from tests.replication.helpers import (
    FAILOVER_US,
    build_rig,
    call,
    counter_values,
    fire,
    timed_call,
)


def _styles(replicas):
    return [r.replicator.style for r in replicas if r.alive]


def test_passive_to_active_switch():
    testbed, replicas, clients = build_rig(ReplicationStyle.WARM_PASSIVE)
    call(testbed, clients[0], "add", 3)
    replicas[0].replicator.request_switch(ReplicationStyle.ACTIVE)
    testbed.run(1_000_000)
    assert _styles(replicas) == [ReplicationStyle.ACTIVE] * 3
    # After the switch every replica processes requests.
    call(testbed, clients[0], "add", 2)
    assert counter_values(replicas) == [5, 5, 5]


def test_active_to_passive_switch():
    testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
    call(testbed, clients[0], "add", 3)
    replicas[1].replicator.request_switch(ReplicationStyle.WARM_PASSIVE)
    testbed.run(1_000_000)
    assert _styles(replicas) == [ReplicationStyle.WARM_PASSIVE] * 3
    call(testbed, clients[0], "add", 4)
    testbed.run(500_000)
    processed = [r.replicator.requests_processed for r in replicas]
    # Only the new primary processed the post-switch request.
    assert processed[0] == 2
    assert processed[1] == 1 and processed[2] == 1
    assert counter_values(replicas) == [7, 7, 7]


def test_final_checkpoint_sent_on_passive_to_active(_=None):
    testbed, replicas, clients = build_rig(ReplicationStyle.WARM_PASSIVE)
    call(testbed, clients[0], "add", 3)
    before = replicas[0].replicator.checkpoints_sent
    replicas[0].replicator.request_switch(ReplicationStyle.ACTIVE)
    testbed.run(1_000_000)
    # Fig. 5 case 1: the primary sends exactly one more checkpoint.
    assert replicas[0].replicator.checkpoints_sent == before + 1


def test_switch_records_duration():
    testbed, replicas, clients = build_rig(ReplicationStyle.WARM_PASSIVE)
    replicas[0].replicator.request_switch(ReplicationStyle.ACTIVE)
    testbed.run(1_000_000)
    for replica in replicas:
        history = replica.replicator.switch_history
        assert len(history) == 1
        assert history[0].duration_us > 0
        assert not history[0].rolled_back


def test_duplicate_switch_commands_discarded():
    testbed, replicas, clients = build_rig(ReplicationStyle.WARM_PASSIVE)
    # Two replicas initiate the same transition concurrently: the
    # switch ids collide and the duplicate is discarded (Fig. 5 step I).
    replicas[0].replicator.request_switch(ReplicationStyle.ACTIVE)
    replicas[1].replicator.request_switch(ReplicationStyle.ACTIVE)
    testbed.run(1_000_000)
    for replica in replicas:
        assert len(replica.replicator.switch_history) == 1
    assert _styles(replicas) == [ReplicationStyle.ACTIVE] * 3


def test_switch_to_current_style_rejected():
    testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
    with pytest.raises(AdaptationError):
        replicas[0].replicator.request_switch(ReplicationStyle.ACTIVE)


def test_requests_during_switch_are_queued_and_processed():
    testbed, replicas, clients = build_rig(ReplicationStyle.WARM_PASSIVE)
    call(testbed, clients[0], "add", 1)
    replicas[0].replicator.request_switch(ReplicationStyle.ACTIVE)
    # Fire requests immediately, racing the switch.
    pending = [fire(clients[0], "add", 10) for _ in range(3)]
    testbed.run(3_000_000)
    assert all(len(p) == 1 for p in pending)
    assert counter_values(replicas) == [31, 31, 31]


def test_round_trip_switch_preserves_state():
    testbed, replicas, clients = build_rig(ReplicationStyle.WARM_PASSIVE)
    call(testbed, clients[0], "add", 5)
    replicas[0].replicator.request_switch(ReplicationStyle.ACTIVE)
    testbed.run(1_000_000)
    call(testbed, clients[0], "add", 6)
    replicas[0].replicator.request_switch(ReplicationStyle.WARM_PASSIVE)
    testbed.run(1_000_000)
    reply = call(testbed, clients[0], "read", None)
    assert reply.payload == 11
    assert counter_values(replicas) == [11, 11, 11]


def test_rollback_when_primary_dies_mid_switch():
    """Fig. 5 case 1, crash branch: the primary crashes after the
    switch command but before the final checkpoint; backups roll back
    by going active and processing their queues."""
    testbed, replicas, clients = build_rig(ReplicationStyle.WARM_PASSIVE,
                                           seed=4)
    call(testbed, clients[0], "add", 2)
    testbed.run(300_000)
    replicas[0].replicator.request_switch(ReplicationStyle.ACTIVE)
    # Kill the primary immediately: its final checkpoint never goes out.
    replicas[0].crash()
    testbed.run(2 * FAILOVER_US)
    survivors = replicas[1:]
    assert _styles(survivors) == [ReplicationStyle.ACTIVE] * 2
    records = [s.replicator.switch_history[0] for s in survivors]
    assert all(rec.rolled_back for rec in records)
    # Service still works, with the checkpointed state preserved.
    reply = call(testbed, clients[0], "add", 3, timeout_us=FAILOVER_US)
    assert reply.payload == 5


def test_switch_tolerates_backup_crash():
    """The protocol must tolerate the crash of any replica (the paper
    claims crash of either the primary or any backup is tolerated)."""
    testbed, replicas, clients = build_rig(ReplicationStyle.WARM_PASSIVE)
    call(testbed, clients[0], "add", 2)
    replicas[0].replicator.request_switch(ReplicationStyle.ACTIVE)
    replicas[2].crash()
    testbed.run(2 * FAILOVER_US)
    live = [r for r in replicas if r.alive]
    assert _styles(live) == [ReplicationStyle.ACTIVE] * 2
    reply = call(testbed, clients[0], "add", 1, timeout_us=FAILOVER_US)
    assert reply.payload == 3


def test_switch_under_load_keeps_replicas_consistent():
    testbed, replicas, clients = build_rig(ReplicationStyle.WARM_PASSIVE,
                                           n_clients=3, seed=6)
    done = []

    def closed_loop(client, remaining):
        def on_reply(reply):
            done.append(reply)
            if remaining > 1:
                closed_loop(client, remaining - 1)
        client.orb_client.invoke("counter", "add", 1, 32, on_reply)

    for client in clients:
        closed_loop(client, 20)
    testbed.run(5_000)  # load in flight
    replicas[1].replicator.request_switch(ReplicationStyle.ACTIVE)
    testbed.run(60_000_000)
    assert len(done) == 60
    assert counter_values(replicas) == [60, 60, 60]
    assert _styles(replicas) == [ReplicationStyle.ACTIVE] * 3


def test_switch_delay_comparable_to_response_time():
    """Section 4.2: 'the observed delays required to complete the
    switch are comparable to the average response time'."""
    testbed, replicas, clients = build_rig(ReplicationStyle.WARM_PASSIVE)
    _, response_time = timed_call(testbed, clients[0], "add", 1)
    replicas[0].replicator.request_switch(ReplicationStyle.ACTIVE)
    testbed.run(1_000_000)
    duration = replicas[0].replicator.switch_history[0].duration_us
    assert duration < 5 * response_time


def test_active_to_cold_switch_requires_store_present():
    testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
    # The testbed wires a store into every replicator, so this works.
    replicas[0].replicator.request_switch(ReplicationStyle.COLD_PASSIVE)
    testbed.run(1_000_000)
    assert _styles(replicas) == [ReplicationStyle.COLD_PASSIVE] * 3
    call(testbed, clients[0], "add", 4)
    testbed.run(1_000_000)
    stored = []
    testbed.store.read("svc", stored.append)
    testbed.run(100_000)
    assert stored[0] is not None
