"""Active replication: state-machine behaviour (Section 3.1)."""

import pytest

from repro.replication import ReplicationStyle
from tests.replication.helpers import (
    FAILOVER_US,
    build_rig,
    call,
    counter_values,
    fire,
    request_id,
)


def test_all_replicas_process_every_request():
    testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
    call(testbed, clients[0], "add", 5)
    call(testbed, clients[0], "add", 7)
    assert counter_values(replicas) == [12, 12, 12]
    assert all(r.replicator.requests_processed == 2 for r in replicas)


def test_client_gets_exactly_one_reply_per_request():
    testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
    replies = fire(clients[0], "add", 1)
    testbed.run(1_000_000)
    assert len(replies) == 1
    # The other replicas' replies were discarded as duplicates.
    assert clients[0].replicator.duplicate_replies == 2


def test_requests_totally_ordered_across_replicas():
    testbed, replicas, clients = build_rig(
        ReplicationStyle.ACTIVE, n_clients=3)
    for i, client in enumerate(clients):
        for k in range(5):
            fire(client, "add", 10 ** i)
    testbed.run(3_000_000)
    values = counter_values(replicas)
    assert values[0] == 555
    assert values == [555, 555, 555]


def test_replica_crash_transparent_to_client():
    testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
    replicas[1].crash()
    reply = call(testbed, clients[0], "add", 3)
    assert reply.payload == 3
    # No retry was needed: the survivors answered immediately.
    assert clients[0].replicator.retries == 0


def test_host_crash_transparent_to_client():
    testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
    testbed.hosts["s02"].crash()
    reply = call(testbed, clients[0], "add", 3, timeout_us=FAILOVER_US)
    assert reply.payload == 3


def test_all_but_one_crash_still_serves():
    testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
    replicas[0].crash()
    replicas[1].crash()
    reply = call(testbed, clients[0], "add", 4, timeout_us=FAILOVER_US)
    assert reply.payload == 4


def test_duplicate_requests_suppressed_server_side():
    """A retransmitted request (same request id) must not re-execute;
    the cached reply is resent instead (at-most-once semantics)."""
    testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
    call(testbed, clients[0], "add", 2)
    before = [r.replicator.requests_processed for r in replicas]
    # Replay the exact RepRequest through the group, as a client
    # retry would.
    from repro.orb import GiopRequest
    from repro.replication import RepRequest
    original_id = request_id(clients[0], 1)
    dup = RepRequest(
        request=GiopRequest(request_id=original_id, object_key="counter",
                            operation="add", payload=2, payload_bytes=32),
        client=clients[0].gcs.member)
    clients[0].gcs.multicast("svc", dup, dup.wire_bytes)
    testbed.run(500_000)
    assert [r.replicator.requests_processed for r in replicas] == before
    assert counter_values(replicas) == [2, 2, 2]
    assert all(r.replicator.duplicates_suppressed >= 1 for r in replicas)


def test_late_joiner_receives_state_transfer():
    """A replica deployed after the service has state must sync via
    the checkpoint-based state transfer before processing."""
    testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE,
                                           n_replicas=3)
    replicas[2].crash()
    testbed.run(100_000)
    call(testbed, clients[0], "add", 9)
    from repro.experiments.testbed import deploy_replica
    from repro.orb import CounterServant
    from repro.replication import ReplicationConfig
    config = ReplicationConfig(style=ReplicationStyle.ACTIVE, group="svc")
    joiner = deploy_replica(testbed, "s03", config,
                            {"counter": CounterServant},
                            process_name="svc-r4")
    testbed.run(1_000_000)
    assert joiner.replicator.synced
    assert joiner.servants["counter"].value == 9
    call(testbed, clients[0], "add", 1)
    assert joiner.servants["counter"].value == 10


def test_voting_mode_waits_for_majority():
    testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE,
                                           voting=True)
    reply = call(testbed, clients[0], "add", 6)
    assert reply.payload == 6
    entry_votes = clients[0].replicator
    assert entry_votes.replies_received == 1


def test_voting_survives_minority_crash():
    testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE,
                                           voting=True)
    replicas[2].crash()
    testbed.run(200_000)
    reply = call(testbed, clients[0], "add", 2, timeout_us=FAILOVER_US)
    assert reply.payload == 2


def test_deterministic_across_seeds():
    def outcome(seed):
        testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE,
                                               seed=seed)
        call(testbed, clients[0], "add", 5)
        return counter_values(replicas)

    assert outcome(3) == outcome(3)


def test_active_replies_piggyback_style():
    testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
    call(testbed, clients[0], "add", 1)
    assert clients[0].replicator.style is ReplicationStyle.ACTIVE
