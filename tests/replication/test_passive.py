"""Warm and cold passive replication: primary/backup behaviour."""

import pytest

from repro.replication import ReplicationStyle
from tests.replication.helpers import (
    FAILOVER_US,
    build_rig,
    call,
    counter_values,
    fire,
    request_id,
    resend,
)


class TestWarmPassive:
    def test_only_primary_processes(self):
        testbed, replicas, clients = build_rig(ReplicationStyle.WARM_PASSIVE)
        call(testbed, clients[0], "add", 5)
        call(testbed, clients[0], "add", 5)
        processed = [r.replicator.requests_processed for r in replicas]
        assert processed == [2, 0, 0]

    def test_backups_track_state_via_checkpoints(self):
        testbed, replicas, clients = build_rig(ReplicationStyle.WARM_PASSIVE)
        call(testbed, clients[0], "add", 4)
        testbed.run(500_000)
        assert counter_values(replicas) == [4, 4, 4]
        assert all(r.replicator.checkpoints_applied >= 1
                   for r in replicas[1:])

    def test_checkpoint_interval_respected(self):
        testbed, replicas, clients = build_rig(
            ReplicationStyle.WARM_PASSIVE, checkpoint_interval=5)
        for _ in range(4):
            call(testbed, clients[0], "add", 1)
        testbed.run(300_000)
        # Only the join-time sync checkpoints so far (interval not hit).
        periodic = [rec for rec in range(replicas[0].replicator.checkpoints_sent)]
        sent_before = replicas[0].replicator.checkpoints_sent
        call(testbed, clients[0], "add", 1)  # fifth request
        testbed.run(300_000)
        assert replicas[0].replicator.checkpoints_sent == sent_before + 1

    def test_primary_crash_promotes_oldest_backup(self):
        testbed, replicas, clients = build_rig(ReplicationStyle.WARM_PASSIVE)
        call(testbed, clients[0], "add", 7)
        testbed.run(300_000)
        replicas[0].crash()
        testbed.run(300_000)
        assert replicas[1].replicator.is_primary
        reply = call(testbed, clients[0], "add", 3, timeout_us=FAILOVER_US)
        assert reply.payload == 10  # state survived the failover

    def test_host_crash_failover(self):
        testbed, replicas, clients = build_rig(ReplicationStyle.WARM_PASSIVE)
        call(testbed, clients[0], "add", 7)
        testbed.run(300_000)
        testbed.hosts["s01"].crash()
        reply = call(testbed, clients[0], "add", 3,
                     timeout_us=2 * FAILOVER_US)
        assert reply.payload == 10

    def test_double_failover(self):
        testbed, replicas, clients = build_rig(ReplicationStyle.WARM_PASSIVE)
        call(testbed, clients[0], "add", 1)
        testbed.run(300_000)
        replicas[0].crash()
        testbed.run(FAILOVER_US)
        call(testbed, clients[0], "add", 2, timeout_us=FAILOVER_US)
        testbed.run(300_000)
        replicas[1].crash()
        reply = call(testbed, clients[0], "add", 4,
                     timeout_us=2 * FAILOVER_US)
        assert reply.payload == 7

    def test_misdirected_request_relayed_to_primary(self):
        testbed, replicas, clients = build_rig(ReplicationStyle.WARM_PASSIVE)
        # Hand-deliver a request to a backup: it must relay, and the
        # client must still get the answer.
        from repro.orb import GiopRequest
        from repro.replication import RepRequest
        req = GiopRequest(request_id="manual-1", object_key="counter",
                          operation="add", payload=5, payload_bytes=32)
        rep = RepRequest(request=req, client=clients[0].gcs.member)
        clients[0].gcs.send_direct(replicas[1].replicator.member, rep,
                                   rep.wire_bytes)
        testbed.run(1_000_000)
        assert replicas[1].replicator.relays == 1
        assert replicas[0].servants["counter"].value == 5

    def test_client_learns_primary_and_sends_direct(self):
        testbed, replicas, clients = build_rig(ReplicationStyle.WARM_PASSIVE)
        call(testbed, clients[0], "add", 1)
        assert clients[0].replicator.primary == \
            replicas[0].replicator.member
        assert clients[0].replicator.style is ReplicationStyle.WARM_PASSIVE

    def test_broadcast_mode_backups_log_requests(self):
        testbed, replicas, clients = build_rig(
            ReplicationStyle.WARM_PASSIVE, broadcast_requests=True,
            checkpoint_interval=100)
        # With a huge checkpoint interval, backups accumulate a log.
        for _ in range(3):
            call(testbed, clients[0], "add", 1)
        testbed.run(300_000)
        # The first attempt goes direct (the client has not yet
        # learned the mode); replies piggyback broadcast=True, so
        # subsequent requests are multicast and the backups log them.
        from repro.orb import GiopRequest
        from repro.replication import RepRequest
        req = GiopRequest(request_id="logged-1", object_key="counter",
                          operation="add", payload=2, payload_bytes=32)
        rep = RepRequest(request=req, client=clients[0].gcs.member)
        clients[0].gcs.multicast("svc", rep, rep.wire_bytes)
        testbed.run(500_000)
        assert clients[0].replicator.broadcast is True
        assert replicas[0].servants["counter"].value == 5
        # Calls 2 and 3 (after the mode was learned) plus the manual
        # multicast were logged at the backups.
        assert len(replicas[1].replicator._request_log) == 3

    def test_broadcast_mode_replay_on_failover(self):
        testbed, replicas, clients = build_rig(
            ReplicationStyle.WARM_PASSIVE, broadcast_requests=True,
            checkpoint_interval=100, seed=2)
        from repro.orb import GiopRequest
        from repro.replication import RepRequest
        # Three requests through the group so backups log them.
        for i in range(3):
            req = GiopRequest(request_id=f"replay-{i}",
                              object_key="counter", operation="add",
                              payload=10, payload_bytes=32)
            rep = RepRequest(request=req, client=clients[0].gcs.member)
            clients[0].gcs.multicast("svc", rep, rep.wire_bytes)
        testbed.run(500_000)
        assert replicas[0].servants["counter"].value == 30
        assert replicas[1].servants["counter"].value == 0  # only logged
        replicas[0].crash()
        testbed.run(FAILOVER_US)
        # The new primary replayed the log: state recovered without
        # any client retransmission.
        assert replicas[1].servants["counter"].value == 30

    def test_passive_slower_than_active_under_concurrent_load(self):
        """Fig. 7(a): with several clients pipelining requests, the
        primary's checkpoint quiescence makes passive markedly slower,
        while active replicas answer without checkpoint stalls.  (With
        a single sequential client the two styles are comparable, as
        in Fig. 4.)"""
        import statistics

        def latencies(style):
            testbed, replicas, clients = build_rig(style, seed=5,
                                                   n_clients=4)
            out = []

            def closed_loop(client, remaining):
                sent_at = testbed.now

                def on_reply(reply):
                    out.append(testbed.now - sent_at)
                    if remaining > 1:
                        closed_loop(client, remaining - 1)
                client.orb_client.invoke("counter", "add", 1, 32, on_reply)

            for client in clients:
                closed_loop(client, 25)
            testbed.run(60_000_000)
            assert len(out) == 100
            return out

        active = latencies(ReplicationStyle.ACTIVE)
        passive = latencies(ReplicationStyle.WARM_PASSIVE)
        assert statistics.mean(passive) > 1.3 * statistics.mean(active)


class TestColdPassive:
    def test_cold_checkpoints_go_to_stable_store(self):
        testbed, replicas, clients = build_rig(
            ReplicationStyle.COLD_PASSIVE, n_replicas=1)
        call(testbed, clients[0], "add", 5)
        testbed.run(500_000)
        stored = []
        testbed.store.read("svc", stored.append)
        testbed.run(100_000)
        assert stored[0] is not None
        assert stored[0].state["counter"]["value"] == 5

    def test_cold_restart_restores_from_store(self):
        testbed, replicas, clients = build_rig(
            ReplicationStyle.COLD_PASSIVE, n_replicas=1)
        call(testbed, clients[0], "add", 8)
        testbed.run(500_000)
        replicas[0].crash()
        testbed.run(FAILOVER_US)
        from repro.experiments.testbed import deploy_replica
        from repro.orb import CounterServant
        from repro.replication import ReplicationConfig
        config = ReplicationConfig(style=ReplicationStyle.COLD_PASSIVE,
                                   group="svc")
        revived = deploy_replica(testbed, "s01", config,
                                 {"counter": CounterServant},
                                 process_name="svc-r2")
        testbed.run(1_000_000)
        assert revived.replicator.synced
        assert revived.servants["counter"].value == 8

    def test_cold_primary_crash_keeps_the_counter(self):
        """A cold backup holds only the state it synced at join; the
        take-over restores the stored checkpoint before serving."""
        testbed, replicas, clients = build_rig(ReplicationStyle.COLD_PASSIVE)
        for _ in range(3):
            call(testbed, clients[0], "add", 4)
        testbed.run(300_000)
        replicas[0].crash()
        reply = call(testbed, clients[0], "add", 1,
                     timeout_us=2 * FAILOVER_US)
        assert replicas[1].replicator.is_primary
        assert reply.payload == 13

    def test_cold_take_over_answers_a_pre_crash_retry_from_the_cache(self):
        testbed, replicas, clients = build_rig(ReplicationStyle.COLD_PASSIVE)
        for _ in range(3):
            call(testbed, clients[0], "add", 1)
        testbed.run(300_000)
        executed = [request_id(clients[0], n) for n in (1, 2, 3)]
        replicas[0].crash()
        testbed.run(FAILOVER_US)
        for executed_id in executed:
            resend(clients[0], executed_id)
        testbed.run(500_000)
        new_primary = replicas[1].replicator
        assert new_primary.is_primary
        assert new_primary.duplicates_suppressed == 3
        assert replicas[1].servants["counter"].value == 3

    def test_cold_restart_answers_a_pre_crash_retry_from_the_cache(self):
        testbed, replicas, clients = build_rig(
            ReplicationStyle.COLD_PASSIVE, n_replicas=1)
        call(testbed, clients[0], "add", 8)
        testbed.run(500_000)
        last = request_id(clients[0], 1)
        replicas[0].crash()
        testbed.run(FAILOVER_US)
        from repro.experiments.testbed import deploy_replica
        from repro.orb import CounterServant
        from repro.replication import ReplicationConfig
        revived = deploy_replica(
            testbed, "s01",
            ReplicationConfig(style=ReplicationStyle.COLD_PASSIVE,
                              group="svc"),
            {"counter": CounterServant}, process_name="svc-r2")
        testbed.run(1_000_000)
        resend(clients[0], last)
        testbed.run(500_000)
        assert revived.replicator.duplicates_suppressed == 1
        assert revived.servants["counter"].value == 8

    def test_cold_requires_store(self):
        from repro.errors import ReplicationError
        from repro.gcs import GcsClient
        from repro.experiments.testbed import Testbed
        from repro.replication import (
            ReplicationConfig, ServerReplicator)
        testbed = Testbed.paper_testbed(1, 1)
        proc = testbed.spawn("s01", "srv")
        gcs = testbed.connect(proc)
        with pytest.raises(ReplicationError):
            ServerReplicator(gcs, ReplicationConfig(
                style=ReplicationStyle.COLD_PASSIVE, group="svc"),
                store=None)
