"""The session table travels whole on every checkpoint.

Each checkpoint ships the source's table (one frozen session per
client, so shipping costs a reference per client).  Periodic
checkpoints remain increments of the source's previous one, which a
replica applies only if it applied that one.  These tests pin what must
survive: a replica that syncs late and is later promoted still never
runs an *old* request again, every synced backup holds the primary's
table, a request still running when a checkpoint is captured is not
shipped as run, an open-loop client's retry is answered however many
later requests ran, and what a checkpoint ships grows with the clients.
"""

from dataclasses import replace

import pytest

from repro.experiments.testbed import deploy_replica
from repro.faults import FaultInjector
from repro.orb import CounterServant
from repro.replication import ReplicationConfig, ReplicationStyle, RepReply
from repro.replication import server as server_module
from repro.replication.messages import Checkpoint
from repro.replication.session import CHUNK, REPLY_TAIL
from repro.sim import default_calibration
from tests.replication.helpers import (
    FAILOVER_US,
    build_rig,
    call,
    counter_values,
    drive,
    fire,
    record_checkpoints,
    request_id,
    resend,
    sessions_of,
    start_load,
)

WARM = ReplicationStyle.WARM_PASSIVE


def _assert_old_retry_suppressed(testbed, client, survivor, old_id, total):
    """``survivor`` is the only replica left: a retry of the long-ago
    acknowledged ``old_id`` must not run again, and is answered only if
    its client's session still keeps the reply."""
    assert survivor.replicator.is_primary and survivor.replicator.synced
    assert survivor.servants["counter"].value == total
    suppressed = survivor.replicator.duplicates_suppressed
    processed = survivor.replicator.requests_processed
    number = int(old_id.rpartition("-")[2])
    (session,) = survivor.replicator._sessions.values()
    kept = session.reply(number) is not None
    resend(client, old_id)
    testbed.run(500_000)
    assert survivor.replicator.duplicates_suppressed == suppressed + kept
    assert survivor.replicator.requests_processed == processed
    assert survivor.servants["counter"].value == total


class TestLateSyncThenPromotion:
    def test_restarted_replica_suppresses_old_retry_after_promotion(self):
        testbed, replicas, clients = build_rig(WARM)
        client = clients[0]
        drive(testbed, client, 50)
        replicas[2].crash()
        testbed.run(FAILOVER_US)
        # Restart under load, so the join lands between increments.
        done = start_load(client, 30)
        testbed.run(20_000)
        joiner = deploy_replica(
            testbed, "s03", ReplicationConfig(style=WARM, group="svc"),
            {"counter": CounterServant}, process_name="svc-r4")
        while not done:
            testbed.run(50_000)
        testbed.run(300_000)
        assert joiner.replicator.synced
        assert sessions_of(joiner) == sessions_of(replicas[0])
        replicas[0].crash()
        replicas[1].crash()
        testbed.run(2 * FAILOVER_US)
        # Both the first request (its reply aged out) and one whose
        # reply is still kept.
        for number in (1, 80 - REPLY_TAIL + 1):
            _assert_old_retry_suppressed(testbed, client, joiner,
                                         request_id(client, number), 80)

    def test_readmitted_minority_replica_suppresses_old_retry(self):
        base = default_calibration()
        testbed, replicas, clients = build_rig(
            WARM, calibration=replace(
                base, gcs=replace(base.gcs, primary_partition=True)))
        client = clients[0]
        drive(testbed, client, 10)
        split = testbed.now + 10_000
        FaultInjector(testbed.sim, testbed.network).partition_at(
            [["s03"]], split, split + 2_000_000)
        # Acknowledged by the majority while s03 is wedged: requests the
        # re-admitted replica can only learn of from a checkpoint.
        done = start_load(client, 1500)
        testbed.run(1_500_000)
        (wedged,) = sessions_of(replicas[2]).values()
        (majority,) = sessions_of(replicas[0]).values()
        assert majority[0] > wedged[0] + 1
        missed_id = request_id(client, wedged[0] + 1)
        while not done:
            testbed.run(50_000)
        assert testbed.now > split + 2_000_000, "load ended before the heal"
        testbed.run(500_000)
        minority = replicas[2]
        assert minority.replicator.synced
        assert counter_values(replicas) == [1510, 1510, 1510]
        assert sessions_of(minority) == sessions_of(replicas[0])
        replicas[0].crash()
        replicas[1].crash()
        testbed.run(2 * FAILOVER_US)
        _assert_old_retry_suppressed(testbed, client, minority, missed_id,
                                     1510)

    def test_unsynced_joiner_ignores_a_delta_it_cannot_anchor(self):
        testbed, replicas, clients = build_rig(WARM)
        drive(testbed, clients[0], 5)
        primary, backup = replicas[0].replicator, replicas[1].replicator
        backup._unsync()
        applied = backup.checkpoints_applied
        stray = Checkpoint(ckpt_id=99, state={"counter": {"value": 1000}},
                           state_bytes=64, source=primary.member,
                           sessions={}, base=98)
        backup._receive_checkpoint(stray)
        testbed.run(10_000)
        assert not backup.synced
        assert backup.checkpoints_applied == applied
        assert backup._sessions
        assert replicas[1].servants["counter"].value == 5
        # The retry timer pulls a complete one, which it may sync on.
        testbed.run(2 * server_module.SYNC_RETRY_US)
        assert backup.synced
        assert sessions_of(replicas[1]) == sessions_of(replicas[0])

    def test_double_failover_rearms_with_complete_checkpoints(self):
        testbed, replicas, clients = build_rig(WARM, n_replicas=4)
        client = clients[0]
        received = record_checkpoints(replicas[3])
        drive(testbed, client, 20)
        assert received[-1].base == received[-1].ckpt_id - 1
        for victim, heir in ((0, 1), (1, 2)):
            del received[:]
            replicas[victim].crash()
            testbed.run(FAILOVER_US)
            first = received[0]
            assert first.source == replicas[heir].replicator.member
            assert first.base == 0
            drive(testbed, client, 10)
            assert all(ckpt.base for ckpt in received[1:])
        assert counter_values(replicas) == [40, 40]
        assert sessions_of(replicas[3]) == sessions_of(replicas[2])
        (session,) = sessions_of(replicas[3]).values()
        assert session[0] == 40 and len(session[2]) == 40


class TestSameCacheAsWholeShipping:
    """Every synced backup holds the primary's table: the same
    watermark and the same kept replies, below and above the tail."""

    @pytest.mark.parametrize("interval", [1, 7, 25])
    @pytest.mark.parametrize("style,broadcast", [
        (WARM, False), (WARM, True)])
    def test_backups_mirror_the_primary(self, style, broadcast, interval):
        testbed, replicas, clients = build_rig(
            style, checkpoint_interval=interval,
            broadcast_requests=broadcast)
        # Stop on checkpoint boundaries, below and then above the tail.
        below = (REPLY_TAIL * 2 // 3) // interval * interval
        above = -(-REPLY_TAIL * 2 // interval) * interval
        for total in (below, above):
            drive(testbed, clients[0],
                  total - replicas[0].replicator.requests_processed)
            testbed.run(100_000)
            expected = sessions_of(replicas[0])
            (session,) = expected.values()
            assert session[0] == total
            if total < REPLY_TAIL:
                assert len(session[2]) == total
            else:
                assert REPLY_TAIL <= len(session[2]) < REPLY_TAIL + CHUNK
            for backup in replicas[1:]:
                assert backup.replicator.synced
                assert sessions_of(backup) == expected


def test_a_checkpoint_ships_one_session_per_client():
    testbed, replicas, clients = build_rig(WARM, n_clients=3)
    received = record_checkpoints(replicas[1])
    for client in clients:
        drive(testbed, client, 2 * REPLY_TAIL)
    last = received[-1]
    assert len(last.sessions) == 3
    assert all(REPLY_TAIL <= len(session.kept()) < REPLY_TAIL + CHUNK
               for session in last.sessions.values())
    # Frozen once shipped: the primary copies a session before changing
    # it, so the checkpoint keeps what it carried.
    floors = {c: s.floor for c, s in last.sessions.items()}
    drive(testbed, clients[0], 5)
    assert {c: s.floor for c, s in last.sessions.items()} == floors


def test_open_loop_retry_is_answered_after_many_later_requests():
    """An open-loop client whose first reply is lost keeps sending; its
    later requests say it still awaits the first, so the replica keeps
    that reply past the tail and answers the retry from it."""
    testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE,
                                           n_replicas=1)
    client = clients[0]
    first = request_id(client, 1)
    deliver = client.replicator._on_direct
    lost = []

    def lose_first_reply(sender, payload, nbytes):
        if isinstance(payload, RepReply) \
                and payload.reply.request_id == first and not lost:
            lost.append(payload)
            return
        deliver(sender, payload, nbytes)

    client.gcs.on_direct(lose_first_reply)
    replies = [fire(client, "add", 1) for _ in range(REPLY_TAIL + 20)]
    testbed.run(150_000)
    replicator = replicas[0].replicator
    assert lost and not replies[0]
    assert all(replies[1:])
    (session,) = replicator._sessions.values()
    assert session.awaited == 1 and session.reply(1) is not None
    assert len(session.kept()) == REPLY_TAIL + 20
    # The client's retry timer fires: answered from the session.
    testbed.run(1_000_000)
    assert replies[0] and replies[0][0].payload == 1
    assert replicator.duplicates_suppressed == 1
    assert replicator.requests_processed == REPLY_TAIL + 20
    assert replicas[0].servants["counter"].value == REPLY_TAIL + 20


def test_a_request_running_at_a_checkpoint_runs_at_the_new_primary():
    """A checkpoint captured while another client's request is still
    running must not ship that request as run: the state it carries
    lacks the effect, so after a take-over the retry has to run."""
    testbed, replicas, clients = build_rig(
        WARM, n_clients=2, checkpoint_interval=2,
        servant_factory=lambda: CounterServant(processing_us=50_000.0))
    primary = replicas[0].replicator
    call(testbed, clients[0], "add", 1)
    running_at_capture = []
    capture = primary._capture

    def spy():
        running_at_capture.append(set(primary._running))
        return capture()

    primary._capture = spy
    late = clients[1]
    second = request_id(late, 1)
    received = record_checkpoints(replicas[1])
    first = fire(clients[0], "add", 10)
    testbed.run(20_000)
    # Admitted while the first runs; the first's answer is the second
    # request of the interval, so the checkpoint is captured then.
    replies = fire(late, "add", 100)
    while not received:
        testbed.run(5_000)
    assert running_at_capture == [{second}]
    (ckpt,) = received
    shipped = ckpt.sessions.get(second.rpartition("-")[0])
    assert shipped is None or (shipped.floor < 1 and 1 not in shipped.above)
    # The backups hold that checkpoint; the second is still running.
    assert primary._running == {second} and not replies
    replicas[0].crash()
    testbed.run(2 * FAILOVER_US)
    assert first and first[0].payload == 11
    assert replies and replies[0].payload == 111
    heir = replicas[1]
    assert heir.replicator.is_primary
    assert heir.servants["counter"].value == 111


@pytest.mark.xfail(strict=True, reason=(
    "a periodic checkpoint captures a request the ORB already "
    "dispatched but the replicator has not answered: its state holds "
    "the effect, its sessions do not, so the retry runs again at the "
    "new primary (ROADMAP item 21)"))
def test_a_dispatched_request_in_a_periodic_checkpoint_runs_once():
    """Two clients' ``add``s are admitted at once.  The checkpoint the
    first answer triggers is captured after the ORB has dispatched the
    second, so its state already holds the second's effect.  The
    primary crashes 1 us after multicasting it, before the second is
    answered; the second's retry must not run again at the heir."""
    testbed, replicas, clients = build_rig(
        WARM, n_clients=2, checkpoint_interval=1,
        servant_factory=lambda: CounterServant(processing_us=50_000.0))
    call(testbed, clients[0], "add", 1)
    primary = replicas[0].replicator
    multicast = primary.gcs.multicast
    crash_at = []

    def crash_after_first_checkpoint(group, payload, nbytes):
        multicast(group, payload, nbytes)
        if isinstance(payload, Checkpoint) and not crash_at:
            crash_at.append(testbed.now + 1.0)
            testbed.sim.schedule_at(crash_at[0], replicas[0].crash)

    primary.gcs.multicast = crash_after_first_checkpoint
    first = fire(clients[0], "add", 10)
    second = fire(clients[1], "add", 100)
    testbed.run(4 * FAILOVER_US)
    assert crash_at and not replicas[0].alive
    assert first and first[0].payload == 11
    assert second and second[0].payload == 111
    assert counter_values(replicas) == [111, 111]
