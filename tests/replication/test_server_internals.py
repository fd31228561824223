"""White-box tests for ServerReplicator internals: role matrices,
client sessions, runtime knob setters, switch-id semantics."""

import pytest

from repro.errors import ReplicationError
from repro.replication import ReplicationStyle
from repro.replication.session import CHUNK, REPLY_TAIL, Session
from tests.replication.helpers import build_rig, call, drive, resend


class TestRoleMatrix:
    @pytest.mark.parametrize("style,processes", [
        (ReplicationStyle.ACTIVE, [True, True, True]),
        (ReplicationStyle.WARM_PASSIVE, [True, False, False]),
    ])
    def test_processes_and_transmits(self, style, processes):
        """Whoever executes a request also answers it: every replica
        under active replication, the primary alone under passive."""
        testbed, replicas, clients = build_rig(style)
        assert [r.replicator.processes_requests for r in replicas] \
            == processes
        call(testbed, clients[0], "add", 1)
        assert [r.replicator.replies_sent == 1 for r in replicas] \
            == processes

    def test_primary_is_longest_standing(self):
        testbed, replicas, clients = build_rig(
            ReplicationStyle.WARM_PASSIVE)
        members = replicas[0].replicator.view.members
        assert members[0] == replicas[0].replicator.member
        assert replicas[0].replicator.primary == members[0]


class TestReplyCache:
    def test_cache_bounded(self):
        """Once its client awaits none of them, a session keeps the
        newest ``REPLY_TAIL`` replies (and fewer than ``CHUNK`` more)
        and a watermark for the rest."""
        session = Session()
        last = REPLY_TAIL + 100
        for number in range(1, last + 1):
            session.answer(number, f"reply-{number}", number)
        kept = list(session.kept())
        assert REPLY_TAIL <= len(kept) < REPLY_TAIL + CHUNK
        assert kept == list(range(last - len(kept) + 1, last + 1))
        assert session.reply(last) == f"reply-{last}"
        assert session.reply(1) is None
        assert session.floor == last and not session.above

    def test_replies_the_client_still_awaits_are_kept(self):
        session = Session()
        session.answer(1, "lost on the way", 1)
        for number in range(2, REPLY_TAIL + 50):
            session.answer(number, number, 1)
        assert len(session.kept()) == REPLY_TAIL + 49
        assert session.reply(1) == "lost on the way"
        # Answered at last: the next requests no longer await it.
        for number in range(REPLY_TAIL + 50, REPLY_TAIL + 50 + CHUNK):
            session.answer(number, "next", number)
        assert REPLY_TAIL <= len(session.kept()) < REPLY_TAIL + 2 * CHUNK
        assert session.reply(1) is None

    def test_watermark_covers_gaps_and_reordering(self):
        """A sharded client's numbers reach one replica with gaps, and
        retries can reorder them: the watermark rises over every number
        the client no longer awaits, and over contiguous runs."""
        session = Session()
        for number in (2, 5, 9):
            session.answer(number, "ok", number)
        assert (session.floor, session.above) == (9, set())
        session.answer(12, "ok", 11)
        session.answer(11, "ok", 11)
        assert (session.floor, session.above) == (12, set())

    def test_a_retry_from_long_ago_does_not_run_again(self):
        """A retry of a request that ran more than 8,192 requests
        earlier is dropped, not executed a second time."""
        testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE,
                                               n_replicas=1)
        first = f"{clients[0].process.host.name}/" \
                f"{clients[0].process.pid}-1"
        drive(testbed, clients[0], 8_300)
        replicator = replicas[0].replicator
        processed = replicator.requests_processed
        resend(clients[0], first)
        testbed.run(500_000)
        assert replicator.requests_processed == processed == 8_300
        assert replicas[0].servants["counter"].value == 8_300
        assert replicator.duplicates_suppressed == 0

    def test_a_late_oneway_request_still_runs(self):
        """A oneway request holds back no later request's ``awaiting``,
        so the watermark may pass its number before it arrives: it stays
        out of the sessions and runs whenever it comes."""
        testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE,
                                               n_replicas=1)
        client = clients[0]
        drive(testbed, client, 2)
        held = []
        send = client.gcs.multicast
        client.gcs.multicast = lambda *message: held.append(message)
        client.orb_client.invoke("counter", "add", 10, 32, None,
                                 oneway=True)
        testbed.run(10_000)
        client.gcs.multicast = send
        drive(testbed, client, 1)
        (session,) = replicas[0].replicator._sessions.values()
        assert len(held) == 1 and session.floor == 4
        send(*held[0])
        testbed.run(100_000)
        assert replicas[0].servants["counter"].value == 13


class TestRuntimeKnobSetters:
    def test_set_checkpoint_interval(self):
        testbed, replicas, clients = build_rig(
            ReplicationStyle.WARM_PASSIVE)
        replicas[0].replicator.set_checkpoint_interval(7)
        assert replicas[0].replicator.config \
            .checkpoint_interval_requests == 7

    def test_invalid_interval_rejected(self):
        testbed, replicas, clients = build_rig(
            ReplicationStyle.WARM_PASSIVE)
        with pytest.raises(ReplicationError):
            replicas[0].replicator.set_checkpoint_interval(0)


class TestSwitchIds:
    def test_switch_id_encodes_transition_and_epoch(self):
        testbed, replicas, clients = build_rig(
            ReplicationStyle.WARM_PASSIVE)
        switch_id = replicas[0].replicator.request_switch(
            ReplicationStyle.ACTIVE)
        assert switch_id == "svc:P->A:0"
        testbed.run(1_000_000)
        switch_id = replicas[0].replicator.request_switch(
            ReplicationStyle.WARM_PASSIVE)
        assert switch_id == "svc:A->P:1"

    def test_double_start_not_allowed(self):
        testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
        with pytest.raises(ReplicationError):
            replicas[0].orb_server.transport.start(lambda *a: None)


class TestHeldReplies:
    def test_passive_primary_holds_until_stability(self):
        """The reply for a checkpoint-covered request is not on the
        wire before the checkpoint publication completes."""
        testbed, replicas, clients = build_rig(
            ReplicationStyle.WARM_PASSIVE)
        primary = replicas[0].replicator
        assert primary._must_hold_reply() is True

    def test_active_never_holds(self):
        testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
        assert replicas[0].replicator._must_hold_reply() is False

    def test_interval_gt_one_holds_only_on_covering_request(self):
        testbed, replicas, clients = build_rig(
            ReplicationStyle.WARM_PASSIVE, checkpoint_interval=3)
        primary = replicas[0].replicator
        # since_ckpt = 0: the next request is 1 of 3 -> no hold.
        assert primary._must_hold_reply() is False
        primary._since_ckpt = 2  # next request completes the window
        assert primary._must_hold_reply() is True

    def test_no_hold_with_async_checkpoints(self):
        testbed, replicas, clients = build_rig(
            ReplicationStyle.WARM_PASSIVE, sync_checkpoints=False)
        assert replicas[0].replicator._must_hold_reply() is False

    def test_async_checkpoints_still_serve(self):
        testbed, replicas, clients = build_rig(
            ReplicationStyle.WARM_PASSIVE, sync_checkpoints=False)
        reply = call(testbed, clients[0], "add", 4)
        assert reply.payload == 4
        testbed.run(500_000)
        values = [r.servants["counter"].value for r in replicas]
        assert values == [4, 4, 4]


class TestStats:
    def test_counters_after_simple_run(self):
        testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
        for _ in range(3):
            call(testbed, clients[0], "add", 1)
        replicator = replicas[0].replicator
        assert replicator.requests_processed == 3
        assert replicator.replies_sent == 3
        assert replicator.duplicates_suppressed == 0
