"""White-box tests for ServerReplicator internals: role matrices,
reply-cache bounds, runtime knob setters, switch-id semantics."""

import pytest

from repro.errors import ReplicationError
from repro.replication import ReplicationStyle
from repro.replication.server import SEEN_CACHE_LIMIT
from tests.replication.helpers import build_rig, call


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
        testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
        replicator = replicas[0].replicator
        for i in range(SEEN_CACHE_LIMIT + 100):
            replicator._remember(f"req-{i}", None)
        assert len(replicator._seen) == SEEN_CACHE_LIMIT
        # Oldest entries evicted first.
        assert "req-0" not in replicator._seen
        assert f"req-{SEEN_CACHE_LIMIT + 99}" in replicator._seen

    def test_remember_refreshes_recency(self):
        testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
        replicator = replicas[0].replicator
        replicator._remember("old", None)
        for i in range(SEEN_CACHE_LIMIT - 1):
            replicator._remember(f"r{i}", None)
        replicator._remember("old", None)  # refresh
        replicator._remember("new", None)  # evicts r0, not old
        assert "old" in replicator._seen


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
        assert replicator.queued_requests == 0
