"""The duplicate-suppression cache travels on checkpoints as a delta.

Periodic checkpoints ship only the entries added since the source's
previous checkpoint; complete snapshots go out at every hand-over
(state transfer, switch, take-over, a view that added a member).  These
tests pin the three things that must survive that: a replica that syncs
late and is later promoted still suppresses retries of *old* requests,
every synced backup's cache is the one whole-cache shipping would have
built (same keys, same LRU order), and the shipped volume is linear in
the request count.
"""

from dataclasses import replace

import pytest

from repro.experiments.scenarios import run_replicated_load
from repro.experiments.testbed import deploy_replica
from repro.faults import FaultInjector
from repro.orb import CounterServant
from repro.replication import ReplicationConfig, ReplicationStyle
from repro.replication import server as server_module
from repro.replication.messages import Checkpoint
from repro.sim import default_calibration
from tests.replication.helpers import (
    FAILOVER_US,
    build_rig,
    counter_values,
    drive,
    record_checkpoints,
    resend,
    start_load,
)

WARM = ReplicationStyle.WARM_PASSIVE


def _seen_keys(replica):
    return list(replica.replicator._seen)


def _completed_keys(replica):
    return [rid for rid, _ in replica.replicator.completed_seen()]


def _assert_old_retry_suppressed(testbed, client, survivor, old_id, total):
    """``survivor`` is the only replica left: a retry of the long-ago
    acknowledged ``old_id`` must come from its cache, not re-execute."""
    assert survivor.replicator.is_primary and survivor.replicator.synced
    assert survivor.servants["counter"].value == total
    suppressed = survivor.replicator.duplicates_suppressed
    processed = survivor.replicator.requests_processed
    resend(client, old_id)
    testbed.run(500_000)
    assert survivor.replicator.duplicates_suppressed == suppressed + 1
    assert survivor.replicator.requests_processed == processed
    assert survivor.servants["counter"].value == total


class TestLateSyncThenPromotion:
    def test_restarted_replica_suppresses_old_retry_after_promotion(self):
        testbed, replicas, clients = build_rig(WARM)
        client = clients[0]
        drive(testbed, client, 50)
        old_id = _seen_keys(replicas[0])[0]
        replicas[2].crash()
        testbed.run(FAILOVER_US)
        # Restart under load, so the join lands between periodic deltas.
        done = start_load(client, 30)
        testbed.run(20_000)
        joiner = deploy_replica(
            testbed, "s03", ReplicationConfig(style=WARM, group="svc"),
            {"counter": CounterServant}, process_name="svc-r4")
        while not done:
            testbed.run(50_000)
        testbed.run(300_000)
        assert joiner.replicator.synced
        assert _seen_keys(joiner) == _completed_keys(replicas[0])
        replicas[0].crash()
        replicas[1].crash()
        testbed.run(2 * FAILOVER_US)
        _assert_old_retry_suppressed(testbed, client, joiner, old_id, 80)

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
        # Acknowledged by the majority while s03 is wedged: the entries
        # the re-admitted replica can only get from a complete snapshot.
        done = start_load(client, 1500)
        testbed.run(1_500_000)
        wedged_keys = set(_seen_keys(replicas[2]))
        missed_id = next(rid for rid in _seen_keys(replicas[0])
                         if rid not in wedged_keys)
        while not done:
            testbed.run(50_000)
        assert testbed.now > split + 2_000_000, "load ended before the heal"
        testbed.run(500_000)
        minority = replicas[2]
        assert minority.replicator.synced
        assert counter_values(replicas) == [1510, 1510, 1510]
        assert _seen_keys(minority) == _completed_keys(replicas[0])
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
                           seen=(("late", None),), seen_base=98)
        backup._receive_checkpoint(stray)
        testbed.run(10_000)
        assert not backup.synced
        assert backup.checkpoints_applied == applied
        assert "late" not in backup._seen
        assert replicas[1].servants["counter"].value == 5
        # The retry timer pulls a complete one, which it may sync on.
        testbed.run(2 * server_module.SYNC_RETRY_US)
        assert backup.synced
        assert _seen_keys(replicas[1]) == _completed_keys(replicas[0])

    def test_double_failover_rearms_with_complete_checkpoints(self):
        testbed, replicas, clients = build_rig(WARM, n_replicas=4)
        client = clients[0]
        received = record_checkpoints(replicas[3])
        drive(testbed, client, 20)
        assert received[-1].seen_base and len(received[-1].seen) == 1
        for victim, heir in ((0, 1), (1, 2)):
            del received[:]
            replicas[victim].crash()
            testbed.run(FAILOVER_US)
            first = received[0]
            assert first.source == replicas[heir].replicator.member
            assert first.seen_base == 0
            assert [rid for rid, _ in first.seen] \
                == _completed_keys(replicas[heir])
            drive(testbed, client, 10)
            assert all(ckpt.seen_base for ckpt in received[1:])
        assert counter_values(replicas) == [40, 40]
        assert _seen_keys(replicas[3]) == _completed_keys(replicas[2])
        assert len(_seen_keys(replicas[3])) == 40


class TestSameCacheAsWholeShipping:
    """Shipping deltas must leave every synced backup with exactly the
    cache shipping the whole thing did: same keys, same order, so LRU
    eviction keeps choosing the same victims."""

    LIMIT = 60

    @pytest.mark.parametrize("interval", [1, 7, 25])
    @pytest.mark.parametrize("style,broadcast", [
        (WARM, False), (WARM, True)])
    def test_backups_mirror_the_primary(self, monkeypatch, style,
                                        broadcast, interval):
        monkeypatch.setattr(server_module, "SEEN_CACHE_LIMIT", self.LIMIT)
        testbed, replicas, clients = build_rig(
            style, checkpoint_interval=interval,
            broadcast_requests=broadcast)
        # Stop on checkpoint boundaries, below and then above the bound.
        below = (self.LIMIT * 2 // 3) // interval * interval
        above = -(-self.LIMIT * 2 // interval) * interval
        for total in (below, above):
            drive(testbed, clients[0],
                  total - replicas[0].replicator.requests_processed)
            testbed.run(100_000)
            expected = _completed_keys(replicas[0])
            assert len(expected) == min(total, self.LIMIT)
            for backup in replicas[1:]:
                assert backup.replicator.synced
                assert _seen_keys(backup) == expected


def test_seen_entries_shipped_is_linear_in_requests():
    shipped = [
        run_replicated_load(WARM, 3, 4, n_requests=n,
                            checkpoint_interval=1).seen_entries_shipped
        for n in (40, 80)]
    assert shipped[0] >= 4 * 40
    assert shipped[1] <= 2.2 * shipped[0]
