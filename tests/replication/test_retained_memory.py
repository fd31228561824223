"""What a replicated service still holds once its requests are answered.

Per client, a replica keeps one session with its last replies; per
request, the GCS keeps a message id for its duplicate filter; nothing
else grows with the run: the daemons keep a fixed window of stamps, a
client's daemon keeps no forward, and a cold backup's request log is
bounded.
"""

import gc
import tracemalloc

import repro.replication.server as server_module
from repro.replication import ReplicationStyle
from repro.replication.session import CHUNK, REPLY_TAIL
from tests.replication.helpers import FAILOVER_US, build_rig, call, drive

#: Bytes a 2,000-request closed ACTIVE loop retains per request, with
#: its rig still alive.  Measured at about 425 B, most of it the rig
#: itself (a 4,000-request loop retains about 85 B per extra request),
#: so the bound leaves about 40 % margin.  It was about 980 B while
#: each replica kept a reply per request in a window of 8,192, and
#: about 2,500 B while replicas cached whole replication replies,
#: daemons kept 4,096 stamps per group, and client daemons kept every
#: forward.
RETAINED_BYTES_PER_REQUEST = 600


def test_an_active_loop_retains_little_per_request():
    n_requests = 2_000
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE)
        drive(testbed, clients[0], n_requests)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    for replica in replicas:
        (session,) = replica.replicator._sessions.values()
        assert session.floor == n_requests and not session.above
        assert REPLY_TAIL <= len(session.kept()) < REPLY_TAIL + CHUNK
    assert retained / n_requests < RETAINED_BYTES_PER_REQUEST


def test_cold_backup_log_is_bounded_and_take_over_reexecutes_nothing(
        monkeypatch):
    """A cold backup in broadcast mode logs every request and gets no
    checkpoint to clear the log.  It keeps the newest
    ``COLD_LOG_LIMIT``; a take-over replays them, and the restored
    sessions answer every one the stored checkpoint holds."""
    limit = 32
    monkeypatch.setattr(server_module, "COLD_LOG_LIMIT", limit)
    testbed, replicas, clients = build_rig(ReplicationStyle.COLD_PASSIVE,
                                           broadcast_requests=True)
    n_requests = limit + 40
    drive(testbed, clients[0], n_requests)
    testbed.run(300_000)
    assert [len(r.replicator._request_log) for r in replicas[1:]] \
        == [limit, limit]
    replicas[0].crash()
    testbed.run(2 * FAILOVER_US)
    heir = replicas[1].replicator
    assert heir.is_primary
    assert heir.requests_processed == 0
    assert heir.duplicates_suppressed == limit
    assert replicas[1].servants["counter"].value == n_requests
    assert call(testbed, clients[0], "add", 1).payload == n_requests + 1
