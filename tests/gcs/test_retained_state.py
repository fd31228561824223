"""What a GCS daemon keeps between stamps, and that it keeps no more.

A daemon holds the last ``FLUSH_HISTORY_WINDOW`` stamps per group (all
a flush or a group snapshot reads), the message ids of the last
``history_limit`` stamps (all the duplicate-filter rebuild reads), and
a forward only while it will see that forward's stamp come back.
"""

from collections import Counter

from hypothesis import example, given, settings, strategies as st

from repro.gcs.daemon import FLUSH_HISTORY_WINDOW
from repro.gcs.messages import MemberId, Stamped, StampKind
from repro.replication import RepRequest, ReplicationStyle
from repro.sim import GcsCalibration, SubstrateCalibration
from tests.replication.helpers import (
    FAILOVER_US,
    build_rig,
    counter_values,
    drive,
)
from tests.support import Cluster

SMALL_LIMIT = 16


def _small_history() -> SubstrateCalibration:
    return SubstrateCalibration(gcs=GcsCalibration(history_limit=SMALL_LIMIT))


def _count_group_deliveries(replica) -> Counter:
    """Request id -> times the replica was delivered it on the group.

    The GCS client holds the replicator's bound group handler from
    ``start()`` on, so the spy wraps the request intake it calls."""
    delivered: Counter = Counter()
    receive = replica.replicator._receive_request

    def spy(rep: RepRequest, via_group: bool) -> None:
        if via_group:
            delivered[rep.request.request_id] += 1
        receive(rep, via_group)

    replica.replicator._receive_request = spy
    return delivered


def test_every_daemon_keeps_at_most_the_flush_window_per_group():
    testbed, _replicas, clients = build_rig(ReplicationStyle.ACTIVE)
    drive(testbed, clients[0], 3 * FLUSH_HISTORY_WINDOW)
    states = [state for daemon in testbed.daemons.values()
              for state in daemon._groups.values()]
    assert max(state.last_stamp for state in states) \
        > 3 * FLUSH_HISTORY_WINDOW
    assert all(len(state.history) <= FLUSH_HISTORY_WINDOW
               for state in states)


def test_client_host_daemon_holds_no_forward_after_a_closed_loop():
    """The client's host runs no member of the group, so no DATA stamp
    ever comes back to it: a forward it kept would stay for good."""
    testbed, _replicas, clients = build_rig(ReplicationStyle.ACTIVE)
    drive(testbed, clients[0], 100)
    assert not testbed.daemons["w01"]._pending_forwards
    assert all(not daemon._pending_forwards
               for daemon in testbed.daemons.values())


def test_view_install_after_the_dedup_window_delivers_nothing_twice():
    """A daemon view change past ``4 x history_limit`` requests: the
    sequencer's duplicate filter has forgotten the early message ids,
    so any forward re-routed then would be stamped a second time."""
    testbed, replicas, clients = build_rig(ReplicationStyle.ACTIVE,
                                           calibration=_small_history())
    delivered = [_count_group_deliveries(replica)
                 for replica in replicas[:2]]
    n_requests = 4 * SMALL_LIMIT + 40
    drive(testbed, clients[0], n_requests)
    testbed.hosts["s03"].crash()
    testbed.run(FAILOVER_US)
    assert testbed.daemons["s01"].view.members == ("s01", "s02", "w01")
    for counts in delivered:
        assert len(counts) == n_requests
        assert set(counts.values()) == {1}
    assert all(r.replicator.duplicates_suppressed == 0 for r in replicas[:2])
    assert counter_values(replicas) == [n_requests, n_requests]
    drive(testbed, clients[0], 5)
    assert counter_values(replicas) == [n_requests + 5] * 2


#: One applied stamp: its kind and a message id from a pool small
#: enough that ids repeat; a tenth of the draws give the empty id.
_stamp_plans = st.lists(
    st.tuples(st.sampled_from([StampKind.DATA] * 4
                              + [StampKind.JOIN, StampKind.LEAVE]),
              st.integers(min_value=0, max_value=399)),
    min_size=4 * SMALL_LIMIT + 1, max_size=10 * SMALL_LIMIT)


@given(_stamp_plans)
# 96 distinct ids: the set passes 4 x 16 and is rebuilt.
@example([(StampKind.DATA, 40 + n) for n in range(6 * SMALL_LIMIT)])
@settings(max_examples=25, deadline=None)
def test_recent_msg_ids_follow_the_old_rebuild_rule(plan):
    """After every stamp, ``recent_msg_ids`` equals a model of the rule
    over the whole stamp history: add each non-empty id, and once the
    set passes ``4 x history_limit``, rebuild it from the non-empty ids
    of the last ``history_limit`` stamps."""
    cluster = Cluster(["h1", "h2"], calibration=_small_history())
    daemon = cluster.daemons["h1"]
    members = [MemberId("h2", n, "m") for n in range(3)]
    ids, model = [], set()
    for seq, (kind, n) in enumerate(plan, start=1):
        msg_id = f"h2:{n}" if n >= 40 else ""
        daemon._apply_stamp(Stamped(group="g", seq=seq, kind=kind,
                                    origin=members[seq % 3],
                                    msg_id=msg_id))
        ids.append(msg_id)
        if msg_id:
            model.add(msg_id)
            if len(model) > 4 * SMALL_LIMIT:
                model = {m for m in ids[-SMALL_LIMIT:] if m}
        state = daemon._groups["g"]
        assert state.recent_msg_ids == model, seq
        assert len(state.history) == min(seq, SMALL_LIMIT)
