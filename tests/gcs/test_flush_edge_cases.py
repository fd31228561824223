"""View-change (flush) protocol edge cases.

The paper's switch protocol leans on the GCS surviving arbitrary
single/dual crashes, including crashes of the flush coordinator
itself mid-protocol.  These tests target those windows directly.
"""

import pytest

from tests.support import Cluster, RecordingListener

FAILOVER_US = 1_500_000


def _joined(cluster, specs):
    clients, listeners = [], []
    for host, name in specs:
        _, c = cluster.client(host, name)
        listener = RecordingListener()
        c.join("grp", listener)
        clients.append(c)
        listeners.append(listener)
    cluster.run(80_000)
    return clients, listeners


def test_coordinator_crashes_during_its_own_flush():
    """h1 (coordinator) starts a flush for h4's death, then dies
    before installing: h2 must take over and finish the view change."""
    cluster = Cluster(["h1", "h2", "h3", "h4"], seed=21)
    clients, listeners = _joined(cluster, [("h2", "b"), ("h3", "c")])
    cluster.hosts["h4"].crash()
    # Let failure detection begin, then kill the coordinator while the
    # flush is (likely) in progress.
    cluster.run(400_000)
    cluster.hosts["h1"].crash()
    cluster.run(4 * FAILOVER_US)
    for name in ("h2", "h3"):
        assert cluster.daemons[name].view.members == ("h2", "h3")
    clients[0].multicast("grp", "works", nbytes=10)
    cluster.run(200_000)
    assert "works" in listeners[1].payloads


def test_member_crashes_while_acking_flush():
    """A proposed member dies mid-flush: the coordinator must restart
    the flush without it."""
    cluster = Cluster(["h1", "h2", "h3", "h4"], seed=22)
    clients, listeners = _joined(cluster, [("h1", "a"), ("h2", "b")])
    cluster.hosts["h4"].crash()
    cluster.run(380_000)  # failure detection window for h4
    cluster.hosts["h3"].crash()  # dies around flush time
    cluster.run(4 * FAILOVER_US)
    assert cluster.daemons["h1"].view.members == ("h1", "h2")
    clients[0].multicast("grp", "still-alive", nbytes=10)
    cluster.run(200_000)
    assert "still-alive" in listeners[1].payloads


def test_cascading_crashes_down_to_one_daemon():
    cluster = Cluster(["h1", "h2", "h3", "h4"], seed=23)
    clients, listeners = _joined(cluster, [("h4", "d")])
    for victim in ("h1", "h2", "h3"):
        cluster.hosts[victim].crash()
        cluster.run(2 * FAILOVER_US)
    assert cluster.daemons["h4"].view.members == ("h4",)
    assert cluster.daemons["h4"].is_sequencer
    clients[0].multicast("grp", "alone", nbytes=10)
    cluster.run(200_000)
    assert "alone" in listeners[0].payloads


def test_traffic_during_flush_is_buffered_not_lost():
    """Sends issued while a view change is in progress are suspended
    and drained after the install (no message loss, no duplication)."""
    cluster = Cluster(["h1", "h2", "h3"], seed=24)
    clients, listeners = _joined(cluster, [("h2", "b"), ("h3", "c")])
    cluster.hosts["h1"].crash()
    # Pump messages through the whole detection+flush window.
    for i in range(30):
        cluster.sim.schedule(i * 40_000.0, clients[0].multicast,
                             "grp", f"m{i}", 10)
    cluster.run(4 * FAILOVER_US)
    expected = [f"m{i}" for i in range(30)]
    assert listeners[0].payloads == expected
    assert listeners[1].payloads == expected


def test_view_ids_strictly_increase():
    cluster = Cluster(["h1", "h2", "h3", "h4"], seed=25)
    _joined(cluster, [("h4", "d")])
    seen_ids = [cluster.daemons["h4"].view.view_id]
    cluster.hosts["h1"].crash()
    cluster.run(2 * FAILOVER_US)
    seen_ids.append(cluster.daemons["h4"].view.view_id)
    cluster.hosts["h2"].crash()
    cluster.run(2 * FAILOVER_US)
    seen_ids.append(cluster.daemons["h4"].view.view_id)
    assert seen_ids == sorted(set(seen_ids))
    assert len(set(seen_ids)) == 3


def test_stale_frames_from_removed_daemon_ignored():
    """After a (falsely suspected or restarted) daemon is removed,
    survivors keep functioning; a message from the removed host must
    not corrupt the installed view."""
    cluster = Cluster(["h1", "h2", "h3"], seed=26)
    clients, listeners = _joined(cluster, [("h2", "b"), ("h3", "c")])
    cluster.hosts["h1"].crash()
    cluster.run(3 * FAILOVER_US)
    assert cluster.daemons["h2"].view.members == ("h2", "h3")
    clients[0].multicast("grp", "post", nbytes=10)
    cluster.run(200_000)
    assert "post" in listeners[1].payloads
    assert cluster.daemons["h2"].view.members == ("h2", "h3")


def test_group_joins_during_view_change_complete_after():
    cluster = Cluster(["h1", "h2", "h3"], seed=27)
    clients, listeners = _joined(cluster, [("h2", "b")])
    cluster.hosts["h1"].crash()
    cluster.run(100_000)  # crash detected soon; join races the flush
    _, late = cluster.client("h3", "late")
    late_listener = RecordingListener()
    late.join("grp", late_listener)
    cluster.run(4 * FAILOVER_US)
    final = listeners[0].member_sets[-1]
    assert any("late" in m for m in final)
    clients[0].multicast("grp", "hello-late", nbytes=10)
    cluster.run(200_000)
    assert "hello-late" in late_listener.payloads
