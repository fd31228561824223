"""GCS behaviour under crash faults and message loss."""

import pytest

from repro.net import BurstLoss, RandomLoss
from tests.support import Cluster, RecordingListener

#: Long enough for heartbeat timeout (350 ms) + flush to complete.
FAILOVER_US = 1_500_000


@pytest.fixture
def cluster():
    return Cluster(["h1", "h2", "h3", "h4"])


def _joined(cluster, specs):
    """Join one client per (host, name) spec; returns (clients, listeners)."""
    clients, listeners = [], []
    for host, name in specs:
        _, c = cluster.client(host, name)
        listener = RecordingListener()
        c.join("grp", listener.on_message, listener.on_view)
        clients.append(c)
        listeners.append(listener)
    cluster.run(80_000)
    return clients, listeners


class TestProcessCrash:
    def test_local_process_death_removes_member_fast(self, cluster):
        clients, listeners = _joined(
            cluster, [("h1", "a"), ("h2", "b")])
        clients[0].process.kill()
        # Local disconnect detection: no heartbeat timeout needed.
        cluster.run(100_000)
        assert len(listeners[1].member_sets[-1]) == 1
        assert "a" not in str(listeners[1].member_sets[-1])

    def test_dead_member_receives_nothing(self, cluster):
        clients, listeners = _joined(
            cluster, [("h1", "a"), ("h2", "b")])
        clients[0].process.kill()
        cluster.run(100_000)
        clients[1].multicast("grp", "after-death", nbytes=10)
        cluster.run(100_000)
        assert "after-death" not in listeners[0].payloads
        assert "after-death" in listeners[1].payloads

    def test_view_change_marked_crashed_for_local_death(self, cluster):
        clients, listeners = _joined(cluster, [("h1", "a"), ("h2", "b")])
        clients[0].process.kill()
        cluster.run(100_000)
        # A dead local connection is a detected failure (Spread's
        # caused-by-disconnect membership), not a voluntary leave.
        assert listeners[1].views[-1][2] is True

    def test_voluntary_leave_not_marked_crashed(self, cluster):
        clients, listeners = _joined(cluster, [("h1", "a"), ("h2", "b")])
        clients[0].leave("grp")
        cluster.run(100_000)
        assert len(listeners[1].member_sets[-1]) == 1
        assert listeners[1].views[-1][2] is False


class TestHostCrash:
    def test_host_crash_triggers_daemon_view_change(self, cluster):
        _joined(cluster, [("h1", "a"), ("h2", "b")])
        cluster.hosts["h2"].crash()
        cluster.run(FAILOVER_US)
        for name in ("h1", "h3", "h4"):
            assert "h2" not in cluster.daemons[name].view.members
            assert cluster.daemons[name].view.view_id > 0

    def test_members_on_crashed_host_removed_as_crashed(self, cluster):
        clients, listeners = _joined(
            cluster, [("h1", "a"), ("h2", "b"), ("h3", "c")])
        cluster.hosts["h2"].crash()
        cluster.run(FAILOVER_US)
        final = listeners[0].views[-1]
        assert len(final[1]) == 2
        assert "b" not in str(final[1])
        assert final[2] is True  # crashed flag set
        # Survivors agree on the final view.
        assert listeners[0].views[-1][1] == listeners[2].views[-1][1]

    def test_multicast_works_after_view_change(self, cluster):
        clients, listeners = _joined(
            cluster, [("h1", "a"), ("h2", "b"), ("h3", "c")])
        cluster.hosts["h2"].crash()
        cluster.run(FAILOVER_US)
        clients[0].multicast("grp", "post-crash", nbytes=10)
        cluster.run(100_000)
        assert "post-crash" in listeners[0].payloads
        assert "post-crash" in listeners[2].payloads

    def test_sequencer_crash_elects_new_sequencer(self, cluster):
        clients, listeners = _joined(
            cluster, [("h2", "b"), ("h3", "c")])
        assert cluster.daemons["h2"].sequencer == "h1"
        cluster.hosts["h1"].crash()
        cluster.run(FAILOVER_US)
        assert cluster.daemons["h2"].sequencer == "h2"
        assert cluster.daemons["h2"].is_sequencer
        clients[0].multicast("grp", "new-seq", nbytes=10)
        cluster.run(100_000)
        assert "new-seq" in listeners[1].payloads

    def test_messages_in_flight_at_sequencer_crash_not_lost(self, cluster):
        """AGREED messages forwarded but unstamped when the sequencer
        dies are re-forwarded to the new sequencer after the view change."""
        clients, listeners = _joined(
            cluster, [("h2", "b"), ("h3", "c")])
        # Crash the sequencer, then immediately multicast: the forward
        # races with failure detection and must survive it.
        cluster.hosts["h1"].crash()
        clients[0].multicast("grp", "racing", nbytes=10)
        cluster.run(FAILOVER_US)
        assert listeners[0].payloads.count("racing") == 1
        assert listeners[1].payloads.count("racing") == 1

    def test_virtual_synchrony_same_set_before_view(self, cluster):
        """All survivors deliver the same multicast set before the
        crash view change (flush reconciliation)."""
        clients, listeners = _joined(
            cluster, [("h2", "b"), ("h3", "c"), ("h4", "d")])
        for i in range(10):
            clients[0].multicast("grp", f"m{i}", nbytes=10)
        cluster.hosts["h1"].crash()  # sequencer dies mid-stream
        cluster.run(FAILOVER_US)
        assert listeners[0].payloads == listeners[1].payloads
        assert listeners[0].payloads == listeners[2].payloads

    def test_double_crash_sequential(self, cluster):
        clients, listeners = _joined(
            cluster, [("h3", "c"), ("h4", "d")])
        cluster.hosts["h1"].crash()
        cluster.run(FAILOVER_US)
        cluster.hosts["h2"].crash()
        cluster.run(FAILOVER_US)
        assert cluster.daemons["h3"].view.members == ("h3", "h4")
        clients[0].multicast("grp", "still-works", nbytes=10)
        cluster.run(100_000)
        assert "still-works" in listeners[1].payloads

    def test_simultaneous_double_crash(self, cluster):
        clients, listeners = _joined(
            cluster, [("h3", "c"), ("h4", "d")])
        cluster.hosts["h1"].crash()
        cluster.hosts["h2"].crash()
        cluster.run(2 * FAILOVER_US)
        assert cluster.daemons["h3"].view.members == ("h3", "h4")
        clients[0].multicast("grp", "survivors", nbytes=10)
        cluster.run(100_000)
        assert "survivors" in listeners[0].payloads
        assert "survivors" in listeners[1].payloads

    def test_crash_of_non_sequencer_member(self, cluster):
        clients, listeners = _joined(
            cluster, [("h1", "a"), ("h4", "d")])
        cluster.hosts["h4"].crash()
        cluster.run(FAILOVER_US)
        assert "d" not in str(listeners[0].member_sets[-1])
        clients[0].multicast("grp", "onward", nbytes=10)
        cluster.run(100_000)
        assert "onward" in listeners[0].payloads


class TestMessageLoss:
    def test_reliable_multicast_survives_heavy_loss(self):
        cluster = Cluster(["h1", "h2"], seed=3)
        _, sender = cluster.client("h1", "s")
        _, receiver = cluster.client("h2", "r")
        listener = RecordingListener()
        receiver.join("grp", listener.on_message, listener.on_view)
        cluster.run(80_000)
        cluster.network.add_loss_model(RandomLoss(0.3))
        for i in range(20):
            sender.multicast("grp", i, nbytes=10)
        cluster.run(2_000_000)
        assert listener.payloads == list(range(20))

    def test_fifo_order_preserved_under_loss(self):
        """AGREED keeps each sender's order while the reliable links
        retransmit what the loss drops, in both directions."""
        cluster = Cluster(["h1", "h2"], seed=11)
        _, sender = cluster.client("h1", "s")
        _, receiver = cluster.client("h2", "r")
        listener = RecordingListener()
        receiver.join("grp", listener.on_message, listener.on_view)
        cluster.run(80_000)
        cluster.network.add_loss_model(RandomLoss(0.25))
        for i in range(15):
            sender.multicast("grp", ("s", i), nbytes=10)
            receiver.multicast("grp", ("r", i), nbytes=10)
        cluster.run(2_000_000)
        for name in ("s", "r"):
            assert [i for who, i in listener.payloads
                    if who == name] == list(range(15))

    def test_short_loss_burst_does_not_break_membership(self):
        cluster = Cluster(["h1", "h2", "h3"], seed=7)
        clients, listeners = [], []
        for host, name in [("h1", "a"), ("h2", "b")]:
            _, c = cluster.client(host, name)
            listener = RecordingListener()
            c.join("grp", listener.on_message, listener.on_view)
            clients.append(c)
            listeners.append(listener)
        cluster.run(80_000)
        start = cluster.sim.now
        # 150 ms of total loss: under the 350 ms failure timeout.
        cluster.network.add_loss_model(
            BurstLoss(start, start + 150_000, rate=1.0))
        cluster.run(2_000_000)
        for daemon in cluster.daemons.values():
            assert daemon.view.members == ("h1", "h2", "h3")
        clients[0].multicast("grp", "alive", nbytes=10)
        cluster.run(100_000)
        assert "alive" in listeners[1].payloads


class TestDeterminism:
    def test_identical_seed_identical_outcome(self):
        def run(seed):
            cluster = Cluster(["h1", "h2", "h3"], seed=seed,
                              deterministic_network=False)
            clients, listeners = [], []
            for host, name in [("h1", "a"), ("h2", "b"), ("h3", "c")]:
                _, c = cluster.client(host, name)
                listener = RecordingListener()
                c.join("grp", listener.on_message, listener.on_view)
                clients.append(c)
                listeners.append(listener)
            cluster.run(80_000)
            for i, c in enumerate(clients):
                c.multicast("grp", f"s{i}", nbytes=20)
            cluster.hosts["h1"].crash()
            cluster.run(FAILOVER_US)
            return [listener.payloads for listener in listeners]

        assert run(42) == run(42)
