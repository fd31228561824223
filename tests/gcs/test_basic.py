"""GCS behaviour on a healthy cluster: joins, ordering, directs."""

import pytest

from repro.errors import GroupCommunicationError
from tests.support import Cluster, RecordingListener


@pytest.fixture
def cluster():
    return Cluster(["h1", "h2", "h3"])


def test_join_delivers_view_with_self(cluster):
    _, client = cluster.client("h1", "app")
    listener = RecordingListener()
    client.join("grp", listener)
    cluster.run(50_000)
    assert listener.views, "no view delivered"
    assert any("app" in m for m in listener.views[-1][1])


def test_two_members_see_each_other(cluster):
    _, c1 = cluster.client("h1", "a")
    _, c2 = cluster.client("h2", "b")
    l1, l2 = RecordingListener(), RecordingListener()
    c1.join("grp", l1)
    c2.join("grp", l2)
    cluster.run(50_000)
    assert len(l1.member_sets[-1]) == 2
    assert l1.member_sets[-1] == l2.member_sets[-1]


def test_double_join_rejected(cluster):
    _, client = cluster.client("h1", "app")
    client.join("grp", RecordingListener())
    with pytest.raises(GroupCommunicationError):
        client.join("grp", RecordingListener())


def test_leave_removes_member(cluster):
    _, c1 = cluster.client("h1", "a")
    _, c2 = cluster.client("h2", "b")
    l1, l2 = RecordingListener(), RecordingListener()
    c1.join("grp", l1)
    c2.join("grp", l2)
    cluster.run(50_000)
    c1.leave("grp")
    cluster.run(50_000)
    assert len(l2.member_sets[-1]) == 1
    assert "a" not in str(l2.member_sets[-1])


def test_leave_without_join_rejected(cluster):
    _, client = cluster.client("h1", "app")
    with pytest.raises(GroupCommunicationError):
        client.leave("grp")


def test_agreed_multicast_reaches_all_members(cluster):
    listeners = []
    clients = []
    for i, host in enumerate(["h1", "h2", "h3"]):
        _, c = cluster.client(host, f"m{i}")
        listener = RecordingListener()
        c.join("grp", listener)
        listeners.append(listener)
        clients.append(c)
    cluster.run(50_000)
    clients[0].multicast("grp", "hello", nbytes=100)
    cluster.run(50_000)
    for listener in listeners:
        assert listener.payloads == ["hello"]


def test_sender_receives_own_multicast(cluster):
    _, c = cluster.client("h1", "solo")
    listener = RecordingListener()
    c.join("grp", listener)
    cluster.run(50_000)
    c.multicast("grp", "echo", nbytes=10)
    cluster.run(50_000)
    assert listener.payloads == ["echo"]


def test_total_order_identical_at_all_members(cluster):
    """Concurrent AGREED multicasts from different senders are
    delivered in the same order everywhere (the property the paper's
    switch protocol depends on)."""
    listeners = []
    clients = []
    for i, host in enumerate(["h1", "h2", "h3"]):
        _, c = cluster.client(host, f"m{i}")
        listener = RecordingListener()
        c.join("grp", listener)
        listeners.append(listener)
        clients.append(c)
    cluster.run(50_000)
    for round_no in range(10):
        for i, client in enumerate(clients):
            client.multicast("grp", f"r{round_no}-s{i}", nbytes=50)
    cluster.run(300_000)
    sequences = [listener.payloads for listener in listeners]
    assert len(sequences[0]) == 30
    assert sequences[0] == sequences[1] == sequences[2]


def test_open_group_send_from_non_member(cluster):
    _, server = cluster.client("h1", "server")
    _, outsider = cluster.client("h2", "client")
    listener = RecordingListener()
    server.join("grp", listener)
    cluster.run(50_000)
    outsider.multicast("grp", "request", nbytes=64)
    cluster.run(50_000)
    assert listener.payloads == ["request"]
    # The outsider never appears in the membership.
    assert all("client" not in str(ms) for ms in listener.member_sets)


def test_direct_message_between_processes(cluster):
    _, a = cluster.client("h1", "a")
    _, b = cluster.client("h2", "b")
    inbox = []
    b.on_direct(lambda sender, payload, nbytes: inbox.append(payload))
    a.send_direct(b.member, "ping", nbytes=32)
    cluster.run(50_000)
    assert inbox == ["ping"]


def test_direct_message_same_host(cluster):
    _, a = cluster.client("h1", "a")
    _, b = cluster.client("h1", "b")
    inbox = []
    b.on_direct(lambda sender, payload, nbytes: inbox.append(payload))
    a.send_direct(b.member, "local", nbytes=32)
    cluster.run(10_000)
    assert inbox == ["local"]


def test_watch_sees_views_without_membership(cluster):
    _, server = cluster.client("h1", "server")
    _, watcher = cluster.client("h2", "watcher")
    wlistener = RecordingListener()
    watcher.watch("grp", wlistener)
    server.join("grp", RecordingListener())
    cluster.run(50_000)
    assert wlistener.views, "watcher saw no view"
    assert "server" in str(wlistener.member_sets[-1])
    # Watcher receives no data.
    server.multicast("grp", "data", nbytes=10)
    cluster.run(50_000)
    assert wlistener.payloads == []


def test_watch_existing_group_delivers_current_view(cluster):
    _, server = cluster.client("h1", "server")
    server.join("grp", RecordingListener())
    cluster.run(50_000)
    _, watcher = cluster.client("h2", "watcher")
    wlistener = RecordingListener()
    watcher.watch("grp", wlistener)
    cluster.run(10_000)
    assert wlistener.views


def test_messages_before_join_not_delivered(cluster):
    _, sender = cluster.client("h1", "sender")
    slistener = RecordingListener()
    sender.join("grp", slistener)
    cluster.run(50_000)
    sender.multicast("grp", "early", nbytes=10)
    cluster.run(50_000)
    _, late = cluster.client("h2", "late")
    llistener = RecordingListener()
    late.join("grp", llistener)
    cluster.run(50_000)
    assert "early" not in llistener.payloads


def test_client_must_connect_to_local_daemon(cluster):
    proc = cluster.spawn("h1", "app")
    from repro.gcs import GcsClient
    with pytest.raises(GroupCommunicationError):
        GcsClient(proc, cluster.daemons["h2"])


def test_negative_multicast_size_rejected(cluster):
    _, client = cluster.client("h1", "app")
    with pytest.raises(GroupCommunicationError):
        client.multicast("grp", "x", nbytes=-1)


def test_current_view_tracks_latest(cluster):
    _, c1 = cluster.client("h1", "a")
    _, c2 = cluster.client("h2", "b")
    c1.join("grp", RecordingListener())
    cluster.run(50_000)
    c2.join("grp", RecordingListener())
    cluster.run(50_000)
    view = c1.current_view("grp")
    assert view is not None and len(view) == 2


def test_multicast_generates_network_traffic(cluster):
    _, a = cluster.client("h1", "a")
    _, b = cluster.client("h2", "b")
    b.join("grp", RecordingListener())
    cluster.run(50_000)
    before = cluster.network.stats.total_bytes
    a.multicast("grp", "payload", nbytes=1000)
    cluster.run(50_000)
    assert cluster.network.stats.total_bytes - before >= 1000
