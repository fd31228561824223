"""Unit tests for the GcsClient surface not covered elsewhere."""

import pytest

from repro.errors import GroupCommunicationError
from tests.support import Cluster, RecordingListener


@pytest.fixture
def cluster():
    return Cluster(["h1", "h2"])


def test_member_identity_fields(cluster):
    proc, client = cluster.client("h1", "app")
    assert client.member.host == "h1"
    assert client.member.name == "app"
    assert client.member.pid == proc.pid
    assert str(client.member) == f"app#{proc.pid}@h1"


def test_join_without_on_view_delivers_messages(cluster):
    _, sender = cluster.client("h1", "s")
    _, receiver = cluster.client("h2", "r")
    messages = []
    receiver.join("grp",
                  lambda group, snd, payload, n: messages.append(payload))
    cluster.run(80_000)
    sender.multicast("grp", "x", nbytes=8)
    cluster.run(80_000)
    assert messages == ["x"]


def test_join_without_on_view_drops_view_changes(cluster):
    """Omitting ``on_view`` is fine: view changes, the own leave's
    included, are dropped silently, and the leave still ends the
    membership."""
    _, client = cluster.client("h1", "app")
    _, other = cluster.client("h2", "other")
    messages = []
    client.join("grp",
                 lambda group, snd, payload, n: messages.append(payload))
    other.join("grp", RecordingListener().on_message)
    cluster.run(80_000)
    other.multicast("grp", "x", nbytes=8)
    cluster.run(80_000)
    client.leave("grp")
    cluster.run(80_000)
    other.multicast("grp", "y", nbytes=8)
    cluster.run(80_000)
    assert messages == ["x"]
    client.join("grp", RecordingListener().on_message)  # no longer joined


def test_direct_handler_replacement(cluster):
    _, a = cluster.client("h1", "a")
    _, b = cluster.client("h2", "b")
    first, second = [], []
    b.on_direct(lambda s, p, n: first.append(p))
    a.send_direct(b.member, "one", nbytes=8)
    cluster.run(80_000)
    b.on_direct(lambda s, p, n: second.append(p))
    a.send_direct(b.member, "two", nbytes=8)
    cluster.run(80_000)
    assert first == ["one"]
    assert second == ["two"]


def test_direct_to_dead_member_is_dropped(cluster):
    _, a = cluster.client("h1", "a")
    proc_b, b = cluster.client("h2", "b")
    inbox = []
    b.on_direct(lambda s, p, n: inbox.append(p))
    proc_b.kill()
    a.send_direct(b.member, "late", nbytes=8)
    cluster.run(80_000)
    assert inbox == []


def test_multiple_groups_independent_delivery(cluster):
    _, a = cluster.client("h1", "a")
    _, b = cluster.client("h2", "b")
    la, lb = RecordingListener(), RecordingListener()
    a.join("alpha", la.on_message, la.on_view)
    b.join("beta", lb.on_message, lb.on_view)
    cluster.run(80_000)
    a.multicast("alpha", "for-alpha", nbytes=8)
    a.multicast("beta", "for-beta", nbytes=8)
    cluster.run(80_000)
    assert la.payloads == ["for-alpha"]
    assert lb.payloads == ["for-beta"]


def test_rejoin_after_leave(cluster):
    _, client = cluster.client("h1", "app")
    listener1 = RecordingListener()
    client.join("grp", listener1.on_message, listener1.on_view)
    cluster.run(80_000)
    client.leave("grp")
    cluster.run(80_000)
    listener2 = RecordingListener()
    client.join("grp", listener2.on_message, listener2.on_view)
    cluster.run(80_000)
    client.multicast("grp", "second-life", nbytes=8)
    cluster.run(80_000)
    assert "second-life" in listener2.payloads
    assert "second-life" not in listener1.payloads


def test_watch_then_join_same_group(cluster):
    _, server = cluster.client("h1", "server")
    _, other = cluster.client("h2", "other")
    watch_listener = RecordingListener()
    member_listener = RecordingListener()
    server.watch("grp", watch_listener.on_view)
    server.join("grp", member_listener.on_message, member_listener.on_view)
    other.join("grp", RecordingListener().on_message)
    cluster.run(80_000)
    # Both the watcher view stream and the member view stream flow.
    assert watch_listener.views
    assert member_listener.views
    other.multicast("grp", "data", nbytes=8)
    cluster.run(80_000)
    assert member_listener.payloads == ["data"]
    assert watch_listener.payloads == []  # watchers get no data

