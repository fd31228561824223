"""Property-based tests of the GCS ordering guarantees."""

from hypothesis import given, settings, strategies as st

from tests.support import Cluster, RecordingListener

# Small alphabet of (sender_index, round) send operations.
send_plans = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2),
              st.integers(min_value=0, max_value=9)),
    min_size=1, max_size=25)


def _three_member_rig(seed):
    cluster = Cluster(["h1", "h2", "h3"], seed=seed)
    clients, listeners = [], []
    for i, host in enumerate(["h1", "h2", "h3"]):
        _, c = cluster.client(host, f"m{i}")
        listener = RecordingListener()
        c.join("grp", listener.on_message, listener.on_view)
        clients.append(c)
        listeners.append(listener)
    cluster.run(80_000)
    return cluster, clients, listeners


@given(send_plans, st.integers(min_value=0, max_value=5))
@settings(max_examples=15, deadline=None)
def test_agreed_total_order_property(plan, seed):
    """Whatever the interleaving of senders, AGREED delivery order is
    identical at every member and loses nothing."""
    cluster, clients, listeners = _three_member_rig(seed)
    for sender, tag in plan:
        clients[sender].multicast("grp", (sender, tag), nbytes=20)
    cluster.run(2_000_000)
    sequences = [listener.payloads for listener in listeners]
    assert sequences[0] == sequences[1] == sequences[2]
    assert len(sequences[0]) == len(plan)


@given(send_plans, st.integers(min_value=0, max_value=5))
@settings(max_examples=15, deadline=None)
def test_fifo_per_sender_order_property(plan, seed):
    """AGREED keeps FIFO order too: each receiver sees every sender's
    messages in that sender's send order."""
    cluster, clients, listeners = _three_member_rig(seed)
    per_sender_sent = {0: [], 1: [], 2: []}
    for sequence_number, (sender, tag) in enumerate(plan):
        payload = (sender, sequence_number)
        per_sender_sent[sender].append(payload)
        clients[sender].multicast("grp", payload, nbytes=20)
    cluster.run(2_000_000)
    for listener in listeners:
        for sender in (0, 1, 2):
            received = [p for p in listener.payloads if p[0] == sender]
            assert received == per_sender_sent[sender]
