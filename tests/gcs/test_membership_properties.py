"""Property-based membership tests: random crash schedules.

Whatever the timing and choice of (a minority of) daemon crashes, the
survivors must converge to the same daemon view, agree on the group
membership, and deliver identical message sequences.
"""

from hypothesis import given, settings, strategies as st

from tests.support import Cluster, RecordingListener

HOSTS = ["h1", "h2", "h3", "h4"]
FAILOVER_US = 1_500_000

crash_plans = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3),
              st.floats(min_value=10_000.0, max_value=1_200_000.0)),
    min_size=0, max_size=2, unique_by=lambda t: t[0])


@given(crash_plans, st.integers(min_value=0, max_value=30))
@settings(max_examples=12, deadline=None)
def test_survivors_converge_on_views_and_deliveries(plan, seed):
    cluster = Cluster(HOSTS, seed=seed)
    clients, listeners = [], []
    for i, host in enumerate(HOSTS):
        _, c = cluster.client(host, f"m{i}")
        listener = RecordingListener()
        c.join("grp", listener.on_message, listener.on_view)
        clients.append(c)
        listeners.append(listener)
    cluster.run(80_000)

    crashed = {index for index, _ in plan}
    start = cluster.sim.now
    for index, at_us in plan:
        cluster.sim.schedule_at(start + at_us,
                                cluster.hosts[HOSTS[index]].crash)
    # Continuous traffic from every (eventually surviving) sender.
    for i, client in enumerate(clients):
        if i in crashed:
            continue
        for k in range(8):
            cluster.sim.schedule(k * 150_000.0 + i * 1_000.0,
                                 client.multicast, "grp",
                                 (i, k), 24)
    cluster.run(start + 4 * FAILOVER_US)

    survivors = [i for i in range(4) if i not in crashed]
    expected_members = tuple(HOSTS[i] for i in sorted(survivors))

    # 1. Daemon views converge.
    views = {cluster.daemons[HOSTS[i]].view.members for i in survivors}
    assert views == {expected_members}

    # 2. Group membership agrees (same final member set everywhere).
    finals = {listeners[i].member_sets[-1] for i in survivors}
    assert len(finals) == 1
    assert len(next(iter(finals))) == len(survivors)

    # 3. Identical delivered suffix: survivors see the same sequence
    #    of surviving-sender messages.
    sequences = []
    for i in survivors:
        sequences.append([p for p in listeners[i].payloads
                          if p[0] in survivors])
    assert all(seq == sequences[0] for seq in sequences)
    # 4. Completeness: every surviving sender's messages all arrive.
    for sender in survivors:
        got = [p for p in sequences[0] if p[0] == sender]
        assert got == [(sender, k) for k in range(8)]
