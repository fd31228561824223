"""Tests for the replicated system-state object (Section 3.1)."""

import pytest

from repro.monitoring import ReplicatedState
from tests.support import Cluster


@pytest.fixture
def rig():
    cluster = Cluster(["h1", "h2", "h3"])
    states = []
    for host in ("h1", "h2", "h3"):
        _, gcs = cluster.client(host, f"member-{host}")
        states.append(ReplicatedState(gcs, "sysmon"))
    cluster.run(100_000)
    return cluster, states


def test_update_reaches_everyone(rig):
    cluster, states = rig
    states[0].publish("cpu", 0.75)
    cluster.run(100_000)
    assert all(s.get("cpu") == 0.75 for s in states)


def test_publisher_sees_own_update(rig):
    cluster, states = rig
    states[1].publish("x", 1)
    cluster.run(100_000)
    assert states[1].get("x") == 1


def test_concurrent_updates_converge_identically(rig):
    """Updates from different members are totally ordered, so all
    copies converge to the same value for a contended key."""
    cluster, states = rig
    for i, state in enumerate(states):
        state.publish("contended", i)
    cluster.run(200_000)
    finals = [s.get("contended") for s in states]
    assert finals[0] == finals[1] == finals[2]
    versions = [s.version for s in states]
    assert versions[0] == versions[1] == versions[2]


def test_per_member_keys(rig):
    cluster, states = rig
    for i, state in enumerate(states):
        state.publish_own("rate", 100.0 * (i + 1))
    cluster.run(200_000)
    rates = states[0].values_matching("rate")
    assert sorted(rates) == [100.0, 200.0, 300.0]


def test_deterministic_policy_same_decision_everywhere(rig):
    """The paper's point: a deterministic function over the replicated
    state yields the same decision at every member."""
    cluster, states = rig
    for i, state in enumerate(states):
        state.publish_own("rate", [300.0, 900.0, 600.0][i])
    cluster.run(200_000)

    def decision(state):
        return max(state.values_matching("rate")) > 800.0

    decisions = [decision(s) for s in states]
    assert decisions == [True, True, True]


def test_snapshot_returns_copy(rig):
    cluster, states = rig
    states[0].publish("a", 1)
    cluster.run(100_000)
    snap = states[0].snapshot()
    snap["a"] = 999
    assert states[0].get("a") == 1


def test_member_crash_does_not_corrupt_state(rig):
    cluster, states = rig
    states[0].publish("k", 1)
    cluster.run(100_000)
    states[0].gcs.process.kill()
    states[1].publish("k", 2)
    cluster.run(1_500_000)
    assert states[1].get("k") == 2
    assert states[2].get("k") == 2
