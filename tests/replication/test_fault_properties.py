"""Property-based fault-injection tests for replication invariants.

Randomized crash schedules against a replicated counter, checking the
safety invariants that must hold regardless of when faults land:

- **convergence**: all surviving replicas end with identical state;
- **at-most-once**: the counter value equals the number of *distinct*
  acknowledged increments — retries and fan-out never double-apply;
- **no lost acknowledged work** (active / semi-active): every reply
  the client received is reflected in every survivor's state.
"""

from hypothesis import given, settings, strategies as st

from repro.experiments import (
    Testbed,
    deploy_client,
    deploy_replica_group,
)
from repro.orb import CounterServant
from repro.replication import (
    ClientReplicationConfig,
    ReplicationConfig,
    ReplicationStyle,
)

FAILOVER_US = 1_600_000

#: A schedule: which replica (0-2) dies, and when (µs after load start).
crash_schedules = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2),
              st.floats(min_value=1_000.0, max_value=600_000.0)),
    min_size=0, max_size=2, unique_by=lambda t: t[0])


def _run_with_crashes(style, schedule, seed, n_requests=12):
    testbed = Testbed.paper_testbed(3, 1, seed=seed)
    config = ReplicationConfig(style=style, group="svc")
    replicas = deploy_replica_group(testbed, ["s01", "s02", "s03"],
                                    config, {"counter": CounterServant})
    client = deploy_client(testbed, "w01", ClientReplicationConfig(
        group="svc", expected_style=style, retry_timeout_us=120_000))
    testbed.run(150_000)

    acked = []

    def next_request(remaining):
        if remaining == 0:
            return

        def on_reply(reply):
            acked.append(reply)
            next_request(remaining - 1)

        client.orb_client.invoke("counter", "add", 1, 32, on_reply)

    start = testbed.now
    for index, at_us in schedule:
        testbed.sim.schedule_at(start + at_us, replicas[index].process.kill)
    next_request(n_requests)
    # Give plenty of time for failovers and retries.
    testbed.run(6 * FAILOVER_US)
    survivors = [r for r in replicas if r.alive]
    return testbed, survivors, acked, client


@given(crash_schedules, st.integers(min_value=0, max_value=50))
@settings(max_examples=12, deadline=None)
def test_active_invariants_under_random_crashes(schedule, seed):
    testbed, survivors, acked, client = _run_with_crashes(
        ReplicationStyle.ACTIVE, schedule, seed)
    assert survivors, "at most 2 of 3 replicas are ever crashed"
    values = [r.servants["counter"].value for r in survivors]
    # Convergence.
    assert len(set(values)) == 1
    # Completion: with a live majority the whole cycle finishes.
    assert len(acked) == 12
    # No lost acknowledged work, no double-execution.
    assert values[0] == 12


@given(crash_schedules, st.integers(min_value=0, max_value=50))
@settings(max_examples=10, deadline=None)
def test_semi_active_invariants_under_random_crashes(schedule, seed):
    testbed, survivors, acked, client = _run_with_crashes(
        ReplicationStyle.SEMI_ACTIVE, schedule, seed)
    values = [r.servants["counter"].value for r in survivors]
    assert len(set(values)) == 1
    assert len(acked) == 12
    assert values[0] == 12


@given(st.lists(st.floats(min_value=1_000.0, max_value=600_000.0),
                min_size=0, max_size=1),
       st.integers(min_value=0, max_value=50))
@settings(max_examples=10, deadline=None)
def test_warm_passive_primary_crash_never_loses_acked_work(times, seed):
    """Warm passive with synchronous checkpoints: every acknowledged
    increment survives a primary crash (the reply was held until the
    covering checkpoint was stable)."""
    schedule = [(0, t) for t in times]  # always kill the primary
    testbed, survivors, acked, client = _run_with_crashes(
        ReplicationStyle.WARM_PASSIVE, schedule, seed)
    values = [r.servants["counter"].value for r in survivors]
    assert len(set(values)) <= 2  # backups may trail by < 1 checkpoint
    assert len(acked) == 12
    # The new primary's state covers every acknowledged increment.
    primary_value = max(values)
    assert primary_value >= 12
    # And never more than the distinct increments issued.
    assert primary_value <= 12
