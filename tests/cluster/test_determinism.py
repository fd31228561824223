"""Determinism regressions for the sharded deployment.

Same-seed cluster runs must be byte-identical — including the
migration protocol, which relies on totally-ordered GCS delivery to
flip the partition map at the same logical instant everywhere — and a
sharded campaign must produce the same results file serially and
across worker processes.
"""

from repro.campaign import CampaignSpec, ResultsStore, run_campaign
from repro.cluster import (
    build_map,
    run_cluster_load,
    run_cluster_rebalance_check,
)


def test_same_seed_load_runs_are_identical():
    kwargs = dict(n_shards=2, n_clients=2, n_requests=8, seed=3,
                  journal=True)
    one = run_cluster_load(**kwargs)
    two = run_cluster_load(**kwargs)
    assert one.events_dispatched == two.events_dispatched
    assert one.duration_us == two.duration_us
    assert one.per_shard == two.per_shard
    assert one.map_digests == two.map_digests
    assert [e.attrs for e in one.journal.events] \
        == [e.attrs for e in two.journal.events]


def test_same_seed_rebalance_checks_share_a_digest():
    one = run_cluster_rebalance_check(n_requests=8, seed=5)
    two = run_cluster_rebalance_check(n_requests=8, seed=5)
    assert one.check["ok"] and two.check["ok"]
    assert one.digest == two.digest
    assert one.survivor_values == two.survivor_values


def test_different_seeds_change_the_digest():
    one = run_cluster_rebalance_check(n_requests=8, seed=5)
    two = run_cluster_rebalance_check(n_requests=8, seed=6)
    assert one.digest != two.digest


def test_routers_agree_on_the_post_migration_map():
    result = run_cluster_load(n_shards=2, n_clients=3, n_requests=6,
                              rebalance=("obj00", "shard1", 40_000.0))
    assert result.migrations_committed == 1
    # Every router instance converged on the same epoch-1 digest.
    assert len(result.map_digests) == 3
    assert result.routers_agree


def test_partition_map_digest_is_instance_independent():
    keys = [f"key{i}" for i in range(32)]
    digests = {build_map(["a", "b", "c"]).digest() for _ in range(3)}
    assert len(digests) == 1
    maps = [build_map(["a", "b", "c"]) for _ in range(2)]
    assert maps[0].assignment(keys) == maps[1].assignment(keys)


def sharded_spec():
    return CampaignSpec(
        name="cluster-determinism", styles=["active"],
        replica_counts=[2], fault_loads=["none", "process_crash"],
        shard_counts=[1, 2], seeds=[0], n_clients=2,
        duration_us=200_000.0, rate_per_s=150.0, settle_us=400_000.0)


def run_to_bytes(tmp_path, tag, workers):
    store = ResultsStore(str(tmp_path / f"{tag}.jsonl"))
    summary = run_campaign(sharded_spec(), store, workers=workers)
    assert summary.failed == 0
    assert summary.ran == summary.total == 4
    return open(store.path, "rb").read()


def test_sharded_campaign_parallel_matches_serial(tmp_path):
    serial = run_to_bytes(tmp_path, "serial", 1)
    parallel = run_to_bytes(tmp_path, "parallel", 3)
    assert parallel == serial
    assert b"-sh2-" in serial  # the sharded trials actually ran
