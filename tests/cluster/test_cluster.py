"""End-to-end tests for the sharded deployment and its protocols."""

import pytest

from repro.cluster import (
    ShardSpec,
    deploy_cluster,
    deploy_cluster_client,
    run_cluster_load,
    run_cluster_rebalance_check,
    run_cluster_trial,
)
from repro.errors import ClusterError, ConfigurationError
from repro.experiments import run_fault_trial
from repro.experiments.testbed import Testbed
from repro.orb import CounterServant
from repro.replication import ReplicationStyle
from repro.workload import ClosedLoopClient
from tests.support import live_primary


class TestShardSpec:
    def test_rejects_empty_name(self):
        with pytest.raises(ClusterError):
            ShardSpec(name="")

    def test_rejects_zero_replicas(self):
        with pytest.raises(ClusterError):
            ShardSpec(name="a", n_replicas=0)

    def test_rejects_short_placement(self):
        with pytest.raises(ClusterError):
            ShardSpec(name="a", n_replicas=3, hosts=("s01", "s02"))

    @pytest.mark.parametrize("field, value", [
        ("n_replicas", float("nan")), ("n_replicas", float("inf")),
        ("n_replicas", True), ("checkpoint_interval", float("nan")),
        ("checkpoint_interval", True), ("name", True)])
    def test_rejects_nan_inf_and_bool(self, field, value):
        with pytest.raises(ClusterError, match=field):
            ShardSpec(**{"name": "a", field: value})


class TestClusterLoad:
    def test_completes_and_rolls_up_per_shard(self):
        result = run_cluster_load(n_shards=2, n_clients=2,
                                  n_requests=8, journal=True)
        assert result.completed == result.sent == 16
        assert set(result.per_shard) == {"shard0", "shard1"}
        assert all(s["processed"] > 0
                   for s in result.per_shard.values())
        assert result.routers_agree

    def test_mixes_replication_styles(self):
        result = run_cluster_load(n_shards=3, n_clients=2,
                                  n_requests=6, journal=True)
        styles = {name: s["style"] for name, s in result.per_shard.items()}
        assert set(styles.values()) == {"active", "warm_passive"}
        # The journal's deployment events agree with the specs.
        assert result.journal is not None
        deployed = {e.shard: e.attrs["style"]
                    for e in result.journal.events
                    if e.component == "cluster" and e.kind == "shard"}
        assert deployed == styles

    def test_throughput_scales_with_shard_count(self):
        kwargs = dict(n_clients=12, n_requests=15, n_server_hosts=5)
        one = run_cluster_load(n_shards=1, **kwargs)
        four = run_cluster_load(n_shards=4, **kwargs)
        assert four.throughput_per_s >= 3.0 * one.throughput_per_s

    def test_live_rebalance_reroutes_and_completes(self):
        result = run_cluster_load(
            n_shards=2, n_clients=2, n_requests=10,
            rebalance=("obj00", "shard1", 40_000.0), journal=True)
        assert result.completed == result.sent
        assert result.migrations_committed == 1
        assert result.map_epoch == 1
        assert result.routers_agree

    def test_rejects_fewer_keys_than_shards(self):
        with pytest.raises(ClusterError):
            run_cluster_load(n_shards=4, n_keys=2)

    def test_rejects_too_few_server_hosts(self):
        with pytest.raises(ClusterError):
            run_cluster_load(n_shards=4, n_server_hosts=3)


class TestRebalanceSafety:
    def test_no_acked_update_lost_or_doubled(self):
        out = run_cluster_rebalance_check()
        assert out.check["ok"], out.check["violations"]
        assert out.migrations_committed == 2
        assert out.giveups == 0
        # Every key's surviving replicas agree, and their value equals
        # the acked increments for that key.
        for key, values in out.survivor_values.items():
            assert len(set(values)) == 1
        assert len(set(out.map_digests)) == 1

    def test_in_flight_requests_reroute_across_migration(self):
        # One key, slow servants: requests are mid-flight when the map
        # flips, so the router must recall and re-route them.
        import repro.cluster.scenario as scenario_mod

        class SlowCounter(CounterServant):
            """Counter slow enough to straddle the migration window."""

            def __init__(self):
                super().__init__(processing_us=1500.0)

        original = scenario_mod.CounterServant
        scenario_mod.CounterServant = SlowCounter
        try:
            out = run_cluster_rebalance_check(n_keys=1, n_clients=4,
                                              n_requests=24)
        finally:
            scenario_mod.CounterServant = original
        assert out.check["ok"], out.check["violations"]
        assert out.rerouted > 0
        assert out.survivor_values["ctr00"] == [96, 96]


class TestMigrationDedupHandOff:
    def test_promoted_destination_backup_suppresses_source_acked_retry(self):
        """The reply cache moves with the key *and* reaches the
        destination's backups: a retry of a request the source shard
        acknowledged is answered from cache by a destination backup
        promoted after the migration commit."""
        from tests.replication.helpers import (
            record_checkpoints,
            request_id,
            resend,
        )

        testbed = Testbed.paper_testbed(4, 2, seed=0)
        passive = dict(style=ReplicationStyle.WARM_PASSIVE, n_replicas=2,
                       checkpoint_interval=1)
        specs = [ShardSpec(name="shard0", hosts=("s01", "s02"), **passive),
                 ShardSpec(name="shard1", hosts=("s03", "s04"), **passive)]
        keys = ["k0", "k1", "k2", "k3"]
        cluster = deploy_cluster(testbed, specs, keys,
                                 servant_factory=lambda k: CounterServant())
        stack = deploy_cluster_client(cluster, "w01")
        testbed.run(150_000)
        moving = next(k for k in keys if cluster.map.owner_of(k) == "shard0")
        resident = next(k for k in keys
                        if cluster.map.owner_of(k) == "shard1")

        def load(key, n_requests):
            loader = ClosedLoopClient(stack, n_requests, object_key=key,
                                      operation="add", payload=1)
            loader.start()
            testbed.run(2_000_000)
            assert loader.done

        load(moving, 6)
        old_id = request_id(stack, 1)
        # The destination already holds a session for the same client
        # when the source's lands: the two merge.
        load(resident, 4)
        dst_primary, dst_backup = cluster.shards["shard1"].replicas
        checkpoints = record_checkpoints(dst_backup)

        assert cluster.coordinator.rebalance(moving, "shard1") is not None
        testbed.run(1_000_000)
        assert cluster.coordinator.idle
        assert cluster.coordinator.map.owner_of(moving) == "shard1"
        load(moving, 3)
        # The merged session rides the destination's next checkpoint.
        (session,) = checkpoints[-1].sessions.values()
        assert session.floor == 13 and session.reply(1) is not None

        dst_primary.crash()
        testbed.run(1_500_000)
        assert dst_backup.replicator.is_primary
        suppressed = dst_backup.replicator.duplicates_suppressed
        resend(stack, old_id, group="shard1", object_key=moving,
               payload_bytes=512)
        testbed.run(500_000)
        assert dst_backup.replicator.duplicates_suppressed == suppressed + 1
        assert dst_backup.orb_server.servant(moving).value == 9


class TestDeadShard:
    def test_coordinator_repins_keys_of_a_dead_shard(self):
        testbed = Testbed.paper_testbed(4, 2, seed=0)
        specs = [ShardSpec(name="shard0", n_replicas=2,
                           hosts=("s01", "s02")),
                 ShardSpec(name="shard1", n_replicas=2,
                           hosts=("s03", "s04"))]
        keys = ["k0", "k1", "k2", "k3"]
        cluster = deploy_cluster(testbed, specs, keys,
                                 servant_factory=lambda k: CounterServant())
        stack = deploy_cluster_client(cluster, "w01")
        testbed.run(150_000)

        cluster.shards["shard1"].crash()
        testbed.run(3_000_000)  # failure detection + recovery

        final = cluster.coordinator.map
        assert final.shards == ("shard0",)
        assert all(final.owner_of(k) == "shard0" for k in keys)
        # The survivor materialized servants for the adopted keys.
        primary = live_primary(cluster.shards["shard0"])
        assert primary is not None
        assert set(keys) <= set(primary.orb_server.servant_keys)
        # The router learned the shrunken map and still serves all keys.
        assert stack.router.map_digest == final.digest()
        loader = ClosedLoopClient(stack, 8, object_keys=keys,
                                  operation="add", payload=1)
        loader.start()
        testbed.run(30_000_000)
        assert loader.done
        assert loader.stats.completed == 8


class TestClusterTrial:
    def test_metrics_match_fault_trial_schema(self):
        sharded = run_cluster_trial(
            ReplicationStyle.ACTIVE, n_shards=2, n_clients=2,
            duration_us=300_000.0, rate_per_s=150.0)
        classic = run_fault_trial(
            ReplicationStyle.ACTIVE, n_replicas=2, n_clients=2,
            duration_us=300_000.0, rate_per_s=150.0)
        assert set(sharded.metrics()) == set(classic.metrics())
        assert sharded.completed == sharded.sent > 0

    def test_process_crash_fault_is_survived(self):
        result = run_cluster_trial(
            ReplicationStyle.ACTIVE, n_shards=2, n_clients=2,
            duration_us=400_000.0, rate_per_s=150.0,
            fault_load="process_crash")
        assert result.injected[0].kind == "process_crash"
        assert result.completed == result.sent  # backup takes over
        assert 0.0 < result.availability <= 1.0

    def test_check_verdict_attaches_clean(self):
        result = run_cluster_trial(
            ReplicationStyle.ACTIVE, n_shards=2, n_clients=2,
            duration_us=300_000.0, rate_per_s=150.0, check=True)
        assert result.check is not None
        assert result.check["ok"] is True
        assert result.check["violations"] == []

    def test_rejects_unsupported_fault_loads(self):
        with pytest.raises(ClusterError):
            run_cluster_trial(ReplicationStyle.ACTIVE, n_shards=2,
                              n_clients=1, duration_us=100_000.0,
                              rate_per_s=100.0, fault_load="loss_burst")

    @pytest.mark.parametrize("field, bad", [
        ("rate_per_s", 0), ("deadline_us", 0), ("n_clients", 0),
        ("duration_us", -1)])
    def test_rejects_the_windows_the_single_group_trial_rejects(
            self, field, bad):
        window = dict(n_clients=1, duration_us=100_000.0, rate_per_s=100.0)
        window[field] = bad
        for trial, size in ((run_cluster_trial, dict(n_shards=2)),
                            (run_fault_trial, dict(n_replicas=2))):
            with pytest.raises(ConfigurationError):
                trial(ReplicationStyle.ACTIVE, **size, **window)
