"""Integration tests for the experiment harness itself."""

import pytest

from repro.core import ThresholdSwitchPolicy
from repro.errors import ConfigurationError
from repro.experiments import (
    Testbed,
    build_profile,
    deploy_client,
    deploy_replica,
    deploy_replica_group,
    run_adaptive_scenario,
    run_overhead_modes,
    run_replicated_load,
    run_rtt_breakdown,
)
from repro.orb import CounterServant
from repro.replication import (
    ClientReplicationConfig,
    ReplicationConfig,
    ReplicationStyle,
)
from repro.workload import ConstantRate


class TestTestbed:
    def test_paper_testbed_host_naming(self):
        testbed = Testbed.paper_testbed(3, 5)
        assert sorted(testbed.hosts) == [
            "s01", "s02", "s03", "w01", "w02", "w03", "w04", "w05"]
        # Servers sort first: the sequencer colocates with s01.
        assert testbed.daemons["s01"].is_sequencer

    def test_empty_testbed_rejected(self):
        with pytest.raises(ConfigurationError):
            Testbed([])

    def test_deploy_replica_group_join_order(self):
        testbed = Testbed.paper_testbed(3, 1)
        config = ReplicationConfig(style=ReplicationStyle.WARM_PASSIVE,
                                   group="svc")
        replicas = deploy_replica_group(testbed, ["s01", "s02", "s03"],
                                        config,
                                        {"counter": CounterServant})
        testbed.run(100_000)
        # First deployed is the longest-standing member = primary.
        assert replicas[0].replicator.is_primary
        assert not replicas[1].replicator.is_primary

    def test_all_replicas_synced_after_deploy(self):
        testbed = Testbed.paper_testbed(3, 1)
        config = ReplicationConfig(style=ReplicationStyle.ACTIVE,
                                   group="svc")
        replicas = deploy_replica_group(testbed, ["s01", "s02", "s03"],
                                        config,
                                        {"counter": CounterServant})
        testbed.run(300_000)
        assert all(r.replicator.synced for r in replicas)


class TestLoadScenario:
    def test_result_fields_consistent(self):
        result = run_replicated_load(ReplicationStyle.ACTIVE, 2, 2, 20)
        assert result.completed == 40
        assert result.latency_mean_us > 0
        assert result.bandwidth_mbps > 0
        assert result.throughput_per_s > 0
        assert result.throughput_per_s == \
            result.completed / result.duration_us * 1e6

    def test_measurement_conversion(self):
        profile, (result,) = build_profile(
            client_counts=(1,), replica_counts=(2,),
            styles=(ReplicationStyle.WARM_PASSIVE,), n_requests=10)
        (m,) = list(profile)
        assert m.config.label == "P(2)"
        assert m.config.faults_tolerated == 1
        assert m.n_clients == 1
        assert m.latency_us == result.latency_mean_us
        assert m.bandwidth_mbps == result.bandwidth_mbps

    def test_deterministic_given_seed(self):
        a = run_replicated_load(ReplicationStyle.ACTIVE, 2, 1, 20, seed=9)
        b = run_replicated_load(ReplicationStyle.ACTIVE, 2, 1, 20, seed=9)
        assert a.latency_mean_us == b.latency_mean_us
        assert a.bandwidth_mbps == b.bandwidth_mbps


class TestProfileSweep:
    def test_small_sweep_shape(self):
        profile, results = build_profile(client_counts=(1, 2),
                                         replica_counts=(2,),
                                         n_requests=15)
        assert len(profile) == 4  # 2 styles x 1 replica count x 2 loads
        assert len(results) == 4
        assert profile.client_counts() == [1, 2]


class TestBreakdownScenario:
    def test_components_present(self):
        breakdown = run_rtt_breakdown(n_requests=50)
        for component in ("application", "orb", "group_communication",
                          "replicator"):
            assert breakdown.get(component, 0.0) > 0

    def test_capped_recorder_raises_instead_of_shrinking(self,
                                                        monkeypatch):
        """A span cap below what the run needs must not silently turn
        Fig. 3 into a breakdown of the requests that fitted."""
        from dataclasses import replace

        import repro.experiments.run as run_module
        from repro.errors import TelemetryOverflowError
        from repro.sim import TelemetryConfig

        small = replace(run_module.default_calibration(),
                        telemetry=TelemetryConfig(max_spans=16 * 20))
        monkeypatch.setattr(run_module, "default_calibration",
                            lambda: small)
        # 20 requests fit in 16 spans each; 40 do not.
        assert run_rtt_breakdown(n_requests=20)["replicator"] > 0
        with pytest.raises(TelemetryOverflowError, match="dropped"):
            run_rtt_breakdown(n_requests=40)


class TestOverheadScenario:
    def test_all_six_modes_present(self):
        modes = run_overhead_modes(n_requests=40)
        assert set(modes) == {
            "no_interceptor", "client_intercepted", "server_intercepted",
            "both_intercepted", "warm_passive_1", "active_1"}


class TestAdaptiveScenario:
    def test_requires_exactly_one_mode(self):
        with pytest.raises(ValueError):
            run_adaptive_scenario(ConstantRate(100), 1_000_000)
        with pytest.raises(ValueError):
            run_adaptive_scenario(
                ConstantRate(100), 1_000_000,
                policy=ThresholdSwitchPolicy(400, 200),
                static_style=ReplicationStyle.ACTIVE)

    def test_static_run_has_no_rate_series(self):
        result = run_adaptive_scenario(
            ConstantRate(50), 1_000_000,
            static_style=ReplicationStyle.ACTIVE)
        assert result.rate_series == []
        assert result.switch_events == []
        assert result.completed == result.sent

    def test_open_loop_mode(self):
        result = run_adaptive_scenario(
            ConstantRate(100), 1_000_000, closed_loop=False,
            static_style=ReplicationStyle.ACTIVE)
        # Open loop sends at the profile rate regardless of replies.
        assert 80 <= result.sent <= 120
