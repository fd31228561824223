"""Tests for policy synthesis (Table 2) and threshold switching."""

import pytest

from repro.core import (
    ConfigPoint,
    Constraints,
    CostFunction,
    Measurement,
    Profile,
    ScalabilityPolicy,
    ThresholdSwitchPolicy,
)
from repro.errors import ContractViolation, PolicyError
from repro.replication import ReplicationStyle

A = ReplicationStyle.ACTIVE
P = ReplicationStyle.WARM_PASSIVE


def paper_profile() -> Profile:
    """A profile seeded with the paper's own Table 2 / Fig. 7 numbers
    (interpolating the unreported cells conservatively)."""
    rows = [
        # (style, n_rep, n_cli, latency, bandwidth)
        (A, 3, 1, 1245.8, 1.074), (A, 3, 2, 1457.2, 2.032),
        (A, 3, 3, 1650.0, 3.100), (A, 3, 4, 1800.0, 4.100),
        (A, 3, 5, 2000.0, 5.600),
        (A, 2, 1, 1150.0, 0.800), (A, 2, 2, 1350.0, 1.500),
        (A, 2, 3, 1500.0, 2.300), (A, 2, 4, 1700.0, 3.100),
        (A, 2, 5, 1900.0, 3.900),
        (P, 3, 1, 2400.0, 0.900), (P, 3, 2, 3700.0, 1.400),
        (P, 3, 3, 4966.0, 1.887), (P, 3, 4, 6141.1, 2.315),
        (P, 3, 5, 7300.0, 2.900),
        (P, 2, 1, 2200.0, 0.700), (P, 2, 2, 3300.0, 1.200),
        (P, 2, 3, 4400.0, 1.700), (P, 2, 4, 5200.0, 2.200),
        (P, 2, 5, 6006.2, 2.799),
    ]
    return Profile(
        Measurement(config=ConfigPoint(style=s, n_replicas=r),
                    n_clients=c, latency_us=lat, jitter_us=0.0,
                    bandwidth_mbps=bw)
        for s, r, c, lat, bw in rows)


def test_table2_pattern_from_paper_numbers():
    """Feeding the paper's own measurements through the synthesis
    reproduces Table 2 exactly: A(3), A(3), P(3), P(3), P(2)."""
    policy = ScalabilityPolicy.synthesize(paper_profile())
    labels = [policy.best_configuration(n).config.label
              for n in (1, 2, 3, 4, 5)]
    assert labels == ["A(3)", "A(3)", "P(3)", "P(3)", "P(2)"]


def test_table2_faults_tolerated_drop_at_five_clients():
    policy = ScalabilityPolicy.synthesize(paper_profile())
    faults = [policy.best_configuration(n).faults_tolerated
              for n in (1, 2, 3, 4, 5)]
    assert faults == [2, 2, 2, 2, 1]


def test_table2_costs_match_paper():
    policy = ScalabilityPolicy.synthesize(paper_profile())
    assert policy.best_configuration(1).cost == pytest.approx(0.268,
                                                              abs=0.001)
    assert policy.best_configuration(2).cost == pytest.approx(0.443,
                                                              abs=0.001)
    assert policy.best_configuration(5).cost == pytest.approx(0.895,
                                                              abs=0.001)


def test_infeasible_load_raises_contract_violation():
    """Beyond the supported load the operator must be notified."""
    profile = paper_profile()
    profile.add(Measurement(
        config=ConfigPoint(style=P, n_replicas=2), n_clients=9,
        latency_us=12_000.0, jitter_us=0.0, bandwidth_mbps=4.5))
    policy = ScalabilityPolicy.synthesize(profile)
    with pytest.raises(ContractViolation):
        policy.best_configuration(9)


def test_unprofiled_load_raises_policy_error():
    policy = ScalabilityPolicy.synthesize(paper_profile())
    with pytest.raises(PolicyError):
        policy.best_configuration(42)


def test_max_supported_clients():
    policy = ScalabilityPolicy.synthesize(paper_profile())
    assert policy.max_supported_clients() == 5


def test_tighter_constraints_prune_more():
    tight = Constraints(max_latency_us=2000.0, max_bandwidth_mbps=3.0)
    policy = ScalabilityPolicy.synthesize(paper_profile(), tight)
    # Passive's latency never fits under 2000 us; beyond 2 clients the
    # actives exceed 3 MB/s, so only A configurations survive early on.
    assert policy.best_configuration(1).config.style is A
    with pytest.raises(ContractViolation):
        policy.best_configuration(5)


def test_cost_weight_changes_tie_breaks():
    """With p = 1 (latency only), ties at equal fault-tolerance go to
    the faster configuration."""
    profile = paper_profile()
    lat_only = CostFunction(latency_weight=1.0)
    policy = ScalabilityPolicy.synthesize(profile, cost_fn=lat_only)
    assert policy.best_configuration(1).config.label == "A(3)"


def test_table_lists_feasible_rows_in_order():
    policy = ScalabilityPolicy.synthesize(paper_profile())
    table = policy.table()
    assert [e.n_clients for e in table] == [1, 2, 3, 4, 5]


class TestThresholdSwitchPolicy:
    def test_switch_up_above_high(self):
        policy = ThresholdSwitchPolicy(rate_high_per_s=500,
                                       rate_low_per_s=300)
        assert policy.decide(P, 600) is A
        assert policy.decide(A, 600) is None

    def test_switch_down_below_low(self):
        policy = ThresholdSwitchPolicy(rate_high_per_s=500,
                                       rate_low_per_s=300)
        assert policy.decide(A, 200) is P
        assert policy.decide(P, 200) is None

    def test_hysteresis_band_keeps_current_style(self):
        policy = ThresholdSwitchPolicy(rate_high_per_s=500,
                                       rate_low_per_s=300)
        assert policy.decide(A, 400) is None
        assert policy.decide(P, 400) is None

    def test_invalid_thresholds(self):
        with pytest.raises(PolicyError):
            ThresholdSwitchPolicy(rate_high_per_s=100, rate_low_per_s=200)
        with pytest.raises(PolicyError):
            ThresholdSwitchPolicy(rate_high_per_s=100, rate_low_per_s=-5)

    @pytest.mark.parametrize("high, low", [(float("nan"), 200.0),
                                           (400.0, float("nan")),
                                           (float("nan"), float("nan"))])
    def test_nan_thresholds_rejected(self, high, low):
        with pytest.raises(PolicyError):
            ThresholdSwitchPolicy(rate_high_per_s=high, rate_low_per_s=low)

    @pytest.mark.parametrize("high, low", [(float("inf"), 200.0),
                                           (True, 0.0), (400.0, False)])
    def test_inf_and_bool_thresholds_rejected(self, high, low):
        with pytest.raises(PolicyError, match="rate_"):
            ThresholdSwitchPolicy(rate_high_per_s=high, rate_low_per_s=low)


@pytest.mark.parametrize("field, value", [
    ("latency_us", float("nan")), ("jitter_us", float("inf")),
    ("bandwidth_mbps", True), ("throughput_per_s", float("nan")),
    ("n_clients", float("inf")), ("n_clients", True)])
def test_measurement_rejects_nan_inf_and_bool(field, value):
    fields = dict(config=ConfigPoint(style=A, n_replicas=2), n_clients=1,
                  latency_us=1000.0, jitter_us=0.0, bandwidth_mbps=1.0)
    fields[field] = value
    with pytest.raises(PolicyError, match=field):
        Measurement(**fields)
