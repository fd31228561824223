"""Ranking tests: Pareto extraction, weighted rank, design-space glue."""

import pytest

from repro.campaign import (
    DependabilityScore,
    RankWeights,
    dominates,
    pareto_front,
    rank,
    to_design_space,
)
from repro.errors import ConfigurationError, PolicyError
from repro.replication import ReplicationStyle


def score(key, dep, lat, cost, style="active", n_replicas=2):
    # dependability is derived; pick availability to hit `dep` exactly.
    return DependabilityScore(
        config_key=key, style=style, n_replicas=n_replicas,
        checkpoint_interval=1, n_clients=2, n_trials=3,
        availability=dep, failed_fraction=0.0, late_fraction=0.0,
        mean_recovery_us=0.0, latency_us=lat, bandwidth_mbps=0.5,
        resource_cost=cost)


def test_dominates():
    good = score("a", 0.9, 1000.0, 0.2)
    bad = score("b", 0.8, 2000.0, 0.4)
    tied = score("c", 0.9, 1000.0, 0.2)
    assert dominates(good, bad)
    assert not dominates(bad, good)
    assert not dominates(good, tied)  # equal on all axes: no strict edge


def test_pareto_front_extraction():
    scores = [
        score("best-dep", 0.95, 3000.0, 0.5),
        score("best-lat", 0.80, 800.0, 0.4),
        score("best-cost", 0.70, 2500.0, 0.1),
        score("dominated", 0.70, 3500.0, 0.6),
    ]
    front = pareto_front(scores)
    assert [s.config_key for s in front] \
        == ["best-dep", "best-lat", "best-cost"]


def test_pareto_front_single_point():
    only = score("a", 0.9, 1000.0, 0.2)
    assert pareto_front([only]) == [only]
    assert pareto_front([]) == []


def test_weighted_rank_orders_best_first():
    scores = [
        score("balanced", 0.9, 1000.0, 0.2),
        score("slow", 0.9, 4000.0, 0.2),
        score("fragile", 0.5, 1000.0, 0.2),
    ]
    ranked = rank(scores)
    assert ranked[0][0].config_key == "balanced"
    values = [v for _, v in ranked]
    assert values == sorted(values, reverse=True)
    assert all(0.0 <= v <= 1.0 for v in values)


def test_rank_respects_weights():
    scores = [
        score("dependable-but-slow", 0.99, 5000.0, 0.5),
        score("fast-but-fragile", 0.60, 500.0, 0.5),
    ]
    by_dep = rank(scores, RankWeights(1.0, 0.0, 0.0))
    assert by_dep[0][0].config_key == "dependable-but-slow"
    by_lat = rank(scores, RankWeights(0.0, 1.0, 0.0))
    assert by_lat[0][0].config_key == "fast-but-fragile"


def test_rank_validates():
    with pytest.raises(PolicyError):
        rank([])
    with pytest.raises(ConfigurationError):
        RankWeights(-1.0, 0.5, 0.5)
    with pytest.raises(ConfigurationError):
        RankWeights(0.0, 0.0, 0.0)


@pytest.mark.parametrize("weights", [(float("nan"), 1, 1),
                                     (0.5, float("inf"), 0.25),
                                     (True, 0, 0), (0, 0, True)])
def test_rank_weights_reject_nan_inf_and_bool(weights):
    with pytest.raises(ConfigurationError, match="must be a finite number"):
        RankWeights(*weights)


def test_to_design_space_reuses_core_machinery():
    scores = [
        score("a2", 0.9, 1000.0, 0.2, style="active"),
        score("a3", 0.95, 1200.0, 0.3, style="active", n_replicas=3),
        score("p2", 0.7, 2000.0, 0.1, style="warm_passive"),
    ]
    space = to_design_space(scores)
    assert len(space.points) == 3
    active = space.region(ReplicationStyle.ACTIVE)
    assert len(active) == 2
    assert all(0.0 <= p.fault_tolerance <= 1.0 for p in space.points)
    assert all(0.0 <= p.resources <= 1.0 for p in space.points)
    # the worst-latency point scores zero performance
    worst = min(space.points, key=lambda p: p.performance)
    assert worst.performance == pytest.approx(0.0)
    assert 0.0 <= space.coverage_volume() <= 1.0
    with pytest.raises(PolicyError):
        to_design_space([])
