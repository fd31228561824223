"""Campaign/trial specification tests: validation, expansion, JSON."""

import json

import pytest

from repro.campaign import CampaignSpec, TrialSpec, derive_trial_seed
from repro.errors import ConfigurationError


def small_spec(**overrides):
    defaults = dict(name="t", styles=["active"], replica_counts=[2],
                    fault_loads=["none"], seeds=[0],
                    duration_us=100_000.0, rate_per_s=100.0)
    defaults.update(overrides)
    return CampaignSpec(**defaults)


def test_grid_expansion_is_full_product():
    spec = small_spec(styles=["active", "warm_passive"],
                      replica_counts=[2, 3],
                      checkpoint_intervals=[1, 5],
                      fault_loads=["none", "process_crash"],
                      seeds=[0, 1, 2])
    trials = spec.expand()
    assert len(trials) == 2 * 2 * 2 * 2 * 3
    assert len({t.trial_id for t in trials}) == len(trials)


def test_expansion_is_deterministic():
    a = [t.trial_id for t in small_spec(seeds=[0, 1]).expand()]
    b = [t.trial_id for t in small_spec(seeds=[0, 1]).expand()]
    assert a == b
    seeds_a = [t.seed for t in small_spec(seeds=[0, 1]).expand()]
    seeds_b = [t.seed for t in small_spec(seeds=[0, 1]).expand()]
    assert seeds_a == seeds_b


def test_trial_seeds_differ_per_trial_and_base_seed():
    spec = small_spec(styles=["active", "warm_passive"], seeds=[0, 1])
    seeds = [t.seed for t in spec.expand()]
    assert len(set(seeds)) == len(seeds)
    reseeded = [t.seed for t in small_spec(
        styles=["active", "warm_passive"], seeds=[0, 1],
        base_seed=7).expand()]
    assert seeds != reseeded


def test_derive_trial_seed_stable():
    # Pinned: a changed derivation silently invalidates stored results.
    assert derive_trial_seed(0, "a") == derive_trial_seed(0, "a")
    assert derive_trial_seed(0, "a") != derive_trial_seed(1, "a")
    assert derive_trial_seed(0, "a") >= 0


def test_random_sample_is_seeded_subset():
    spec = small_spec(styles=["active", "warm_passive"],
                      replica_counts=[2, 3], seeds=[0, 1, 2], sample=5)
    sampled = spec.expand()
    assert len(sampled) == 5
    assert [t.trial_id for t in sampled] \
        == [t.trial_id for t in spec.expand()]
    grid_ids = {t.trial_id
                for t in small_spec(styles=["active", "warm_passive"],
                                    replica_counts=[2, 3],
                                    seeds=[0, 1, 2]).expand()}
    assert all(t.trial_id in grid_ids for t in sampled)


def test_json_round_trip():
    spec = small_spec(styles=["active", "warm_passive"], sample=1)
    clone = CampaignSpec.from_json(spec.to_json())
    assert clone == spec
    assert [t.trial_id for t in clone.expand()] \
        == [t.trial_id for t in spec.expand()]


def test_from_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(small_spec().to_json())
    assert CampaignSpec.from_file(str(path)).name == "t"


@pytest.mark.parametrize("overrides", [
    dict(name=""),
    dict(styles=[]),
    dict(styles=["imaginary"]),
    dict(styles=["active", "active"]),
    dict(replica_counts=[0]),
    dict(fault_loads=["not-a-load"]),
    dict(seeds=[]),
    dict(duration_us=0.0),
    dict(rate_per_s=-1.0),
    dict(sample=0),
    dict(version=99),
])
def test_bad_specs_rejected(overrides):
    with pytest.raises(ConfigurationError):
        small_spec(**overrides).validate()


def test_bad_json_rejected():
    with pytest.raises(ConfigurationError):
        CampaignSpec.from_json("not json{")
    with pytest.raises(ConfigurationError):
        CampaignSpec.from_json("[1, 2]")
    with pytest.raises(ConfigurationError):
        CampaignSpec.from_json('{"name": "x", "unknown_field": 1}')


def test_trial_spec_round_trip_and_config_key():
    trial = small_spec().expand()[0]
    clone = TrialSpec.from_dict(trial.to_dict())
    assert clone == trial
    assert clone.config_key == "A(2)/k1"
    assert clone.replication_style.value == "active"


def test_trial_spec_validation():
    trial = small_spec().expand()[0].to_dict()
    trial["fault_load"] = "bogus"
    with pytest.raises(ConfigurationError):
        TrialSpec.from_dict(trial)


@pytest.mark.parametrize("field, value", [
    ("n_replicas", 2.0), ("n_clients", True), ("checkpoint_interval", 1.5),
    ("n_shards", "1"), ("seed", 0.5), ("seed", None),
])
def test_trial_spec_requires_integer_counts_and_seed(field, value):
    trial = small_spec().expand()[0].to_dict()
    trial[field] = value
    with pytest.raises(ConfigurationError, match=f"{field} must be an integer"):
        TrialSpec.from_dict(trial)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("field", ["duration_us", "rate_per_s",
                                   "deadline_us", "settle_us"])
def test_non_finite_window_rejected(field, value):
    """JSON admits NaN and Infinity; no comparison with NaN is true,
    so every window field is checked for finiteness."""
    data = json.loads(small_spec().to_json())
    data[field] = value
    text = json.dumps(data)
    assert f'"{field}": {json.dumps(value)}' in text  # NaN / Infinity
    with pytest.raises(ConfigurationError, match="finite"):
        CampaignSpec.from_json(text)
