"""Unit tests for declarative SLO specs."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.slo import ALL_SHARDS, SloSpec, default_slo_specs, load_slo_specs


class TestSloSpec:
    def test_defaults_and_budget(self):
        spec = SloSpec(name="avail")
        assert spec.shard == ALL_SHARDS
        assert spec.availability_target == 0.999
        assert spec.budget_us(1_000_000.0) == pytest.approx(1_000.0)
        assert spec.budget_us(-5.0) == 0.0

    def test_round_trips_through_dict(self):
        spec = SloSpec(name="tight", shard="shard0",
                       availability_target=0.99,
                       fast_window_us=100_000.0,
                       slow_window_us=1_000_000.0, burn_threshold=3.0)
        assert SloSpec.from_dict(spec.to_dict()) == spec

    def test_latency_keys_are_refused(self):
        # There is no latency objective to evaluate.
        with pytest.raises(ConfigurationError, match="latency_p"):
            SloSpec.from_dict({"name": "x", "latency_p": 0.99,
                               "latency_target_us": 5_000.0})
        assert "latency_p" not in SloSpec(name="avail").to_dict()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SloSpec(name="")
        with pytest.raises(ConfigurationError):
            SloSpec(name="x", availability_target=1.0)
        with pytest.raises(ConfigurationError):
            SloSpec(name="x", availability_target=0.0)
        with pytest.raises(ConfigurationError):
            SloSpec(name="x", fast_window_us=0.0)
        with pytest.raises(ConfigurationError):
            SloSpec(name="x", fast_window_us=2.0, slow_window_us=1.0)
        with pytest.raises(ConfigurationError):
            SloSpec(name="x", burn_threshold=0.0)

    def test_default_set_is_availability_only(self):
        (spec,) = default_slo_specs()
        assert spec.shard == ALL_SHARDS
        assert spec.availability_target == 0.999


class TestLoadSloSpecs:
    def test_loads_a_list(self, tmp_path):
        path = tmp_path / "slos.json"
        path.write_text(json.dumps([
            {"name": "a", "shard": "shard0"},
            {"name": "b", "availability_target": 0.99},
        ]))
        specs = load_slo_specs(str(path))
        assert [s.name for s in specs] == ["a", "b"]
        assert specs[0].shard == "shard0"

    def test_loads_a_single_object(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text(json.dumps({"name": "only"}))
        (spec,) = load_slo_specs(str(path))
        assert spec.name == "only"

    def test_rejects_scalars(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("42")
        with pytest.raises(ConfigurationError):
            load_slo_specs(str(path))
