"""Per-link topology filters: partitions, flaky links, slow hosts."""

import random

import pytest

from repro.errors import ConfigurationError
from repro.net import (
    AsymmetricPartition,
    FlakyLink,
    PartitionFilter,
    SlowHost,
)


class _CountingRng(random.Random):
    """Random that counts how often its stream is consumed."""

    def __init__(self, seed=0):
        super().__init__(seed)
        self.calls = 0

    def random(self):
        self.calls += 1
        return super().random()


def rng():
    return _CountingRng(0)


class TestPartitionFilter:
    def filt(self):
        return PartitionFilter(
            (frozenset({"a", "b"}), frozenset({"c"})), 100.0, 200.0)

    def test_drops_cross_component_frames_in_window(self):
        assert self.filt().judge("a", "c", 150.0, rng()) == (True, 0.0)
        assert self.filt().judge("c", "b", 150.0, rng()) == (True, 0.0)

    def test_same_component_frames_pass(self):
        assert self.filt().judge("a", "b", 150.0, rng()) == (False, 0.0)

    def test_unlisted_hosts_unaffected(self):
        assert self.filt().judge("a", "x", 150.0, rng()) == (False, 0.0)

    def test_inactive_outside_window(self):
        assert self.filt().judge("a", "c", 99.0, rng()) == (False, 0.0)
        assert self.filt().judge("a", "c", 200.0, rng()) == (False, 0.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PartitionFilter((frozenset({"a"}),), 0.0, 1.0)
        with pytest.raises(ConfigurationError):
            PartitionFilter((frozenset({"a"}), frozenset({"a"})),
                            0.0, 1.0)
        with pytest.raises(ConfigurationError):
            PartitionFilter((frozenset({"a"}), frozenset()), 0.0, 1.0)
        with pytest.raises(ConfigurationError):
            PartitionFilter((frozenset({"a"}), frozenset({"b"})),
                            5.0, 5.0)


class TestAsymmetricPartition:
    def filt(self):
        return AsymmetricPartition(frozenset({"a"}), frozenset({"b"}),
                                   100.0, 200.0)

    def test_one_way_drop(self):
        assert self.filt().judge("a", "b", 150.0, rng()) == (True, 0.0)
        assert self.filt().judge("b", "a", 150.0, rng()) == (False, 0.0)

    def test_inactive_outside_window(self):
        assert self.filt().judge("a", "b", 250.0, rng()) == (False, 0.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AsymmetricPartition(frozenset(), frozenset({"b"}), 0.0, 1.0)


class TestFlakyLink:
    def test_rate_one_always_drops_on_link(self):
        filt = FlakyLink("a", "b", 1.0, 100.0, 200.0)
        assert filt.judge("a", "b", 150.0, rng()) == (True, 0.0)
        assert filt.judge("b", "a", 150.0, rng()) == (True, 0.0)

    def test_asymmetric_direction(self):
        filt = FlakyLink("a", "b", 1.0, 100.0, 200.0, symmetric=False)
        assert filt.judge("a", "b", 150.0, rng()) == (True, 0.0)
        assert filt.judge("b", "a", 150.0, rng()) == (False, 0.0)

    def test_no_rng_consumed_off_link_or_outside_window(self):
        """The determinism contract: the dice roll only happens for a
        targeted frame inside the window, so an installed-but-idle
        filter leaves the RNG stream byte-identical."""
        filt = FlakyLink("a", "b", 0.5, 100.0, 200.0)
        r = rng()
        filt.judge("a", "c", 150.0, r)  # off link
        filt.judge("a", "b", 250.0, r)  # outside window
        assert r.calls == 0
        filt.judge("a", "b", 150.0, r)  # targeted: one roll
        assert r.calls == 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FlakyLink("a", "b", 1.5, 0.0, 1.0)


class TestSlowHost:
    def test_delays_ingress_and_egress_in_window(self):
        filt = SlowHost("a", 500.0, 100.0, 200.0)
        assert filt.judge("a", "b", 150.0, rng()) == (False, 500.0)
        assert filt.judge("b", "a", 150.0, rng()) == (False, 500.0)

    def test_other_links_and_windows_untouched(self):
        filt = SlowHost("a", 500.0, 100.0, 200.0)
        assert filt.judge("b", "c", 150.0, rng()) == (False, 0.0)
        assert filt.judge("a", "b", 50.0, rng()) == (False, 0.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SlowHost("a", -1.0, 0.0, 1.0)
