"""Unit and property tests for sliding windows."""

import pytest
from hypothesis import given, strategies as st

from repro.monitoring import SlidingWindow

samples = st.lists(
    st.tuples(st.floats(min_value=0, max_value=1e6),
              st.floats(min_value=-1e6, max_value=1e6)),
    min_size=0, max_size=50)


def test_empty_window_aggregates_to_zero():
    w = SlidingWindow(1000.0)
    assert w.mean() == 0.0
    assert w.count() == 0


def test_mean_of_known_samples():
    w = SlidingWindow(1000.0)
    for i, v in enumerate([2.0, 4.0, 6.0]):
        w.add(float(i), v)
    assert w.mean() == pytest.approx(4.0)


def test_old_samples_expire():
    w = SlidingWindow(100.0)
    w.add(0.0, 10.0)
    w.add(150.0, 20.0)
    assert w.values(now=150.0) == [20.0]


def test_total_count_survives_expiry():
    w = SlidingWindow(100.0)
    w.add(0.0, 1.0)
    w.add(500.0, 1.0)
    assert w.count(now=500.0) == 1
    assert w.total_count == 2


def test_rate_per_second():
    w = SlidingWindow(1_000_000.0)
    # 10 events over 900_000 us -> ~11.1 events/s.
    for i in range(10):
        w.add(i * 100_000.0, 1.0)
    assert w.rate_per_second(900_000.0) == pytest.approx(11.1, rel=0.01)


def test_invalid_window_rejected():
    with pytest.raises(ValueError):
        SlidingWindow(0.0)


def test_rate_of_empty_window_is_zero():
    assert SlidingWindow(1000.0).rate_per_second(1_000.0) == 0.0


def test_rate_of_burst_at_one_instant():
    w = SlidingWindow(1_000_000.0)
    for _ in range(5):
        w.add(100.0, 1.0)
    # Zero elapsed span is clamped to 1 us, not a division by zero.
    assert w.rate_per_second(100.0) == pytest.approx(5e6)


def test_values_without_now_do_not_expire():
    w = SlidingWindow(100.0)
    w.add(0.0, 1.0)
    w.add(500.0, 2.0)  # expires the first sample at add-time
    w2 = SlidingWindow(100.0)
    w2.add(0.0, 1.0)
    # Reading without a clock must not silently drop samples.
    assert w2.values() == [1.0]
    assert w.values() == [2.0]


@given(samples)
def test_mean_bounded_by_extremes(pairs):
    w = SlidingWindow(1e12)
    for t, v in sorted(pairs):
        w.add(t, v)
    values = w.values()
    if values:
        assert min(values) - 1e-6 <= w.mean() <= max(values) + 1e-6


@given(samples, st.floats(min_value=1, max_value=1e6))
def test_expiry_keeps_only_recent(pairs, window):
    w = SlidingWindow(window)
    pairs = sorted(pairs)
    for t, v in pairs:
        w.add(t, v)
    if pairs:
        now = pairs[-1][0]
        expected = [v for t, v in pairs if t >= now - window]
        assert w.values(now=now) == expected
