"""Unit and property tests for sliding windows."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError
from repro.monitoring import SlidingWindow

instants = st.lists(st.floats(min_value=0, max_value=1e6), max_size=50)


def test_old_samples_expire():
    w = SlidingWindow(100.0)
    w.add(0.0, 10.0)
    w.add(150.0, 20.0)
    assert list(w._samples) == [(150.0, 20.0)]


def test_rate_per_second():
    w = SlidingWindow(1_000_000.0)
    # 10 events over 900_000 us -> ~11.1 events/s.
    for i in range(10):
        w.add(i * 100_000.0, 1.0)
    assert w.rate_per_second(900_000.0) == pytest.approx(11.1, rel=0.01)


def test_invalid_window_rejected():
    with pytest.raises(ConfigurationError):
        SlidingWindow(0.0)


def test_rejects_non_finite_window():
    for window_us in (float("nan"), float("inf"), "1"):
        with pytest.raises(ConfigurationError, match="window_us"):
            SlidingWindow(window_us)


def test_rate_of_empty_window_is_zero():
    assert SlidingWindow(1000.0).rate_per_second(1_000.0) == 0.0


def test_rate_of_burst_at_one_instant():
    w = SlidingWindow(1_000_000.0)
    for _ in range(5):
        w.add(100.0, 1.0)
    # Zero elapsed span is clamped to 1 us, not a division by zero.
    assert w.rate_per_second(100.0) == pytest.approx(5e6)


@given(instants, st.floats(min_value=1, max_value=1e6))
def test_expiry_keeps_only_recent(times, window):
    w = SlidingWindow(window)
    times = sorted(times)
    for t in times:
        w.add(t, 1.0)
    if times:
        now = times[-1]
        w.rate_per_second(now)
        assert [t for t, _ in w._samples] == [
            t for t in times if t >= now - window]
