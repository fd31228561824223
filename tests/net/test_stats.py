"""Unit tests for network traffic accounting."""

import pytest

from repro.net.stats import NetworkStats, bytes_per_us_to_mbps


def test_record_transmit_updates_all_counters():
    stats = NetworkStats()
    stats.record_transmit(0.0, "a", "b", 1000)
    assert stats.total_bytes == 1000
    assert stats.total_frames == 1
    assert stats.per_host["a"].tx_bytes == 1000
    assert stats.per_host["a"].tx_frames == 1
    assert stats.per_host["b"].rx_bytes == 1000
    assert stats.per_host["b"].rx_frames == 1


def test_drop_counter_separate():
    stats = NetworkStats()
    stats.record_drop()
    assert stats.dropped_frames == 1
    assert stats.total_frames == 0


def test_windowed_bandwidth_expires_old_traffic():
    stats = NetworkStats(window_us=1000.0)
    stats.record_transmit(0.0, "a", "b", 10_000)
    assert stats.bandwidth_mbps(now=500.0) > 0.0
    assert stats.bandwidth_mbps(now=5_000.0) == 0.0


def test_windowed_bandwidth_reflects_recent_rate():
    stats = NetworkStats(window_us=1_000_000.0)
    for i in range(10):
        stats.record_transmit(i * 100.0, "a", "b", 100)
    # 1000 bytes over ~900 us.
    assert stats.bandwidth_mbps(now=900.0) == pytest.approx(1000 / 900,
                                                            rel=0.01)


def test_bidirectional_traffic_accumulates_per_host():
    stats = NetworkStats()
    stats.record_transmit(0.0, "a", "b", 100)
    stats.record_transmit(0.0, "b", "a", 50)
    assert stats.per_host["a"].tx_bytes == 100
    assert stats.per_host["a"].rx_bytes == 50
    assert stats.per_host["b"].tx_bytes == 50
    assert stats.per_host["b"].rx_bytes == 100


def test_unit_conversion_identity():
    # 1 byte/us == 1 MB/s by definition of the decimal megabyte.
    assert bytes_per_us_to_mbps(1.0) == 1.0
    assert bytes_per_us_to_mbps(12.5) == 12.5
