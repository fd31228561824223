"""Unit tests for network traffic accounting."""

from repro.net.stats import NetworkStats


def test_record_transmit_updates_all_counters():
    stats = NetworkStats()
    stats.record_transmit("a", "b", 1000)
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


def test_bidirectional_traffic_accumulates_per_host():
    stats = NetworkStats()
    stats.record_transmit("a", "b", 100)
    stats.record_transmit("b", "a", 50)
    assert stats.per_host["a"].tx_bytes == 100
    assert stats.per_host["a"].rx_bytes == 50
    assert stats.per_host["b"].tx_bytes == 50
    assert stats.per_host["b"].rx_bytes == 100

