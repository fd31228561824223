"""Network traffic accounting.

The paper's Figure 7(b) and Table 2 report *bandwidth usage* in MB/s
as the resource axis of the dependability design space.  The network
keeps per-host and aggregate byte counters, plus a time-windowed view
so monitors can observe recent throughput rather than the lifetime
average.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Tuple


@dataclass
class HostTraffic:
    """Byte/frame counters for one host."""

    tx_bytes: int = 0
    rx_bytes: int = 0
    tx_frames: int = 0
    rx_frames: int = 0


@dataclass
class NetworkStats:
    """Aggregate and per-host traffic counters.

    ``record_transmit`` is called once per frame actually placed on the
    wire (dropped frames are counted separately so loss-injection
    experiments can report delivery ratios).
    """

    total_bytes: int = 0
    total_frames: int = 0
    dropped_frames: int = 0
    per_host: Dict[str, HostTraffic] = field(default_factory=dict)
    _window: Deque[Tuple[float, int]] = field(default_factory=deque)
    window_us: float = 1_000_000.0

    def record_transmit(self, time: float, src: str, dst: str,
                        wire_bytes: int) -> None:
        """Account one frame of ``wire_bytes`` sent from src to dst.

        Called once per frame on the wire — the counters are updated
        with single dict lookups and the window expiry inlined.
        """
        self.total_bytes += wire_bytes
        self.total_frames += 1
        per_host = self.per_host
        src_traffic = per_host.get(src)
        if src_traffic is None:
            src_traffic = per_host[src] = HostTraffic()
        dst_traffic = per_host.get(dst)
        if dst_traffic is None:
            dst_traffic = per_host[dst] = HostTraffic()
        src_traffic.tx_bytes += wire_bytes
        src_traffic.tx_frames += 1
        dst_traffic.rx_bytes += wire_bytes
        dst_traffic.rx_frames += 1
        window = self._window
        window.append((time, wire_bytes))
        cutoff = time - self.window_us
        while window[0][0] < cutoff:
            window.popleft()

    def record_drop(self) -> None:
        """Account one frame lost to fault injection or a dead host."""
        self.dropped_frames += 1

    def _expire(self, now: float) -> None:
        cutoff = now - self.window_us
        window = self._window
        while window and window[0][0] < cutoff:
            window.popleft()

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    def bandwidth_mbps(self, now: float) -> float:
        """Recent aggregate throughput over the sliding window, in
        megabytes per second (the paper's unit)."""
        self._expire(now)
        if not self._window:
            return 0.0
        span = max(now - self._window[0][0], 1.0)
        total = sum(nbytes for _, nbytes in self._window)
        return bytes_per_us_to_mbps(total / span)

    def lifetime_bandwidth_mbps(self, now: float, since: float = 0.0) -> float:
        """Average throughput from ``since`` to ``now`` in MB/s."""
        span = now - since
        if span <= 0:
            return 0.0
        return bytes_per_us_to_mbps(self.total_bytes / span)

    def delivery_ratio(self) -> float:
        """Fraction of offered frames that made it onto the wire."""
        offered = self.total_frames + self.dropped_frames
        if offered == 0:
            return 1.0
        return self.total_frames / offered


def bytes_per_us_to_mbps(bytes_per_us: float) -> float:
    """Convert bytes/µs to megabytes/second (1 MB = 10^6 bytes).

    1 byte/µs = 10^6 bytes/s = 1 MB/s, so the conversion is the
    identity — kept as a named function so call sites stay unit-honest.
    """
    return bytes_per_us
