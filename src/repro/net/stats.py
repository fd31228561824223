"""Network traffic accounting.

The paper's Figure 7(b) and Table 2 report *bandwidth usage* in MB/s
as the resource axis of the dependability design space.  The network
keeps per-host and aggregate byte counters; a run's bandwidth is its
wire bytes over its window (``RunRecord.bandwidth_mbps``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


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
    wire; dropped frames are counted separately, in
    :attr:`dropped_frames`.
    """

    total_bytes: int = 0
    total_frames: int = 0
    dropped_frames: int = 0
    per_host: Dict[str, HostTraffic] = field(default_factory=dict)

    def record_transmit(self, src: str, dst: str, wire_bytes: int) -> None:
        """Account one frame of ``wire_bytes`` sent from src to dst.

        Called once per frame on the wire — the counters are updated
        with single dict lookups.
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

    def record_drop(self) -> None:
        """Account one frame lost to fault injection or a dead host."""
        self.dropped_frames += 1

