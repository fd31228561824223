"""Network traffic accounting.

The paper's Figure 7(b) and Table 2 report *bandwidth usage* in MB/s
as the resource axis of the dependability design space.  The network
counts the bytes it places on the wire; a run's bandwidth is its wire
bytes over its window (``RunRecord.bandwidth_mbps``).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class NetworkStats:
    """The wire-byte counter: ``total_bytes`` grows by each frame's
    wire size when the frame is placed on the wire; a dropped frame
    adds nothing."""

    total_bytes: int = 0
