"""Network substrate: switched-LAN model with byte accounting.

Public surface:

- :class:`Network` — the LAN segment; attach hosts, send frames
- :class:`Endpoint`, :class:`Frame` — addressing and on-wire units
- :class:`NetworkStats` — wire-byte accounting
- loss models: :class:`RandomLoss`, :class:`BurstLoss`,
  :class:`DelaySpike`, :class:`CompositeLoss`
- per-link topology filters: :class:`PartitionFilter`,
  :class:`AsymmetricPartition`, :class:`FlakyLink`, :class:`SlowHost`
"""

from repro.net.frame import FRAME_OVERHEAD_BYTES, Endpoint, Frame
from repro.net.loss import (
    BurstLoss,
    CompositeLoss,
    DelaySpike,
    LossModel,
    RampJitter,
    RandomLoss,
)
from repro.net.network import Network
from repro.net.stats import NetworkStats
from repro.net.topology import (
    AsymmetricPartition,
    FlakyLink,
    LinkFilter,
    PartitionFilter,
    SlowHost,
)

__all__ = [
    "AsymmetricPartition",
    "BurstLoss",
    "CompositeLoss",
    "DelaySpike",
    "Endpoint",
    "FRAME_OVERHEAD_BYTES",
    "FlakyLink",
    "Frame",
    "LinkFilter",
    "LossModel",
    "Network",
    "NetworkStats",
    "PartitionFilter",
    "RampJitter",
    "RandomLoss",
    "SlowHost",
]
