"""Metric snapshots.

A :class:`MetricsSnapshot` is the unit contracts are evaluated
against.  Each server replicator counts request arrivals in a
:class:`~repro.monitoring.windows.SlidingWindow` (``arrivals``); its
adaptation manager publishes the rate into the replicated system
state, from which every manager decides (Section 3.1).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MetricsSnapshot:
    """One process's view of the working conditions at an instant."""

    time: float
    latency_mean_us: float = 0.0
    request_rate_per_s: float = 0.0
