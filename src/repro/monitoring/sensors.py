"""Metric snapshots and the arrival-rate sensor.

A :class:`MetricsSnapshot` is the unit contracts are evaluated
against.  Each server replicator counts request arrivals in a
:class:`RateSensor`; its adaptation manager publishes the rate into
the replicated system state, from which every manager decides
(Section 3.1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.monitoring.windows import SlidingWindow


@dataclass(frozen=True)
class MetricsSnapshot:
    """One process's view of the working conditions at an instant."""

    time: float
    latency_mean_us: float = 0.0
    latency_jitter_us: float = 0.0
    request_rate_per_s: float = 0.0
    bandwidth_mbps: float = 0.0
    cpu_utilization: float = 0.0


class RateSensor:
    """Arrival-rate estimation (Fig. 6's 'request rate [req/s]')."""

    def __init__(self, window_us: float = 1_000_000.0):
        self.window = SlidingWindow(window_us)

    def record_arrival(self, time: float) -> None:
        """Record one arrival event."""
        self.window.add(time, 1.0)

    def rate(self, now: float) -> float:
        """Windowed arrival rate in events/second."""
        return self.window.rate_per_second(now)
