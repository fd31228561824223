"""Time-windowed metric aggregation.

The replicator "monitors various system metrics (e.g., latency,
jitter, CPU load) in order to evaluate the conditions in the working
environment" (Section 2).  Sensors store samples in sliding windows so
policies react to *recent* conditions rather than lifetime averages.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Tuple

from repro.errors import Rule, check_fields


class SlidingWindow:
    """Samples within the trailing ``window_us`` microseconds."""

    def __init__(self, window_us: float = 1_000_000.0):
        self.window_us = window_us
        check_fields(vars(self), (Rule(("window_us",), float, gt=0),))
        self._samples: Deque[Tuple[float, float]] = deque()

    def add(self, time: float, value: float) -> None:
        """Record one sample at ``time``."""
        self._samples.append((time, value))
        self._expire(time)

    def _expire(self, now: float) -> None:
        cutoff = now - self.window_us
        samples = self._samples
        while samples and samples[0][0] < cutoff:
            samples.popleft()

    def rate_per_second(self, now: float) -> float:
        """Events per second over the window (for arrival rates)."""
        self._expire(now)
        if not self._samples:
            return 0.0
        span = max(now - self._samples[0][0], 1.0)
        return len(self._samples) / span * 1_000_000.0
