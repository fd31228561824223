"""Time-windowed metric aggregation.

The replicator "monitors various system metrics (e.g., latency,
jitter, CPU load) in order to evaluate the conditions in the working
environment" (Section 2).  Sensors store samples in sliding windows so
policies react to *recent* conditions rather than lifetime averages.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple


class SlidingWindow:
    """Samples within the trailing ``window_us`` microseconds."""

    def __init__(self, window_us: float = 1_000_000.0):
        if window_us <= 0:
            raise ValueError("window must be positive")
        self.window_us = window_us
        self._samples: Deque[Tuple[float, float]] = deque()
        self.total_count = 0

    def add(self, time: float, value: float) -> None:
        """Record one sample at ``time``."""
        self._samples.append((time, value))
        self.total_count += 1
        self._expire(time)

    def _expire(self, now: float) -> None:
        cutoff = now - self.window_us
        samples = self._samples
        while samples and samples[0][0] < cutoff:
            samples.popleft()

    # ------------------------------------------------------------------
    # Aggregates (over the current window)
    # ------------------------------------------------------------------
    def values(self, now: Optional[float] = None) -> List[float]:
        """Samples currently inside the window."""
        if now is not None:
            self._expire(now)
        return [v for _, v in self._samples]

    def count(self, now: Optional[float] = None) -> int:
        """Number of samples inside the window."""
        if now is not None:
            self._expire(now)
        return len(self._samples)

    def mean(self, now: Optional[float] = None) -> float:
        """Mean of the windowed samples (0 when empty)."""
        values = self.values(now)
        return sum(values) / len(values) if values else 0.0

    def rate_per_second(self, now: float) -> float:
        """Events per second over the window (for arrival rates)."""
        self._expire(now)
        if not self._samples:
            return 0.0
        span = max(now - self._samples[0][0], 1.0)
        return len(self._samples) / span * 1_000_000.0
