"""Heartbeat failure detection: fixed-timeout and adaptive.

The paper's fault model includes "performance and timing faults"
(Section 3.1): messages arrive, but late.  A fixed timeout — the
classical Spread-style detector — false-suspects live daemons as soon
as network delay degrades past the threshold, collapsing membership
with no way back (daemons do not rejoin in this model).

:class:`AdaptiveDetector` instead learns the heartbeat inter-arrival
distribution (Chen/Toueg-style): the suspicion threshold is
``mean + safety_factor * std + margin`` over a sliding window, so a
*gradual* delay degradation raises the threshold before it bites,
while a genuine crash — silence, not lateness — is still detected
within one adapted timeout.

The daemon uses the fixed detector by default (matching the paper's
era); pass ``GcsCalibration(adaptive_failure_detection=True)`` to use
the adaptive one.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable

from repro.errors import ConfigurationError, Rule, check_fields


class FailureDetector:
    """Interface: feed heartbeat arrivals, ask who is suspect.

    ``last_heard`` maps each tracked peer to when it was last heard
    from; callers read it and never write it.
    """

    last_heard: Dict[str, float]

    def heard_from(self, peer: str, now: float) -> None:
        """Record that ``peer`` was heard from at time ``now``."""
        raise NotImplementedError

    def forget(self, peer: str) -> None:
        """Stop tracking ``peer`` (it left the membership)."""
        raise NotImplementedError

    def suspects(self, peers: Iterable[str], now: float) -> set:
        """Subset of ``peers`` currently suspected of having crashed."""
        raise NotImplementedError


class FixedTimeoutDetector(FailureDetector):
    """Suspect a peer after ``timeout_us`` of silence (Spread-style)."""

    def __init__(self, timeout_us: float):
        self.timeout_us = timeout_us
        check_fields(vars(self), (Rule(("timeout_us",), float, gt=0),))
        self.last_heard: Dict[str, float] = {}

    def heard_from(self, peer: str, now: float) -> None:
        """Record a liveness observation."""
        self.last_heard[peer] = now

    def forget(self, peer: str) -> None:
        """Drop the peer's state."""
        self.last_heard.pop(peer, None)

    def suspects(self, peers: Iterable[str], now: float) -> set:
        """Peers silent longer than the fixed timeout."""
        last = self.last_heard
        timeout = self.timeout_us
        return {p for p in peers if now - last.get(p, 0.0) > timeout}


class AdaptiveDetector(FailureDetector):
    """Inter-arrival-statistics detector (Chen/Toueg flavour).

    Per peer, keeps the last ``window`` heartbeat inter-arrival times;
    the suspicion threshold is ``mean + safety_factor * std + margin``,
    clamped to ``[floor_us, ceiling_us]``.  Until enough samples exist
    the detector falls back to ``floor_us``... conservatively high, so
    young peers are not hair-triggered.
    """

    def __init__(self, safety_factor: float = 4.0,
                 margin_us: float = 50_000.0, window: int = 32,
                 floor_us: float = 350_000.0,
                 ceiling_us: float = 5_000_000.0):
        self.safety_factor = safety_factor
        self.margin_us = margin_us
        self.window = window
        self.floor_us = floor_us
        self.ceiling_us = ceiling_us
        check_fields(vars(self), (
            Rule(("safety_factor", "floor_us", "ceiling_us"), float, gt=0),
            Rule(("margin_us",), float, ge=0), Rule(("window",), int, gt=0)))
        if ceiling_us < floor_us:
            raise ConfigurationError("need floor_us <= ceiling_us")
        self.last_heard: Dict[str, float] = {}
        self._intervals: Dict[str, Deque[float]] = {}

    def heard_from(self, peer: str, now: float) -> None:
        """Record a liveness observation and its inter-arrival gap."""
        previous = self.last_heard.get(peer)
        if previous is not None and now > previous:
            gaps = self._intervals.setdefault(
                peer, deque(maxlen=self.window))
            gaps.append(now - previous)
        self.last_heard[peer] = now

    def forget(self, peer: str) -> None:
        """Drop the peer's state."""
        self.last_heard.pop(peer, None)
        self._intervals.pop(peer, None)

    def threshold_us(self, peer: str) -> float:
        """Current silence threshold for ``peer``."""
        gaps = self._intervals.get(peer)
        if not gaps or len(gaps) < 4:
            return self.floor_us
        mean = sum(gaps) / len(gaps)
        variance = sum((g - mean) ** 2 for g in gaps) / len(gaps)
        threshold = (mean + self.safety_factor * variance ** 0.5
                     + self.margin_us)
        return min(self.ceiling_us, max(self.floor_us, threshold))

    def suspects(self, peers: Iterable[str], now: float) -> set:
        """Peers silent longer than their adapted threshold."""
        out = set()
        for peer in peers:
            silence = now - self.last_heard.get(peer, 0.0)
            if silence > self.threshold_us(peer):
                out.add(peer)
        return out
