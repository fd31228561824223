"""Message-loss and delay models for the network substrate.

The paper's fault model includes "transient communication faults"
(Section 3.1).  A :class:`LossModel` decides, per frame, whether the
frame is dropped and how much extra delay it suffers; models compose
so a base random-loss floor can be combined with injected loss bursts.
"""

from __future__ import annotations

import random
from typing import Any, List, Optional, Tuple

from repro.errors import ConfigurationError, Rule, check_fields

#: The declared rules of the windowed fault models, here and in
#: :mod:`repro.net.topology`: a finite window, a loss rate in [0, 1],
#: an extra delay >= 0.
WINDOW_RULES = (Rule(("start_us", "end_us"), float),)
RATE_RULES = (Rule(("rate",), float, ge=0, le=1),)
DELAY_RULES = (Rule(("extra_us",), float, ge=0),)
RAMP_RULES = (Rule(("peak_extra_us",), float, ge=0),)


def check_window(model: Any, rules: Tuple[Rule, ...] = ()) -> None:
    """Check a windowed model's fields against ``rules`` and its
    window, which must close after it opens."""
    check_fields(vars(model), WINDOW_RULES + rules)
    if model.end_us <= model.start_us:
        raise ConfigurationError(
            f"{type(model).__name__} window must end after it starts")


class LossModel:
    """Base model: lossless, no extra delay."""

    def judge(self, now: float, rng: random.Random) -> Tuple[bool, float]:
        """Return ``(dropped, extra_delay_us)`` for a frame sent now."""
        return False, 0.0


class RandomLoss(LossModel):
    """Drop each frame independently with probability ``rate``."""

    def __init__(self, rate: float):
        self.rate = rate
        check_fields(vars(self), RATE_RULES)

    def judge(self, now: float, rng: random.Random) -> Tuple[bool, float]:
        """See :meth:`LossModel.judge`."""
        return rng.random() < self.rate, 0.0


class BurstLoss(LossModel):
    """Drop frames with ``rate`` only inside [start_us, end_us).

    Models a transient communication fault: a loss burst on the LAN
    during a bounded window.
    """

    def __init__(self, start_us: float, end_us: float, rate: float = 1.0):
        self.start_us = start_us
        self.end_us = end_us
        self.rate = rate
        check_window(self, RATE_RULES)

    def judge(self, now: float, rng: random.Random) -> Tuple[bool, float]:
        """See :meth:`LossModel.judge`."""
        if self.start_us <= now < self.end_us:
            return rng.random() < self.rate, 0.0
        return False, 0.0


class DelaySpike(LossModel):
    """Add ``extra_us`` of delay to frames inside a window.

    Models the paper's "performance and timing faults": messages still
    arrive but late enough to trip timeouts.
    """

    def __init__(self, start_us: float, end_us: float, extra_us: float):
        self.start_us = start_us
        self.end_us = end_us
        self.extra_us = extra_us
        check_window(self, DELAY_RULES)

    def judge(self, now: float, rng: random.Random) -> Tuple[bool, float]:
        """See :meth:`LossModel.judge`."""
        if self.start_us <= now < self.end_us:
            return False, self.extra_us
        return False, 0.0


class RampJitter(LossModel):
    """Random extra delay whose amplitude ramps up over a window.

    Models a *gradually* degrading network (growing congestion): each
    frame inside [start_us, end_us) gets a uniform extra delay in
    ``[0, peak_extra_us * progress]`` where progress ramps 0 -> 1
    across the window.  The gradual onset is what distinguishes an
    adaptive failure detector (which learns the widening inter-arrival
    distribution) from a fixed timeout (which false-suspects as soon
    as one gap crosses the threshold).
    """

    def __init__(self, start_us: float, end_us: float,
                 peak_extra_us: float):
        self.start_us = start_us
        self.end_us = end_us
        self.peak_extra_us = peak_extra_us
        check_window(self, RAMP_RULES)

    def judge(self, now: float, rng: random.Random) -> Tuple[bool, float]:
        """See :meth:`LossModel.judge`."""
        if not self.start_us <= now < self.end_us:
            return False, 0.0
        progress = (now - self.start_us) / (self.end_us - self.start_us)
        return False, rng.uniform(0.0, self.peak_extra_us * progress)


class CompositeLoss(LossModel):
    """Combine models: dropped if any model drops; delays add up."""

    def __init__(self, models: Optional[List[LossModel]] = None):
        self.models: List[LossModel] = list(models or [])

    def add(self, model: LossModel) -> None:
        """Append a component model."""
        self.models.append(model)

    def remove(self, model: LossModel) -> None:
        """Remove a component model (no-op if absent)."""
        if model in self.models:
            self.models.remove(model)

    def judge(self, now: float, rng: random.Random) -> Tuple[bool, float]:
        """Combine all component verdicts."""
        dropped = False
        delay = 0.0
        for model in self.models:
            d, extra = model.judge(now, rng)
            dropped = dropped or d
            delay += extra
        return dropped, delay
