"""Kernel scheduling policies for schedule-space exploration.

The simulation kernel breaks same-timestamp ties with a monotone
sequence counter, which makes runs deterministic but pins one single
interleaving per seed.  A :class:`SchedulerPolicy` perturbs that
ordering: :meth:`SchedulerPolicy.tie_break` is consulted once per
scheduled event and sorts *before* the monotone counter, and
:meth:`SchedulerPolicy.message_delay` adds a bounded extra delay to
every transmitted frame — together they reach interleavings a fixed
tie-break never produces, while each individual run stays perfectly
deterministic and replayable.

Policies are duck-typed by the kernel (``repro.sim`` never imports
this module): anything with ``tie_break()`` and
``message_delay(wire_bytes)`` can be installed via
:meth:`repro.sim.Simulator.set_scheduler_policy`.
"""

from __future__ import annotations

import math
import random
from typing import List, Sequence, Union

from repro.errors import VerificationError

Decision = Union[int, float]


class SchedulerPolicy:
    """The identity policy: default tie-break order, zero extra delay.

    Installing this policy must leave every simulated outcome
    byte-identical to running with no policy at all — the golden-digest
    tests pin that property.  Subclasses override the two decision
    points.
    """

    def tie_break(self) -> int:
        """Tie-break rank for the next scheduled event (lower sorts
        first among same-timestamp events)."""
        return 0

    def message_delay(self, wire_bytes: int) -> float:
        """Extra transmission delay (µs) for the next network frame."""
        return 0.0


def check_walk_parameters(tie_choices: int, delay_bound_us: float) -> None:
    """Reject walk parameters no random walk can honour: a NaN or
    infinite delay bound would time frames at NaN or never."""
    if tie_choices < 1:
        raise VerificationError("tie_choices must be >= 1")
    if not (delay_bound_us >= 0 and math.isfinite(delay_bound_us)):
        raise VerificationError(
            "delay_bound_us must be a finite number >= 0")


class RandomWalkPolicy(SchedulerPolicy):
    """One random walk through the schedule space.

    Every decision is drawn from a private :class:`random.Random`
    (independent of the scenario's workload seed) and appended to
    :attr:`decisions`, so a violating walk can be replayed exactly by
    a :class:`ReplayPolicy` — without the replay depending on the rng
    implementation at all.

    Parameters
    ----------
    seed:
        Seed of the policy's private rng: the walk's identity.
    tie_choices:
        Tie-break values are drawn uniformly from ``[0, tie_choices)``.
        Larger values shuffle same-timestamp runs more aggressively.
    delay_bound_us:
        Finite upper bound (µs) of the per-frame extra delay; 0
        disables delay perturbation and explores tie-breaks only.
    """

    def __init__(self, seed: int, tie_choices: int = 4,
                 delay_bound_us: float = 0.0):
        check_walk_parameters(tie_choices, delay_bound_us)
        self.seed = seed
        self.tie_choices = tie_choices
        self.delay_bound_us = delay_bound_us
        self.decisions: List[Decision] = []
        self._rng = random.Random(seed)

    def tie_break(self) -> int:
        """Draw and record one tie-break rank.

        Drawn as ``int(random() * n)`` rather than ``randrange(n)``:
        same uniform distribution, a fraction of the cost — this is
        called once per scheduled event, making it the single hottest
        call of an exploration run.
        """
        value = int(self._rng.random() * self.tie_choices)
        self.decisions.append(value)
        return value

    def message_delay(self, wire_bytes: int) -> float:
        """Draw and record one bounded extra frame delay (µs).

        ``bound * random()`` is exactly ``uniform(0, bound)`` (the
        library computes ``a + (b - a) * random()``) without the
        method-call overhead.
        """
        if self.delay_bound_us <= 0.0:
            return 0.0
        value = self.delay_bound_us * self._rng.random()
        self.decisions.append(value)
        return value


class ReplayPolicy(SchedulerPolicy):
    """Replays a recorded decision trace, decision for decision.

    Because the decisions — not the rng — are the trace, a replay is
    byte-identical to the recorded walk regardless of Python version
    or rng internals.  The policy raises :class:`VerificationError`
    when the run consumes decisions in a different order or quantity
    than recorded: that means the replayed scenario drifted from the
    recorded one, and the artifact cannot vouch for the result.
    """

    def __init__(self, decisions: Sequence[Decision],
                 delay_bound_us: float = 0.0):
        self.decisions = list(decisions)
        self.delay_bound_us = delay_bound_us
        self._cursor = 0

    def _next(self) -> Decision:
        if self._cursor >= len(self.decisions):
            raise VerificationError(
                "replay drift: the run consumed more scheduling "
                "decisions than were recorded")
        value = self.decisions[self._cursor]
        self._cursor += 1
        return value

    def tie_break(self) -> int:
        """Replay the next recorded tie-break rank."""
        value = self._next()
        if not isinstance(value, int):
            raise VerificationError(
                "replay drift: expected a tie-break decision, "
                f"recorded trace has {value!r}")
        return value

    def message_delay(self, wire_bytes: int) -> float:
        """Replay the next recorded frame delay (µs)."""
        if self.delay_bound_us <= 0.0:
            return 0.0
        value = self._next()
        if isinstance(value, int):
            raise VerificationError(
                "replay drift: expected a delay decision, "
                f"recorded trace has {value!r}")
        return float(value)

    @property
    def exhausted(self) -> bool:
        """True once every recorded decision has been replayed."""
        return self._cursor >= len(self.decisions)
