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

A random walk records its decisions in a :class:`Decisions` trace:
two typed columns behind a read-only sequence, about 4 B per decision.
"""

from __future__ import annotations

import random
from array import array
from collections.abc import Sequence
from typing import Iterator, List, Union

from repro.errors import Rule, VerificationError, check_fields

Decision = Union[int, float]

#: Unsigned typecodes of a token column wider than one byte, narrowest
#: first, each with the first value it cannot hold.
_WIDE_TOKEN_COLUMNS = tuple((code, 1 << 8 * array(code).itemsize)
                            for code in "HILQ")

#: The largest ``tie_choices`` a walk accepts: its token column must
#: hold ``tie_choices`` itself, the token that marks a delay.
MAX_TIE_CHOICES = _WIDE_TOKEN_COLUMNS[-1][1] - 1


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


#: The declared rules of a random walk's parameters: a NaN or
#: infinite delay bound would time frames at NaN or never.
WALK_RULES = (
    Rule(("tie_choices",), int, ge=1, le=MAX_TIE_CHOICES),
    Rule(("delay_bound_us",), float, ge=0),
)


class Decisions(Sequence[Decision]):
    """A walk's decision trace in draw order, as two typed columns.

    ``tokens`` holds one unsigned token per decision: a tie-break rank
    in ``[0, tie_choices)``, or ``tie_choices`` itself, which means
    "the next delay" — the next C double of ``delays``.  The token
    column is the narrowest unsigned one that holds ``tie_choices``: a
    ``bytearray`` up to 255 (1 B a tie-break, 9 B a delay), then an
    ``array`` of typecode ``'H'``, ``'I'``, ``'L'`` or ``'Q'``.

    Only :class:`RandomWalkPolicy` appends, straight to the columns.
    Readers see a read-only sequence of ``int`` ranks and ``float``
    delays: ``len()`` reads the token column, iteration decodes in one
    pass, indexing and slicing decode on demand, and ``==`` compares
    values in order with any sequence, as a list would.  A pickle
    carries the two columns.
    """

    __slots__ = ("tie_choices", "tokens", "delays")

    def __init__(self, tie_choices: int) -> None:
        self.tie_choices = tie_choices
        # One-byte tokens go in a bytearray, not an array('B'): its
        # append costs what list.append does, while array.append
        # parses every item, ~100 ns more on the hottest call of a walk.
        self.tokens: Union[bytearray, array] = bytearray() \
            if tie_choices < 256 else \
            array(next(code for code, end in _WIDE_TOKEN_COLUMNS
                       if tie_choices < end))
        self.delays = array("d")

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self) -> Iterator[Decision]:
        delays = iter(self.delays)
        delay = self.tie_choices
        for token in self.tokens:
            yield next(delays) if token == delay else token

    def __getitem__(self, index: Union[int, slice]
                    ) -> Union[Decision, List[Decision]]:
        if isinstance(index, slice):
            return list(self)[index]
        i = range(len(self.tokens))[index]
        token = self.tokens[i]
        if token != self.tie_choices:
            return token
        return self.delays[self.tokens[:i].count(token)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return list(self) == list(other)

    def __repr__(self) -> str:
        return f"Decisions({list(self)!r})"


class RandomWalkPolicy(SchedulerPolicy):
    """One random walk through the schedule space.

    Every decision is drawn from a private :class:`random.Random`
    (independent of the scenario's workload seed) and appended to
    :attr:`decisions`, a :class:`Decisions` trace, so a violating walk
    can be replayed exactly by a :class:`ReplayPolicy` — without the
    replay depending on the rng implementation at all.

    Parameters
    ----------
    seed:
        Seed of the policy's private rng: the walk's identity.
    tie_choices:
        Tie-break values are drawn uniformly from ``[0, tie_choices)``.
        Larger values shuffle same-timestamp runs more aggressively;
        from 256 on, the token column widens to 2 B a decision.
    delay_bound_us:
        Finite upper bound (µs) of the per-frame extra delay; 0
        disables delay perturbation and explores tie-breaks only.
    """

    def __init__(self, seed: int, tie_choices: int = 4,
                 delay_bound_us: float = 0.0):
        self.seed = seed
        self.tie_choices = tie_choices
        self.delay_bound_us = delay_bound_us
        check_fields(vars(self), WALK_RULES, VerificationError)
        self.decisions = Decisions(tie_choices)
        # Bound appends: tie_break runs once per scheduled event.
        self._append_token = self.decisions.tokens.append
        self._append_delay = self.decisions.delays.append
        self._rng = random.Random(seed)

    def tie_break(self) -> int:
        """Draw and record one tie-break rank.

        Drawn as ``int(random() * n)`` rather than ``randrange(n)``:
        same uniform distribution, a fraction of the cost — this is
        called once per scheduled event, making it the single hottest
        call of an exploration run.
        """
        value = int(self._rng.random() * self.tie_choices)
        self._append_token(value)
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
        self._append_token(self.tie_choices)
        self._append_delay(value)
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
