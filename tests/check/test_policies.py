"""Scheduler policy unit tests: determinism, recording, replay."""

import pickle

import pytest

from repro.check import RandomWalkPolicy, ReplayPolicy, SchedulerPolicy
from repro.check.policies import MAX_TIE_CHOICES, Decisions
from repro.errors import VerificationError


class TestSchedulerPolicy:
    def test_identity_policy_is_neutral(self):
        policy = SchedulerPolicy()
        assert policy.tie_break() == 0
        assert policy.message_delay(1024) == 0.0


class TestRandomWalkPolicy:
    def test_same_seed_same_decisions(self):
        a = RandomWalkPolicy(seed=7, tie_choices=4, delay_bound_us=100.0)
        b = RandomWalkPolicy(seed=7, tie_choices=4, delay_bound_us=100.0)
        got_a = [a.tie_break() for _ in range(50)]
        got_a += [a.message_delay(256) for _ in range(50)]
        got_b = [b.tie_break() for _ in range(50)]
        got_b += [b.message_delay(256) for _ in range(50)]
        assert got_a == got_b
        assert a.decisions == b.decisions

    def test_different_seeds_diverge(self):
        a = RandomWalkPolicy(seed=1)
        b = RandomWalkPolicy(seed=2)
        assert ([a.tie_break() for _ in range(30)]
                != [b.tie_break() for _ in range(30)])

    def test_ties_bounded_and_delays_within_bound(self):
        policy = RandomWalkPolicy(seed=3, tie_choices=5,
                                  delay_bound_us=42.0)
        for _ in range(100):
            assert 0 <= policy.tie_break() < 5
            assert 0.0 <= policy.message_delay(64) <= 42.0

    def test_zero_delay_bound_records_no_delay_decisions(self):
        policy = RandomWalkPolicy(seed=3, delay_bound_us=0.0)
        policy.tie_break()
        assert policy.message_delay(64) == 0.0
        assert len(policy.decisions) == 1  # only the tie-break

    @pytest.mark.parametrize("tie_choices, delay_bound_us", [
        (0, 0.0), (4, -1.0), (4, float("nan")), (4, float("inf")),
        # tie_choices: an int, not a bool, that the token column holds.
        (2.5, 0.0), (True, 0.0), (float("nan"), 0.0),
        (float("inf"), 0.0), ("4", 0.0), (MAX_TIE_CHOICES + 1, 0.0)])
    def test_unusable_parameters_rejected(self, tie_choices,
                                          delay_bound_us):
        with pytest.raises(VerificationError):
            RandomWalkPolicy(seed=0, tie_choices=tie_choices,
                             delay_bound_us=delay_bound_us)


def _walk(tie_choices, steps=40):
    """A walk of ``steps`` tie-breaks with a delay after every third,
    and the values it drew, in order."""
    policy = RandomWalkPolicy(seed=11, tie_choices=tie_choices,
                              delay_bound_us=90.0)
    drawn = []
    for i in range(steps):
        drawn.append(policy.tie_break())
        if i % 3 == 2:
            drawn.append(policy.message_delay(64))
    return policy.decisions, drawn


class TestDecisions:
    @pytest.mark.parametrize("tie_choices, itemsize", [
        (1, 1), (4, 1), (255, 1), (256, 2), (300, 2), (65_535, 2),
        (65_536, 4), (MAX_TIE_CHOICES, 8)])
    def test_narrowest_token_column(self, tie_choices, itemsize):
        decisions = Decisions(tie_choices)
        tokens = memoryview(decisions.tokens)
        assert tokens.format.isupper()  # unsigned
        assert tokens.itemsize == itemsize
        assert decisions.delays.typecode == "d"

    @pytest.mark.parametrize("tie_choices, typecode", [(4, "B"),
                                                       (300, "H")])
    def test_reads_as_the_drawn_values(self, tie_choices, typecode):
        decisions, drawn = _walk(tie_choices)
        assert isinstance(decisions, Decisions)
        assert memoryview(decisions.tokens).format == typecode
        assert len(decisions) == len(drawn) == 53
        assert len(decisions.delays) == 13
        assert list(decisions) == drawn
        assert [type(v) for v in decisions] == [type(v) for v in drawn]
        for i in range(-len(drawn), len(drawn)):
            assert decisions[i] == drawn[i]
            assert type(decisions[i]) is type(drawn[i])
        for i in (len(drawn), -len(drawn) - 1):
            with pytest.raises(IndexError):
                decisions[i]
        for window in (slice(None), slice(2, 9), slice(-7, None),
                       slice(None, None, -3), slice(40, 5, -2),
                       slice(60, 70)):
            assert decisions[window] == drawn[window]

    @pytest.mark.parametrize("tie_choices", [4, 300])
    def test_equality_is_by_value(self, tie_choices):
        decisions, drawn = _walk(tie_choices)
        again, _ = _walk(tie_choices)
        assert decisions == drawn and drawn == decisions
        assert decisions == tuple(drawn)
        assert decisions == again
        assert decisions != drawn[:-1]
        assert decisions != drawn[:-1] + [drawn[-1] + 1]
        assert decisions != set(drawn)
        assert Decisions(tie_choices) == []

    @pytest.mark.parametrize("tie_choices", [4, 300])
    def test_pickle_round_trip_keeps_the_columns(self, tie_choices):
        decisions, drawn = _walk(tie_choices)
        loaded = pickle.loads(pickle.dumps(decisions))
        assert loaded == drawn
        assert loaded.tie_choices == tie_choices
        assert loaded.tokens == decisions.tokens
        assert type(loaded.tokens) is type(decisions.tokens)
        assert memoryview(loaded.tokens).format \
            == memoryview(decisions.tokens).format
        assert loaded.delays == decisions.delays


class TestReplayPolicy:
    def test_replays_recorded_walk_exactly(self):
        walk = RandomWalkPolicy(seed=9, tie_choices=4,
                                delay_bound_us=75.0)
        recorded = []
        for i in range(20):
            recorded.append(walk.tie_break())
            recorded.append(walk.message_delay(128 + i))
        replay = ReplayPolicy(walk.decisions, delay_bound_us=75.0)
        replayed = []
        for i in range(20):
            replayed.append(replay.tie_break())
            replayed.append(replay.message_delay(128 + i))
        assert replayed == recorded
        assert replay.exhausted

    def test_drift_raises(self):
        replay = ReplayPolicy([2, 0.5], delay_bound_us=75.0)
        with pytest.raises(VerificationError):
            replay.message_delay(64)  # recorded decision is a tie-break

    def test_exhaustion_raises(self):
        replay = ReplayPolicy([1], delay_bound_us=0.0)
        assert replay.tie_break() == 1
        with pytest.raises(VerificationError):
            replay.tie_break()
