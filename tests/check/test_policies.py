"""Scheduler policy unit tests: determinism, recording, replay."""

import pytest

from repro.check import RandomWalkPolicy, ReplayPolicy, SchedulerPolicy
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
        (0, 0.0), (4, -1.0), (4, float("nan")), (4, float("inf"))])
    def test_unusable_parameters_rejected(self, tie_choices,
                                          delay_bound_us):
        with pytest.raises(VerificationError):
            RandomWalkPolicy(seed=0, tie_choices=tie_choices,
                             delay_bound_us=delay_bound_us)


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
