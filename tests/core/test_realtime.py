"""Tests for the real-time-guarantees high-level knob (Table 1 row 3)."""

import pytest
from hypothesis import given, strategies as st

from repro.core import (
    ConfigPoint,
    Measurement,
    Profile,
    RealTimePolicy,
    RealTimeRequirement,
    deadline_meet_probability,
)
from repro.errors import ContractViolation, PolicyError
from repro.replication import ReplicationStyle

A = ReplicationStyle.ACTIVE
P = ReplicationStyle.WARM_PASSIVE


def rt_profile() -> Profile:
    rows = [
        # (style, n_rep, n_cli, latency, jitter)
        (A, 3, 1, 1250.0, 20.0), (A, 2, 1, 1150.0, 15.0),
        (P, 3, 1, 2100.0, 60.0), (P, 2, 1, 1900.0, 50.0),
        (A, 3, 5, 2100.0, 90.0), (A, 2, 5, 2000.0, 80.0),
        (P, 3, 5, 7300.0, 470.0), (P, 2, 5, 6000.0, 380.0),
    ]
    return Profile(
        Measurement(config=ConfigPoint(style=s, n_replicas=r),
                    n_clients=c, latency_us=lat, jitter_us=jit,
                    bandwidth_mbps=1.0)
        for s, r, c, lat, jit in rows)


class TestMeetProbability:
    def test_mean_past_deadline_gives_zero(self):
        assert deadline_meet_probability(2000.0, 10.0, 1500.0) == 0.0

    def test_zero_jitter_gives_certainty(self):
        assert deadline_meet_probability(1000.0, 0.0, 1500.0) == 1.0

    def test_probability_grows_with_slack(self):
        tight = deadline_meet_probability(1000.0, 100.0, 1100.0)
        loose = deadline_meet_probability(1000.0, 100.0, 2000.0)
        assert loose > tight

    @given(st.floats(min_value=1, max_value=1e5),
           st.floats(min_value=0, max_value=1e4),
           st.floats(min_value=1, max_value=2e5))
    def test_probability_in_unit_interval(self, mean, jitter, deadline):
        p = deadline_meet_probability(mean, jitter, deadline)
        assert 0.0 <= p <= 1.0

    @given(st.floats(min_value=1, max_value=1e4),
           st.floats(min_value=1, max_value=1e3))
    def test_cantelli_bound_monotone_in_jitter(self, mean, jitter):
        deadline = mean + 10 * jitter + 100
        smaller = deadline_meet_probability(mean, jitter, deadline)
        larger = deadline_meet_probability(mean, 2 * jitter, deadline)
        assert larger <= smaller


class TestRealTimePolicy:
    def test_generous_deadline_picks_best_fault_tolerance(self):
        policy = RealTimePolicy(rt_profile())
        entry = policy.best_configuration(
            RealTimeRequirement(deadline_us=50_000.0), n_clients=1)
        assert entry.measurement.config.faults_tolerated == 2
        # Among FT=2 options the faster one wins.
        assert entry.measurement.config.label == "A(3)"

    def test_tight_deadline_forces_active(self):
        policy = RealTimePolicy(rt_profile())
        entry = policy.best_configuration(
            RealTimeRequirement(deadline_us=3000.0, confidence=0.9),
            n_clients=5)
        assert entry.measurement.config.style is A

    def test_impossible_deadline_raises_contract_violation(self):
        policy = RealTimePolicy(rt_profile())
        with pytest.raises(ContractViolation):
            policy.best_configuration(
                RealTimeRequirement(deadline_us=500.0), n_clients=1)

    def test_guaranteed_probability_meets_confidence(self):
        policy = RealTimePolicy(rt_profile())
        requirement = RealTimeRequirement(deadline_us=4000.0,
                                          confidence=0.95)
        entry = policy.best_configuration(requirement, n_clients=1)
        assert entry.guaranteed_probability >= 0.95

    def test_tightest_feasible_deadline_bracketed(self):
        policy = RealTimePolicy(rt_profile())
        tightest = policy.tightest_feasible_deadline(n_clients=1,
                                                     confidence=0.99)
        # Must exceed the fastest mean, and a slightly looser deadline
        # must actually be satisfiable.
        assert tightest > 1150.0
        entry = policy.best_configuration(
            RealTimeRequirement(deadline_us=tightest + 100.0,
                                confidence=0.99), n_clients=1)
        assert entry is not None

    def test_unknown_load_is_contract_violation(self):
        policy = RealTimePolicy(rt_profile())
        with pytest.raises(ContractViolation):
            policy.best_configuration(
                RealTimeRequirement(deadline_us=50_000.0), n_clients=9)

    def test_validation(self):
        with pytest.raises(PolicyError):
            RealTimeRequirement(deadline_us=0.0)
        with pytest.raises(PolicyError):
            RealTimeRequirement(deadline_us=100.0, confidence=1.5)
        with pytest.raises(PolicyError):
            RealTimePolicy(Profile())

    @pytest.mark.parametrize("deadline, confidence, field", [
        (float("nan"), 0.9, "deadline_us"),
        (float("inf"), 0.9, "deadline_us"), (True, 0.9, "deadline_us"),
        (100.0, float("nan"), "confidence"), (100.0, True, "confidence")])
    def test_nan_inf_and_bool_rejected(self, deadline, confidence, field):
        with pytest.raises(PolicyError, match=field):
            RealTimeRequirement(deadline_us=deadline, confidence=confidence)


class TestRealTimeKnobLive:
    def test_knob_drives_low_level_knobs(self):
        from repro.core import (NumReplicasKnob, RealTimeKnob,
                                ReplicationStyleKnob)

        class _StubFactory:
            def __init__(self):
                self.target = 2

            def set_target(self, n):
                self.target = n

        class _StubStyleKnob(ReplicationStyleKnob):
            def __init__(self):
                super().__init__([])
                self.value = None

            def get(self):
                return self.value

            def _apply(self, value):
                self.value = value

        factory = _StubFactory()
        style_knob = _StubStyleKnob()
        knob = RealTimeKnob(RealTimePolicy(rt_profile()), style_knob,
                            NumReplicasKnob(factory))
        entry = knob.set(RealTimeRequirement(deadline_us=3000.0,
                                             confidence=0.9),
                         n_clients=5)
        assert entry.measurement.config.style is A
        assert factory.target == entry.measurement.config.n_replicas
        assert style_knob.value is A
