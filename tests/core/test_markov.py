"""Tests for the CTMC availability model."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.markov import (
    RepairableGroupModel,
    failover_window_for_style,
    plan_redundancy,
)
from repro.errors import PolicyError
from repro.replication import ReplicationStyle


class TestSteadyState:
    def test_distribution_sums_to_one(self):
        model = RepairableGroupModel(n_replicas=3)
        pi = model.steady_state()
        assert len(pi) == 4
        assert sum(pi) == pytest.approx(1.0)
        assert all(p >= 0 for p in pi)

    def test_full_service_dominates_with_fast_repair(self):
        model = RepairableGroupModel(n_replicas=3, mttf_us=3.6e9,
                                     mttr_us=5e6)
        pi = model.steady_state()
        assert pi[3] > 0.99
        assert pi[0] < 1e-6

    def test_single_replica_matches_mttf_mttr_formula(self):
        """For n=1 the chain is the textbook two-state model:
        availability = MTTF / (MTTF + MTTR)."""
        mttf, mttr = 1e9, 1e7
        model = RepairableGroupModel(n_replicas=1, mttf_us=mttf,
                                     mttr_us=mttr, failover_us=0.0)
        pi = model.steady_state()
        assert pi[1] == pytest.approx(mttf / (mttf + mttr))
        assert model.availability() == pytest.approx(
            mttf / (mttf + mttr))

    @given(st.integers(min_value=1, max_value=6),
           st.floats(min_value=1e6, max_value=1e10),
           st.floats(min_value=1e3, max_value=1e8))
    @settings(max_examples=50)
    def test_valid_distribution_for_any_parameters(self, n, mttf, mttr):
        model = RepairableGroupModel(n_replicas=n, mttf_us=mttf,
                                     mttr_us=mttr)
        pi = model.steady_state()
        assert sum(pi) == pytest.approx(1.0)
        assert all(0.0 <= p <= 1.0 for p in pi)


class TestAvailability:
    def test_more_replicas_higher_availability(self):
        values = [RepairableGroupModel(n_replicas=n).availability()
                  for n in (1, 2, 3)]
        assert values[0] < values[1] <= values[2] <= 1.0

    def test_smaller_failover_window_higher_availability(self):
        fast = RepairableGroupModel(n_replicas=2, failover_us=1_000.0)
        slow = RepairableGroupModel(n_replicas=2, failover_us=5e6)
        assert fast.availability() > slow.availability()

    def test_expected_live_replicas_near_n(self):
        model = RepairableGroupModel(n_replicas=3)
        expected = model.expected_live_replicas()
        assert 2.99 < expected <= 3.0


class TestMeanTimeToTotalFailure:
    def test_grows_explosively_with_redundancy(self):
        """Adding a replica multiplies the time to total failure by
        roughly MTTF/MTTR — the whole point of redundancy."""
        times = [RepairableGroupModel(
            n_replicas=n).mean_time_to_total_failure_us()
            for n in (1, 2, 3)]
        assert times[0] < times[1] < times[2]
        assert times[1] / times[0] > 100.0
        assert times[2] / times[1] > 100.0

    def test_single_replica_is_mttf(self):
        model = RepairableGroupModel(n_replicas=1, mttf_us=7e8)
        assert model.mean_time_to_total_failure_us() == pytest.approx(7e8)

    @given(st.integers(min_value=1, max_value=5))
    @settings(max_examples=20)
    def test_positive_for_any_size(self, n):
        model = RepairableGroupModel(n_replicas=n)
        assert model.mean_time_to_total_failure_us() > 0


class TestPlanning:
    def test_style_windows_ordered(self):
        active = failover_window_for_style(ReplicationStyle.ACTIVE)
        warm = failover_window_for_style(ReplicationStyle.WARM_PASSIVE)
        cold = failover_window_for_style(ReplicationStyle.COLD_PASSIVE)
        assert active < warm < cold

    def test_semi_active_fast_like_active(self):
        assert failover_window_for_style(ReplicationStyle.SEMI_ACTIVE) \
            == failover_window_for_style(ReplicationStyle.ACTIVE)

    def test_plan_lax_target_one_replica(self):
        assert plan_redundancy(0.9, ReplicationStyle.ACTIVE) == 1

    def test_plan_strict_target_needs_more_replicas_for_cold(self):
        cold_n = plan_redundancy(0.998, ReplicationStyle.COLD_PASSIVE)
        active_n = plan_redundancy(0.998, ReplicationStyle.ACTIVE)
        assert cold_n >= active_n

    def test_plan_unreachable_raises(self):
        with pytest.raises(PolicyError):
            plan_redundancy(0.999999999, ReplicationStyle.COLD_PASSIVE,
                            mttf_us=1e7, mttr_us=1e7, max_replicas=2)

    def test_plan_validates_target(self):
        with pytest.raises(PolicyError):
            plan_redundancy(1.5, ReplicationStyle.ACTIVE)


class TestValidation:
    def test_bad_parameters(self):
        with pytest.raises(PolicyError):
            RepairableGroupModel(n_replicas=0)
        with pytest.raises(PolicyError):
            RepairableGroupModel(n_replicas=1, mttf_us=0.0)
        with pytest.raises(PolicyError):
            RepairableGroupModel(n_replicas=1, failover_us=-1.0)


class TestPurePythonSolver:
    """The chain is solved without numpy; the numpy solution it
    replaced stays here as the reference."""

    # (MTTF, MTTR) in µs with MTTF/MTTR in {0.1, 1, 10}.  LU on the
    # first-passage system loses digits as that ratio grows (at the
    # module defaults, ratio 720, it is 1 % off by n = 7), so wider
    # ratios are checked against the exact rational solution below.
    GRID = [(mttf, mttf / ratio)
            for mttf in (1e6, 1e8, 3.6e9)
            for ratio in (0.1, 1.0, 10.0)]

    # Realistic ratios (up to 3e10), including the module defaults.
    WIDE_GRID = [(mttf, mttr)
                 for mttf in (1e6, 3.6e9, 8.64e10, 3.15e13)
                 for mttr in (1e3, 5e6, 3.6e9)]

    @staticmethod
    def _numpy_reference(numpy, model):
        n = model.n_replicas
        lam = 1.0 / model.mttr_us
        mu = 1.0 / model.mttf_us
        weights = numpy.zeros(n + 1)
        weights[n] = 1.0
        for k in range(n - 1, -1, -1):
            weights[k] = weights[k + 1] * ((k + 1) * mu) / lam
        pi = list(weights / weights.sum())
        q = numpy.zeros((n, n))
        for k in range(1, n + 1):
            i = k - 1
            down = k * mu
            up = lam if k < n else 0.0
            q[i, i] = -(down + up)
            if k > 1:
                q[i, i - 1] = down
            if k < n:
                q[i, i + 1] = up
        mttf_total = float(numpy.linalg.solve(q, -numpy.ones(n))[n - 1])
        return pi, mttf_total

    @staticmethod
    def _exact_first_passage(model):
        """m_n from forward elimination of Q_t m = -1 in rational
        arithmetic; the last row is then solved directly, so no
        back-substitution is needed."""
        n = model.n_replicas
        lam = 1 / Fraction(model.mttr_us)
        mu = 1 / Fraction(model.mttf_us)
        diag = [-(k * mu + (lam if k < n else 0)) for k in range(1, n + 1)]
        rhs = [Fraction(-1)] * n
        for i in range(1, n):
            factor = (i + 1) * mu / diag[i - 1]
            diag[i] -= factor * lam
            rhs[i] -= factor * rhs[i - 1]
        return rhs[n - 1] / diag[n - 1]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_numpy_reference(self, n):
        numpy = pytest.importorskip("numpy")
        for mttf, mttr in self.GRID:
            model = RepairableGroupModel(n_replicas=n, mttf_us=mttf,
                                         mttr_us=mttr)
            pi, mttf_total = self._numpy_reference(numpy, model)
            assert model.steady_state() == pytest.approx(pi, rel=1e-12)
            assert model.mean_time_to_total_failure_us() \
                == pytest.approx(mttf_total, rel=1e-12)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_exact_solution_at_wide_ratios(self, n):
        for mttf, mttr in self.WIDE_GRID:
            model = RepairableGroupModel(n_replicas=n, mttf_us=mttf,
                                         mttr_us=mttr)
            exact = self._exact_first_passage(model)
            assert model.mean_time_to_total_failure_us() \
                == pytest.approx(float(exact), rel=1e-14)

    def test_two_replicas_closed_form(self):
        """MTTF_total = (3 mu + lam) / (2 mu^2) for failure rate mu and
        repair rate lam."""
        mttf, mttr = 3.6e9, 5e6
        mu, lam = 1.0 / mttf, 1.0 / mttr
        model = RepairableGroupModel(n_replicas=2, mttf_us=mttf,
                                     mttr_us=mttr)
        assert model.mean_time_to_total_failure_us() == pytest.approx(
            (3 * mu + lam) / (2 * mu * mu), rel=1e-12)
