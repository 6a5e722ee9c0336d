import math

import numpy as np
import pytest

import aggfw
from aggfw.bounds import (
    ProblemConstants,
    compute_constants,
    gap_bound_basic,
    gap_bound_refined,
    mcdiarmid_tail,
    mcdiarmid_variance_tail,
    nonconvexity_measure,
    sample_size_for_confidence,
    sfw_tail,
    sfw_tail_constants,
    variance_proxy,
)
from aggfw.measures import DiscreteMeasure
from aggfw.stochastic_fw import ConstantSchedule, QuadraticSchedule


def constants_from(d_i, total_dim=1):
    d_i = np.asarray(d_i, dtype=float)
    n = d_i.size
    return ProblemConstants(
        c0=1.0,
        c1=float(d_i.sum() / n),
        d_i=d_i,
        lipschitz_f=np.array([1.0]),
        lipschitz_grad=np.array([2.0]),
        diameters=np.sqrt(d_i / 2.0).reshape(n, 1),
        total_dim=total_dim,
    )


class TestComputeConstants:
    def test_miqp_formulas(self, miqp_small):
        c = compute_constants(miqp_small)
        a = miqp_small.matrix
        assert c.c1 == pytest.approx(2.0 / 10 * float((a**2).sum()), rel=1e-12)
        expected_c0 = float(miqp_small.lipschitz_f @ np.abs(a).max(axis=1))
        assert c.c0 == pytest.approx(expected_c0, rel=1e-12)

    def test_single_agent_single_block(self):
        inst = aggfw.MiqpInstance(np.array([[1.0]]), np.array([0.5]))
        c = compute_constants(inst)
        assert c.c1 == pytest.approx(2.0, abs=1e-15)

    @pytest.mark.parametrize("seed", [0, 3, 8])
    def test_top_n_sum_equals_n_times_c1(self, seed):
        c = compute_constants(aggfw.generate(4, 7, seed=seed))
        assert c.d_of_k(7) == pytest.approx(7 * c.c1, abs=1e-9)

    @pytest.mark.parametrize("bad", [-1.0, math.nan])
    @pytest.mark.parametrize("name", ["lipschitz_f", "lipschitz_grad", "diameters"])
    def test_rejects_negative_and_nan_inputs(self, miqp_small, monkeypatch, name, bad):
        values = np.array(getattr(miqp_small, name), dtype=float)
        values.flat[-1] = bad
        monkeypatch.setattr(type(miqp_small), name, property(lambda self: values))
        with pytest.raises(ValueError, match="nonnegative"):
            compute_constants(miqp_small)


class TestDOfK:
    def test_top_one_is_max(self):
        c = constants_from([3.0, 1.0, 2.0])
        assert c.d_of_k(1) == 3.0

    def test_top_two_sum(self):
        c = constants_from([3.0, 1.0, 2.0])
        assert c.d_of_k(2) == 5.0

    def test_full_sum(self):
        c = constants_from([3.0, 1.0, 2.0])
        assert c.d_of_k(3) == 6.0

    @pytest.mark.parametrize("k", [0, 4])
    def test_rejects_out_of_range(self, k):
        with pytest.raises(ValueError):
            constants_from([3.0, 1.0, 2.0]).d_of_k(k)


class TestGapBounds:
    def test_refined_never_exceeds_basic(self):
        for seed in range(5):
            c = compute_constants(aggfw.generate(3, 9, seed=seed))
            assert gap_bound_refined(c) <= gap_bound_basic(c) + 1e-15

    def test_wide_aggregate_makes_bounds_equal(self):
        # q >= N: the top-(q^N) sum covers every agent.
        c = compute_constants(aggfw.generate(12, 6, seed=1))
        assert gap_bound_refined(c) == pytest.approx(gap_bound_basic(c), rel=1e-12)

    def test_scalar_aggregate_with_equal_weights(self):
        c = constants_from([2.0, 2.0, 2.0, 2.0], total_dim=1)
        assert gap_bound_refined(c) == pytest.approx(gap_bound_basic(c) / 4, rel=1e-12)


class TestMcDiarmidTails:
    def test_zero_epsilon_gives_one(self):
        assert mcdiarmid_tail(10, 0.0, 2.0) == 1.0
        assert mcdiarmid_variance_tail(10, 0.0, 1.0, 2.0) == 1.0

    @pytest.mark.parametrize("epsilon", [-0.5, math.nan])
    def test_rejects_negative_and_nan_epsilon(self, epsilon):
        for tail in (
            lambda: mcdiarmid_tail(10, epsilon, 1.0),
            lambda: mcdiarmid_variance_tail(10, epsilon, 0.1, 1.0),
            lambda: sfw_tail(10, epsilon, 10, 1.0, ConstantSchedule(2)),
        ):
            with pytest.raises(ValueError, match="epsilon must be nonnegative"):
                tail()

    def test_large_epsilon_vanishes(self):
        assert mcdiarmid_tail(10, 1e6, 2.0) < 1e-300
        assert mcdiarmid_variance_tail(10, 1e9, 1.0, 2.0) < 1e-12

    def test_monotone_decreasing_and_bounded(self):
        eps = np.linspace(0.0, 5.0, 40)
        tails = [mcdiarmid_tail(25, e, 3.0) for e in eps]
        assert all(0.0 <= t <= 1.0 for t in tails)
        assert all(a >= b for a, b in zip(tails, tails[1:]))
        var_tails = [mcdiarmid_variance_tail(25, e, 0.3, 3.0) for e in eps]
        assert all(0.0 <= t <= 1.0 for t in var_tails)
        assert all(a >= b for a, b in zip(var_tails, var_tails[1:]))

    def test_variance_proxy_matches_reference_formula(self, miqp_small):
        measure = DiscreteMeasure(2, [(0.3, 0), (0.7, 1)])
        lip = miqp_small.lipschitz_f
        column = miqp_small.matrix[:, 2]
        # sigma^2 of g_i under Bernoulli(0.7) on {0, column}.
        sigma2 = 0.3 * 0.7 * float(column @ column)
        expected = 2.0 / 100 * float(lip @ lip) * sigma2
        assert variance_proxy(miqp_small, measure) == pytest.approx(expected, rel=1e-12)


class TestSfwTailConstants:
    def test_two_iteration_closed_form(self):
        c0 = 3.7
        v, m = sfw_tail_constants(2, c0, ConstantSchedule(1), n_agents=10)
        assert v == pytest.approx(2 * c0**2 / 9, rel=1e-12)
        assert m == pytest.approx(c0, rel=1e-12)

    def test_many_draws_kill_the_constants(self):
        v, m = sfw_tail_constants(50, 2.0, ConstantSchedule(10**9), n_agents=10)
        assert v < 1e-6 and m < 1e-6
        assert sfw_tail(50, 0.5, 10, 2.0, ConstantSchedule(10**9)) < 1e-300

    @pytest.mark.parametrize("n_agents", [30, 100])
    def test_quadratic_schedule_variance_chain(self, n_agents):
        # v_K <= 4 N C0^2 / (A K^2) under the quadratic draw schedule.
        c0, a = 3.7, 24.0
        schedule = QuadraticSchedule(a)
        for big_k in range(2, 201):
            v, _ = sfw_tail_constants(big_k, c0, schedule, n_agents)
            assert v <= 4 * n_agents * c0**2 / (a * big_k**2) + 1e-12

    def test_tail_in_unit_interval_and_monotone(self):
        schedule = ConstantSchedule(5)
        tails = [sfw_tail(20, e, 30, 2.0, schedule) for e in np.linspace(0, 3, 30)]
        assert all(0.0 <= t <= 1.0 for t in tails)
        assert all(a >= b for a, b in zip(tails, tails[1:]))


class TestSampleSize:
    def test_weak_confidence_needs_one_draw(self):
        assert sample_size_for_confidence(3, 9, 0.999999, 1.0, 1.0) == 1

    def test_hand_substitution(self):
        # C0 = C1 and k^2 = N collapse the formula to 2 ln(1/zeta).
        assert sample_size_for_confidence(3, 9, math.exp(-1.0), 2.0, 2.0) == 2

    def test_paper_scale_value(self):
        c0, c1, n = 74.0, 66.0, 100
        expected = math.ceil(2 * c0**2 / c1**2 * n * math.log(10.0))
        assert sample_size_for_confidence(100, 100, 0.1, c0, c1) == expected

    def test_rejects_k_beyond_n(self):
        with pytest.raises(ValueError):
            sample_size_for_confidence(11, 10, 0.1, 1.0, 1.0)

    @pytest.mark.parametrize("zeta", [0.0, 1.0, -0.5])
    def test_rejects_bad_confidence(self, zeta):
        with pytest.raises(ValueError):
            sample_size_for_confidence(3, 9, zeta, 1.0, 1.0)


class TestNonconvexityMeasure:
    def test_two_point_set_is_half_exactly(self):
        assert nonconvexity_measure([[0.0], [1.0]]) == 0.5

    def test_three_point_chain(self):
        # The worst mean sits halfway into a sub-segment: variance 1/16.
        assert nonconvexity_measure([[0.0], [0.5], [1.0]]) == pytest.approx(0.25, abs=1e-15)

    def test_bounded_by_diameter(self):
        gen = np.random.default_rng(0)
        for _ in range(10):
            pts = gen.normal(size=(5, 2))
            diameter = max(
                float(np.linalg.norm(p - q)) for p in pts for q in pts
            )
            assert nonconvexity_measure(pts, resolution=0.05) <= diameter + 1e-12

    def test_homogeneous_under_scaling(self):
        gen = np.random.default_rng(1)
        pts = gen.normal(size=(4, 2))
        base = nonconvexity_measure(pts, resolution=0.02)
        for scale in (2.0, -1.5, 0.25):
            scaled = nonconvexity_measure(scale * pts, resolution=0.02)
            assert scaled == pytest.approx(abs(scale) * base, rel=1e-9, abs=1e-12)

    def test_squared_subadditive_under_minkowski_sum(self):
        gen = np.random.default_rng(2)
        for _ in range(5):
            a = gen.normal(size=(3, 2))
            b = gen.normal(size=(4, 2))
            minkowski = (a[:, None, :] + b[None, :, :]).reshape(-1, 2)
            lhs = nonconvexity_measure(minkowski, resolution=0.02) ** 2
            rhs = (
                nonconvexity_measure(a, resolution=0.02) ** 2
                + nonconvexity_measure(b, resolution=0.02) ** 2
            )
            assert lhs <= rhs + 1e-2

    def test_rejects_oversized_inputs(self):
        with pytest.raises(ValueError):
            nonconvexity_measure(np.zeros((65, 1)))
        with pytest.raises(ValueError):
            nonconvexity_measure(np.zeros((3, 4)))
