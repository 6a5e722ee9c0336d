import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from aggfw.bounds import _exponent, _tail_count
from aggfw.measures import DiscreteMeasure
from aggfw.stochastic_fw import ConstantSchedule, QuadraticSchedule


def constants_from(d_i, total_dim=1):
    d_i = np.asarray(d_i, dtype=float)
    n = d_i.size
    return ProblemConstants(
        c0=1.0,
        c1=float(d_i.sum() / n),
        d_i=d_i,
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

    @pytest.mark.parametrize("name", ["lipschitz_f", "lipschitz_grad", "diameters"])
    def test_rejects_arrays_of_the_wrong_shape(self, miqp_small, monkeypatch, name):
        values = np.array(getattr(miqp_small, name), dtype=float)[..., :-1]
        monkeypatch.setattr(type(miqp_small), name, property(lambda self: values))
        with pytest.raises(ValueError, match="constant arrays do not match"):
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


def reference_mcdiarmid_tail(n_agents, epsilon, c0):
    """``mcdiarmid_tail`` with its own scaling and edge rules, kept as the reference."""
    n_agents, e = _tail_count(n_agents, c0, epsilon), _exponent(epsilon, c0)
    epsilon, c0 = math.ldexp(epsilon, -e), math.ldexp(c0, -e)
    if c0**2 == 0 or epsilon == math.inf:  # C0 is 0, or eps / C0 > 2^536
        return 1.0 if epsilon == 0 else 0.0
    return float(np.exp(-2.0 * n_agents * epsilon**2 / c0**2))


def outcome(call, *args):
    """What ``call(*args)`` returns, or the type and message of what it raises."""
    try:
        return call(*args)
    except Exception as error:
        return type(error), str(error)


# 0, the smallest subnormal, both sides of the 2^-536 and 2^+-500 scaling edges, everyday
# values and the largest floats; then inputs the tails reject.
TAIL_GRID = [0.0, 5e-324, 2.0**-600, 2.0**-537, 2.0**-536, 2.0**-500, 2.0**-499, 1e-170, 0.1,
             0.25, 1.0, 7 / 3, 3.7, 1359042.562011857, 2.0**499, 2.0**500, 2.0**501, 2.0**600,
             1e200, 1.7e308, math.inf, -1.0, math.nan]


@pytest.mark.parametrize("n_agents", [1, 2, 10, 10**6, 2**53 + 1, 2**60, np.int64(7), 0, 2.0])
def test_mcdiarmid_tail_keeps_its_bits(n_agents):
    for epsilon, c0 in itertools.product(TAIL_GRID, repeat=2):
        got = outcome(mcdiarmid_tail, n_agents, epsilon, c0)
        expected = outcome(reference_mcdiarmid_tail, n_agents, epsilon, c0)
        if isinstance(expected, float):
            assert isinstance(got, float) and got == expected, (epsilon, c0)
            assert math.copysign(1.0, got) == math.copysign(1.0, expected), (epsilon, c0)
        else:
            assert got == expected, (epsilon, c0)


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

    def test_constants_at_extreme_c0(self):
        # c0**2 overflows unless C0 is rescaled: v_K is then too large for a float.
        v, m = sfw_tail_constants(5, 1e200, ConstantSchedule(1), 10)
        assert v == math.inf and m == pytest.approx(1e200, rel=1e-15)
        assert sfw_tail_constants(5, 2.0**-600, ConstantSchedule(1), 10) == tuple(
            math.ldexp(x, -600 * p) for x, p in zip(sfw_tail_constants(
                5, 1.0, ConstantSchedule(1), 10), (2, 1)))

    def test_tail_in_unit_interval_and_monotone(self):
        schedule = ConstantSchedule(5)
        tails = [sfw_tail(20, e, 30, 2.0, schedule) for e in np.linspace(0, 3, 30)]
        assert all(0.0 <= t <= 1.0 for t in tails)
        assert all(a >= b for a, b in zip(tails, tails[1:]))


# Each tail as a function of (N, eps, C0), the other inputs fixed.
TAILS = {
    "mcdiarmid": mcdiarmid_tail,
    "variance": lambda n, eps, c0: mcdiarmid_variance_tail(n, eps, 0.2, c0),
    "sfw": lambda n, eps, c0: sfw_tail(5, eps, n, c0, ConstantSchedule(2)),
}


class TestTailInputs:
    """Every tail is a probability for every input it accepts, and rejects the rest."""

    @pytest.mark.parametrize("epsilon", [0.0, 0.1])
    @pytest.mark.parametrize("n_agents", [-5, 0, 2.0, True, "10", math.nan])
    @pytest.mark.parametrize("tail", sorted(TAILS))
    def test_agent_count_must_be_a_count(self, tail, n_agents, epsilon):
        with pytest.raises(ValueError, match="n_agents must be an integer of at least 1"):
            TAILS[tail](n_agents, epsilon, 1.0)

    @pytest.mark.parametrize("tail", sorted(TAILS))
    def test_numpy_integer_agent_count(self, tail):
        assert TAILS[tail](np.int64(10), 0.1, 1.0) == TAILS[tail](10, 0.1, 1.0)

    @pytest.mark.parametrize("epsilon", [0.0, 0.1])
    @pytest.mark.parametrize("c0", [-1.0, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("tail", sorted(TAILS))
    def test_c0_must_be_finite_and_nonnegative(self, tail, c0, epsilon):
        with pytest.raises(ValueError, match="c0 must be finite and nonnegative"):
            TAILS[tail](10, epsilon, c0)

    @pytest.mark.parametrize("c0", [-1.0, -3, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("call", [
        lambda c0: sample_size_for_confidence(1, 10, 0.1, c0, 1.0),
        lambda c0: sfw_tail_constants(5, c0, ConstantSchedule(1), 10),
    ], ids=["sample_size_for_confidence", "sfw_tail_constants"])
    def test_the_tail_inputs_check_c0_alike(self, call, c0):
        with pytest.raises(ValueError, match="c0 must be finite and nonnegative"):
            call(c0)

    @pytest.mark.parametrize("epsilon", [0.0, 0.1])
    @pytest.mark.parametrize("n_iters", [-3, 0, 2.5, True])
    def test_sfw_tail_checks_k_before_the_zero_epsilon_shortcut(self, n_iters, epsilon):
        with pytest.raises(ValueError, match="n_iters must be an integer of at least 1"):
            sfw_tail(n_iters, epsilon, 10, 1.0, ConstantSchedule(1))

    @pytest.mark.parametrize("sum_vi2", [-1.0, math.nan])
    def test_variance_term_must_be_nonnegative(self, sum_vi2):
        with pytest.raises(ValueError, match="variance term must be nonnegative"):
            mcdiarmid_variance_tail(10, 0.1, sum_vi2, 1.0)

    @pytest.mark.parametrize("c0", [0.0, 2.47e-203, 1.0])
    @pytest.mark.parametrize("tail", sorted(TAILS))
    def test_infinite_epsilon_gives_zero(self, tail, c0):
        assert TAILS[tail](10, math.inf, c0) == 0.0

    @pytest.mark.parametrize("n, eps, sum_vi2, c0", [(10, 0.1, 0.2, 1.0), (7, 2.5, 1e-3, 3.7),
                                                     (10**6, 1e-3, 5.0, 1e-9)])
    def test_tails_keep_their_float_operations(self, n, eps, sum_vi2, c0):
        expected = float(np.exp(-2.0 * n * eps**2 / c0**2))
        assert repr(mcdiarmid_tail(n, eps, c0)) == repr(expected)
        expected = float(np.exp(-n * eps**2 / (2.0 * (n * sum_vi2 + c0 * eps / 3.0))))
        assert repr(mcdiarmid_variance_tail(n, eps, sum_vi2, c0)) == repr(expected)
        schedule = QuadraticSchedule(24.0)
        v, m = sfw_tail_constants(9, c0, schedule, n)
        expected = float(np.exp(-(eps**2) * n / (2.0 * (v + eps * m / 3.0))))
        assert repr(sfw_tail(9, eps, n, c0, schedule)) == repr(expected)

    # Every finite magnitude, subnormals included.
    MAGNITUDES = st.floats(0.0, allow_infinity=False)

    @settings(max_examples=300, deadline=None)
    @given(
        tail=st.sampled_from(sorted(TAILS)),
        n_agents=st.integers(1, 10**6),
        c0=MAGNITUDES,
        sum_vi2=MAGNITUDES,
        epsilons=st.lists(MAGNITUDES | st.just(math.inf), min_size=2, max_size=2),
    )
    @example("mcdiarmid", 1, 2.47e-203, 0.2, [0.25, 0.25])
    @example("mcdiarmid", 10, 1e200, 0.2, [0.1, 0.1])
    @example("variance", 10, 1.0, 0.2, [1e200, 1e200])
    @example("variance", 1, 1e-170, 0.0, [1e-170, 1e-170])
    def test_a_probability_that_does_not_increase_with_epsilon(self, tail, n_agents, c0,
                                                              sum_vi2, epsilons):
        call = TAILS[tail] if tail != "variance" else (
            lambda n, eps, c0: mcdiarmid_variance_tail(n, eps, sum_vi2, c0))
        small, large = sorted(epsilons)
        at_small, at_large = (call(n_agents, eps, c0) for eps in (small, large))
        assert 0.0 <= at_large <= at_small <= 1.0

    # Where the formulas' squares overflow, underflow or divide by an underflowed 0.0 unless
    # the tails rescale eps and C0 by a power of two.
    @pytest.mark.parametrize("call, expected", [
        (lambda: mcdiarmid_tail(1, 0.25, 2.47e-203), 0.0),
        (lambda: mcdiarmid_tail(10, 0.1, 1e200), 1.0),
        (lambda: mcdiarmid_variance_tail(10, 1e200, 0.2, 1.0), 0.0),
        (lambda: mcdiarmid_variance_tail(1, 1e-170, 0.0, 1e-170), math.exp(-1.5)),
        (lambda: sfw_tail(5, 0.1, 10, 1e200, ConstantSchedule(1)), 1.0),
        (lambda: sfw_tail(5, 1e200, 10, 1.0, ConstantSchedule(1)), 0.0),
    ], ids=range(6))
    def test_extreme_magnitudes(self, call, expected):
        assert call() == pytest.approx(expected, rel=1e-15)

    IN_RANGE = st.floats(2.0**-500, 2.0**500)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 10**6), eps=IN_RANGE, sum_vi2=IN_RANGE | st.just(0.0), c0=IN_RANGE)
    def test_tails_in_range_keep_their_float_operations(self, n, eps, sum_vi2, c0):
        expected = float(np.exp(-2.0 * n * eps**2 / c0**2))
        assert repr(mcdiarmid_tail(n, eps, c0)) == repr(expected)
        expected = float(np.exp(-n * eps**2 / (2.0 * (n * sum_vi2 + c0 * eps / 3.0))))
        assert repr(mcdiarmid_variance_tail(n, eps, sum_vi2, c0)) == repr(expected)
        # K = 4, n_k = 2: v_sum = 1*2^2/2 + 2*3^2/2 + 3*4^2/2 and m_max = 4*5/2, both exact.
        expected = (2.0 * c0**2 / (4**2 * 5**2) * 35.0, c0 / (4 * 5) * 10.0)
        assert repr(sfw_tail_constants(4, c0, ConstantSchedule(2), n)) == repr(expected)


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

    @pytest.mark.parametrize("c1", [0.0, -1.0, math.inf, math.nan])
    def test_c1_must_be_positive_and_finite(self, c1):
        with pytest.raises(ValueError, match="c1 must be positive and finite"):
            sample_size_for_confidence(3, 9, 0.1, 1.0, c1)

    def test_the_agent_count_is_checked_before_k(self):
        with pytest.raises(ValueError, match="n_agents must be an integer of at least 1"):
            sample_size_for_confidence(11, 10.5, 0.1, 1.0, 1.0)

    @pytest.mark.parametrize("c0, c1", [(1e200, 1.0), (1.0, 1e-200), (2.0**500, 2.0**-500)])
    def test_a_count_too_large_for_a_float_raises(self, c0, c1):
        with pytest.raises(ValueError, match="too large to represent"):
            sample_size_for_confidence(1, 10, 0.1, c0, c1)

    @pytest.mark.parametrize("power", [-1070, -600, -200, 200, 600, 1000])
    @pytest.mark.parametrize("c0, c1", [(74.0, 66.0), (1.0, 3.0), (0.0, 1.0)])
    def test_the_count_depends_on_the_ratio_only(self, c0, c1, power):
        expected = sample_size_for_confidence(100, 100, 0.1, c0, c1)
        scaled = (math.ldexp(c0, power), math.ldexp(c1, power))
        assert sample_size_for_confidence(100, 100, 0.1, *scaled) == expected


def least_variance(points: np.ndarray, y: np.ndarray) -> float:
    """The least variance of a probability measure on the points with mean ``y``, by the
    linear program over the weights: its basic solutions are supported on affinely
    independent subsets of at most q + 1 points, so enumerating supports solves it."""
    rhs, best = np.append(y, 1.0), math.inf
    for size in range(1, points.shape[1] + 2):
        for subset in itertools.combinations(points, size):
            support = np.array(subset)
            basis = np.vstack([support.T, np.ones(size)])
            weights, *_ = np.linalg.lstsq(basis, rhs, rcond=None)
            if weights.min() >= -1e-12 and np.abs(basis @ weights - rhs).max() <= 1e-9:
                best = min(best, float(weights @ ((support - y) ** 2).sum(axis=1)))
    return best


def circumcentres(points: np.ndarray):
    """The circumcentre of each affinely independent subset of 2 to q + 1 points, within the
    subset's affine hull, where it lies in the subset's hull."""
    for size in range(2, points.shape[1] + 2):
        for subset in itertools.combinations(points, size):
            edges = np.array(subset[1:]) - subset[0]
            if np.linalg.matrix_rank(edges) == size - 1:
                coef = np.linalg.solve(2.0 * edges @ edges.T, (edges**2).sum(axis=1))
                if coef.min() >= 0 and coef.sum() <= 1:
                    yield subset[0] + coef @ edges


# Point sets of 1 to 6 points on a small lattice in 1 to 3 dimensions, with repeats,
# collinear and cocircular points; over 3 so that their coordinates round.
LATTICE_SETS = st.integers(1, 3).flatmap(lambda q: st.lists(
    st.lists(st.integers(-4, 4), min_size=q, max_size=q), min_size=1, max_size=6,
).map(lambda rows: np.array(rows, dtype=float) / 3.0))


class TestNonconvexityMeasure:
    def test_two_point_set_is_half_exactly(self):
        assert nonconvexity_measure([[0.0], [1.0]]) == 0.5

    def test_a_repeated_point_changes_nothing(self):
        # The pair {0, 0} has a zero Gram determinant: it is no cell.
        assert nonconvexity_measure([[0.0], [0.0], [1.0]]) == 0.5

    @pytest.mark.parametrize("resolution", [0.5, 0.05])
    def test_a_tilted_triangle_reads_its_circumradius(self, resolution):
        # The hull is an acute plane triangle in 3-D: the measure is its circumradius.
        a, b, c = np.array([[0.0, 0.0, 0.0], [1.0, 0.3, 0.7], [0.4, 1.0, 0.1]])
        area = np.linalg.norm(np.cross(b - a, c - a)) / 2
        sides = np.linalg.norm(b - c) * np.linalg.norm(a - c) * np.linalg.norm(a - b)
        value = nonconvexity_measure([a, b, c], resolution=resolution)
        assert value == pytest.approx(sides / (4 * area), rel=1e-14)

    @pytest.mark.parametrize("points, expected", [
        ([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]], 1 / math.sqrt(3)),
        ([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], math.sqrt(3)),
        ([[i, j] for i in range(4) for j in range(4)], 1 / math.sqrt(2)),
    ], ids=["equilateral-triangle", "regular-tetrahedron", "4x4-lattice"])
    def test_closed_forms(self, points, expected):
        # The circumradius of a regular simplex; half the diagonal of a lattice square.
        assert nonconvexity_measure(points) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("points, expected", [
        ([[0.0], [1e-12]], 5e-13),
        ([[0.0, 0.0], [1.0, 0.0]], 0.5),
    ], ids=["tiny-pair", "flat-pair-in-2-d"])
    def test_exact_values(self, points, expected):
        assert nonconvexity_measure(points) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6, allow_subnormal=False), min_size=1, max_size=64))
    def test_in_one_dimension_it_is_half_the_largest_gap(self, values):
        gaps = np.diff(np.sort(values))
        expected = gaps.max() / 2 if gaps.size else 0.0
        value = nonconvexity_measure(np.array(values)[:, None])
        assert value == pytest.approx(expected, rel=1e-14)

    @settings(max_examples=200, deadline=None)
    @given(LATTICE_SETS, st.integers(-40, 40))
    def test_scales_exactly_by_powers_of_two(self, points, k):
        scaled = nonconvexity_measure(np.ldexp(points, k))
        assert scaled == math.ldexp(nonconvexity_measure(points), k)

    @settings(max_examples=60, deadline=None)
    @given(LATTICE_SETS, st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6))
    def test_squared_it_is_the_largest_least_variance(self, points, mix):
        # The largest least variance is at a circumcentre: the oracle's maximum over them
        # is the squared measure, and no convex combination of the points exceeds it.
        rho2 = nonconvexity_measure(points) ** 2
        weights = np.array(mix[:len(points)]) + 1e-3
        y = weights @ points / weights.sum()
        assert least_variance(points, y) <= rho2 * (1 + 1e-12) + 1e-15
        top = max((least_variance(points, c) for c in circumcentres(points)), default=0.0)
        assert rho2 == pytest.approx(top, rel=1e-9, abs=1e-15)

    def test_the_largest_inputs_complete_in_small_memory(self):
        # 64 points in 3-D have 635,376 subsets to try; in 2-D 41,664, whose offsets to the
        # points would take 43 MB at once.  Blocks of subsets keep the peak far below.
        points = np.random.default_rng(0).normal(size=(64, 3))
        value = nonconvexity_measure(points)
        assert 0 < value < np.linalg.norm(points - points.mean(axis=0), axis=1).max()
        tracemalloc.start()
        try:
            nonconvexity_measure(points[:, :2])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6

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

    @pytest.mark.parametrize("points, resolution, message", [
        (np.zeros((2, 2, 2)), 0.01, r"points must form a \(P, q\) array"),
        ([[0.0], [math.nan]], 0.01, "points must be finite"),
        ([[0.0], [1.0]], 0, r"resolution must lie in \(0, 1\], got 0"),
        ([], 0.01, r"points must be nonempty, got shape \(1, 0\)"),
        ([[]], 0.01, r"points must be nonempty, got shape \(1, 0\)"),
        (np.zeros((0, 2)), 0.01, r"points must be nonempty, got shape \(0, 2\)"),
    ], ids=["3-d", "nan-point", "zero-resolution", "empty-list", "empty-row", "no-points"])
    def test_rejects_malformed_inputs(self, points, resolution, message):
        with pytest.raises(ValueError, match=message):
            nonconvexity_measure(points, resolution=resolution)
