import copy
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import aggfw
from aggfw import rng as _rng
from aggfw.bounds import compute_constants, gap_bound_basic
from aggfw.measures import relaxed_objective, sample_profile
from aggfw.miqp import ReferenceSolverError, reference_relaxed_optimum
from aggfw.problems import Aggregate, DecisionProfile, objective


def enumerate_box_optimum(instance):
    """Independent oracle: enumerate bound patterns and refit each face exactly."""
    n = instance.n_agents
    best = np.inf
    for pattern in itertools.product((0.0, 1.0, None), repeat=n):
        free = [i for i, p in enumerate(pattern) if p is None]
        x = np.array([p if p is not None else 0.0 for p in pattern])
        if free:
            rhs = instance.target - instance.matrix @ x
            sol, *_ = np.linalg.lstsq(instance.matrix[:, free], rhs, rcond=None)
            if (sol < -1e-12).any() or (sol > 1 + 1e-12).any():
                continue
            x[free] = np.clip(sol, 0.0, 1.0)
        best = min(best, instance.box_objective(x))
    return best


GOLDEN = Path(__file__).parent / "golden"


# Entries of both signs, 0, 1 and -1 drawn often; zero columns come with them.
ENTRIES = st.sampled_from([0.0, 1.0, -1.0]) | st.floats(-10.0, 10.0, allow_subnormal=False)
# The same without magnitudes below 1e-3: scaled by 2^-60, no product falls to the subnormal
# range, where rounding does not scale.
SCALABLE = st.sampled_from([0.0, 1.0, -1.0]) | st.floats(1e-3, 10.0) | st.floats(-10.0, -1e-3)


@st.composite
def small_instances(draw, entries=ENTRIES):
    """An instance with M <= 4 and N <= 8; the target's entries are N times larger."""
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 8))
    matrix = draw(hnp.arrays(float, (m, n), elements=entries))
    target = draw(hnp.arrays(float, m, elements=entries.map(lambda v: v * n)))
    return aggfw.MiqpInstance(matrix, target)


class TestGenerate:
    def test_fixed_seed_reproduces_instance(self):
        a = aggfw.generate(6, 9, seed=123)
        b = aggfw.generate(6, 9, seed=123)
        np.testing.assert_array_equal(a.matrix, b.matrix)
        np.testing.assert_array_equal(a.target, b.target)

    def test_entries_match_uniform_law(self):
        inst = aggfw.generate(100, 100, seed=41)
        assert 0.47 <= inst.matrix.mean() <= 0.53  # 3 sigma for 1e4 U[0,1] draws
        assert inst.matrix.min() >= 0.0 and inst.matrix.max() <= 1.0
        assert inst.target.min() >= 0.0 and inst.target.max() <= 50.0

    def test_paper_scale_constants(self):
        # E[A^2] = 1/3 makes C1 concentrate near 2M/3, the order of the
        # benchmark's stated "about M"; the gap certificate C1/(2N) then
        # sits near 1/3.
        constants = compute_constants(aggfw.generate(100, 100, seed=0))
        assert 0.60 * 100 <= constants.c1 <= 0.74 * 100
        assert 0.25 <= gap_bound_basic(constants) <= 0.45

    def test_rejects_empty_dimensions(self):
        with pytest.raises(ValueError):
            aggfw.generate(0, 5, seed=0)

    @pytest.mark.parametrize("matrix, target, message", [
        (np.ones(3), np.ones(3), r"matrix must be \(M, N\) with a length-M target"),
        (np.ones((2, 3)), np.array([1.0, np.nan]), "instance data must be finite"),
        (np.zeros((0, 3)), np.zeros(0), r"matrix must be \(M, N\) with a length-M target"),
        (np.zeros((2, 0)), np.zeros(2), r"matrix must be \(M, N\) with a length-M target"),
    ], ids=["1-d-matrix", "nan-target", "no-blocks", "no-agents"])
    def test_constructor_rejects_malformed_data(self, matrix, target, message):
        with pytest.raises(ValueError, match=message):
            aggfw.MiqpInstance(matrix, target)


class TestMatrixLayout:
    """The instance owns a copy of its matrix on a 64-byte boundary, in the input's C or F
    order.  A matrix off that boundary gives every bit the same, only more slowly."""

    @staticmethod
    def at_offset(matrix, offset, order):
        buffer = np.empty(matrix.nbytes + 128, dtype=np.uint8)
        start = -buffer.ctypes.data % 64 + offset
        out = buffer[start : start + matrix.nbytes].view(float).reshape(matrix.shape, order=order)
        out[...] = matrix
        assert out.ctypes.data % 64 == offset % 64
        return out

    @staticmethod
    def results(instance):
        profile, records = aggfw.fw_run(instance, 40, rule=aggfw.LineSearchFwStep())
        return (instance.relaxed_optimum(tol=1e-9).value.hex(),
                [(r.objective.hex(), r.beta.hex(), r.omega.hex()) for r in records],
                profile.weights.tobytes())

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_the_instance_copies_its_matrix_to_a_64_byte_boundary(self, order):
        base = aggfw.generate(20, 60, seed=3)
        for offset in (8, 16, 64):
            matrix = self.at_offset(base.matrix, offset, order)
            instance = aggfw.MiqpInstance(matrix, base.target)
            assert instance.matrix.ctypes.data % 64 == 0
            assert instance.matrix.flags[f"{order}_CONTIGUOUS"]
            assert not np.shares_memory(instance.matrix, matrix)
            assert instance.matrix.tobytes(order="A") == matrix.tobytes(order="A")

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_a_matrix_off_the_boundary_gives_the_same_bits(self, order):
        # The reference value and an fw_run trajectory, with the instance's matrix swapped
        # for copies at offsets 8, 16 and 64 from a 64-byte boundary.
        base = aggfw.generate(100, 400, seed=3)
        aligned = aggfw.MiqpInstance(self.at_offset(base.matrix, 0, order), base.target)
        expected = self.results(aligned)
        for offset in (8, 16, 64):
            instance = copy.copy(aligned)
            instance.matrix = self.at_offset(base.matrix, offset, order)
            assert self.results(instance) == expected


class TestBestResponse:
    def test_positive_gradient_prefers_zero(self, miqp_small):
        grad = Aggregate(np.ones(3), miqp_small.block_dims)
        assert [miqp_small.best_response(i, grad) for i in range(10)] == [0] * 10

    def test_negative_gradient_prefers_one(self, miqp_small):
        grad = Aggregate(-np.ones(3), miqp_small.block_dims)
        assert [miqp_small.best_response(i, grad) for i in range(10)] == [1] * 10

    def test_matches_two_point_enumeration(self, miqp_small):
        gen = np.random.default_rng(17)
        for _ in range(50):
            grad = Aggregate(gen.normal(size=3), miqp_small.block_dims)
            for i in range(10):
                scores = {
                    d: float(grad.values @ miqp_small.contribution(i, d).values) for d in (0, 1)
                }
                picked = miqp_small.best_response(i, grad)
                assert scores[picked] <= min(scores.values())
                if scores[0] == scores[1]:
                    assert picked == 0

    def test_vectorized_equals_per_agent(self, miqp_small):
        grad = Aggregate(np.array([0.4, -1.2, 0.1]), miqp_small.block_dims)
        assert miqp_small.best_response_all(grad) == [
            miqp_small.best_response(i, grad) for i in range(10)
        ]


class TestReferenceSolver:
    def test_zero_target_has_zero_optimum(self):
        inst = aggfw.MiqpInstance(aggfw.generate(3, 6, seed=2).matrix, np.zeros(3))
        ref = inst.relaxed_optimum(tol=1e-10)
        assert ref.value == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(ref.point, np.zeros(6), atol=1e-6)

    def test_attainable_interior_target(self):
        base = aggfw.generate(3, 6, seed=3)
        x0 = np.full(6, 0.4)
        inst = aggfw.MiqpInstance(base.matrix, base.matrix @ x0)
        ref = inst.relaxed_optimum(tol=1e-10)
        assert ref.value == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("seed", [3, 4, 6])
    def test_desk_scale_matches_face_enumeration(self, seed):
        inst = aggfw.generate(3, 8, seed=seed)
        ref = inst.relaxed_optimum(tol=1e-10)
        assert ref.value == pytest.approx(enumerate_box_optimum(inst), abs=1e-9)
        assert ref.residual <= 1e-10

    def test_returns_the_optimal_aggregate(self, miqp_small, miqp_small_reference):
        expected = miqp_small.matrix @ miqp_small_reference.point / 10
        np.testing.assert_allclose(miqp_small_reference.y.values, expected, atol=1e-14)

    @pytest.mark.parametrize("tol", [0.0, -1e-9, np.nan])
    def test_rejects_a_tolerance_that_is_not_positive(self, miqp_small, tol):
        # max_iters keeps a run that skips the check short
        with pytest.raises(ValueError, match="tolerance must be positive"):
            reference_relaxed_optimum(miqp_small, tol=tol, max_iters=10)

    def test_pivot_cap_reports_residual(self, miqp_small):
        # This instance needs two pivots after the 32 warm steps; one is too few.
        assert reference_relaxed_optimum(miqp_small, max_iters=2).iterations == 32 + 2
        with pytest.raises(ReferenceSolverError, match="after 1 of 1 pivots") as info:
            reference_relaxed_optimum(miqp_small, max_iters=1)
        assert info.value.residual > 1e-9

    def test_a_point_above_tol_reports_its_residual(self):
        instance = aggfw.generate(12, 6, seed=1)
        residual = instance.relaxed_optimum(tol=1e-9).residual
        assert 0.0 < residual < 1e-15  # rounding in the gradient of a free variable
        message = f"stopped at residual {residual:.3e}"
        with pytest.raises(ReferenceSolverError, match=message) as info:
            reference_relaxed_optimum(instance, tol=residual / 2)
        assert info.value.residual == residual

    @pytest.mark.parametrize("instance, tol, value", [
        ((100, 1000, 0), 1e-7, "0x1.ab1ac26245569p+0"),  # fw-select's instance
        ((100, 100, 0), 1e-7, "0x1.0c2f860aeb4b9p+1"),  # the paper's size
        ("tiny", 1e-9, "0x1.d66a9cd56f459p-8"),  # the CLI goldens' instance
    ], ids=["100x1000", "100x100", "tiny"])
    def test_value_bits(self, instance, tol, value):
        # The values the accelerated loop and its face polish returned before the pivots
        # replaced them, under OpenBLAS's SkylakeX kernel as the other bit pins are.
        problem = (aggfw.load_instance(str(GOLDEN / "tiny.json")) if instance == "tiny"
                   else aggfw.generate(*instance))
        assert problem.relaxed_optimum(tol=tol).value.hex() == value

    @staticmethod
    def scaled(instance, k):
        return aggfw.MiqpInstance(np.ldexp(instance.matrix, k), np.ldexp(instance.target, k))

    @staticmethod
    def scaled_solve(instance, k):
        # A free variable's residual is its gradient, which scales by 4^k, so tol does too;
        # below k = 0 the residual is x's rounding, which does not scale.
        return instance.relaxed_optimum(tol=1e-7 * max(1.0, 4.0**k))

    def test_scaling_by_a_power_of_two_keeps_every_bit(self):
        base = aggfw.generate(20, 60, seed=0)
        expected = base.relaxed_optimum(tol=1e-7)
        for k in range(-160, 161, 20):
            ref = self.scaled_solve(self.scaled(base, k), k)
            assert np.ldexp(ref.value, -2 * k).hex() == expected.value.hex()
            assert ref.point.tobytes() == expected.point.tobytes()
            assert ref.iterations == expected.iterations

    @settings(max_examples=40, deadline=None)
    @given(small_instances(SCALABLE), st.integers(-60, 60))
    def test_scaling_small_instances_keeps_every_bit(self, instance, k):
        expected = instance.relaxed_optimum(tol=1e-7)
        ref = self.scaled_solve(self.scaled(instance, k), k)
        assert np.ldexp(ref.value, -2 * k).hex() == expected.value.hex()
        assert ref.point.tobytes() == expected.point.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(small_instances())
    def test_small_instances_match_face_enumeration_and_kkt(self, instance):
        ref = reference_relaxed_optimum(instance, tol=1e-7, max_iters=100)
        a, target, n = instance.matrix, instance.target, instance.n_agents
        scale = (np.linalg.norm(np.abs(a).sum(axis=1)) + np.linalg.norm(target)) ** 2 / n**2
        assert ref.value == pytest.approx(enumerate_box_optimum(instance), rel=1e-9,
                                          abs=1e-12 * scale)
        x, grad, slack = ref.point, instance.box_gradient(ref.point), 1e-9 * scale
        assert ((x >= 0.0) & (x <= 1.0)).all()
        assert (grad[x == 0.0] >= -slack).all()  # a variable at 0 is not pulled up
        assert (grad[x == 1.0] <= slack).all()  # nor one at 1 pulled down
        assert (np.abs(grad[(x > 0.0) & (x < 1.0)]) <= slack).all()  # a free one is stationary


class TestSerialization:
    def test_dict_round_trip(self, miqp_small):
        clone = aggfw.MiqpInstance.from_dict(miqp_small.to_dict())
        np.testing.assert_array_equal(clone.matrix, miqp_small.matrix)
        np.testing.assert_array_equal(clone.target, miqp_small.target)
        assert clone.seed == miqp_small.seed

    def test_file_round_trip(self, tmp_path, miqp_small):
        path = tmp_path / "instance.json"
        aggfw.save_instance(miqp_small, str(path))
        clone = aggfw.load_instance(str(path))
        np.testing.assert_array_equal(clone.matrix, miqp_small.matrix)
        payload = json.loads(path.read_text())
        assert set(payload) == {"M", "N", "seed", "A", "ybar"}


    @pytest.mark.parametrize("m, n, name", [(2.9, 3.5, "M"), (2, 3.5, "N"), (2.0, 3, "M"),
                                            (True, 6, "M"), ("2", 3, "M"), (6, 0, "N")])
    def test_dimensions_must_be_counts(self, tmp_path, m, n, name):
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({"M": m, "N": n, "seed": 0, "A": [0.5] * 6, "ybar": [1.0] * 2}))
        with pytest.raises(ValueError, match=f"{name} must be an integer of at least 1"):
            aggfw.load_instance(str(path))


class TestLinearStructure:
    def test_relaxed_objective_equals_box_objective(self, miqp_small):
        gen = np.random.default_rng(5)
        for _ in range(5):
            point = gen.random(10)
            mu = aggfw.bernoulli_profile(miqp_small, point)
            assert relaxed_objective(miqp_small, mu) == pytest.approx(
                miqp_small.box_objective(point), abs=1e-10
            )

    def test_relaxed_value_lower_bounds_sampled_objectives(
        self, miqp_small, miqp_small_reference
    ):
        mu = aggfw.bernoulli_profile(miqp_small, np.full(10, 0.5))
        gen = _rng.stream(1, _rng.SELECTION)
        for _ in range(200):
            x = sample_profile(mu, gen)
            value = objective(miqp_small, x)
            assert value >= 0.0
            assert miqp_small_reference.value <= value + 1e-12


class TestBalancedSigns:
    def test_universe_and_validation(self):
        inst = aggfw.BalancedSignsInstance(4)
        assert inst.decision_universe(2) == (-1, 1)
        assert inst.validate_decision(0, -1) and not inst.validate_decision(0, 0)

    def test_relaxed_optimum_closed_form(self):
        ref = aggfw.BalancedSignsInstance(8).relaxed_optimum()
        assert ref.value == -1.0
        np.testing.assert_array_equal(ref.y.values, [1.0, 0.0])

    def test_bernoulli_profile_rejects_points_outside_box(self, miqp_small):
        with pytest.raises(ValueError):
            aggfw.bernoulli_profile(miqp_small, np.full(10, 1.2))

    def test_bernoulli_profile_rejects_nan_points(self, miqp_small):
        point = np.full(10, 0.5)
        point[1] = np.nan
        with pytest.raises(ValueError, match=r"\[0, 1\]\^N"):
            aggfw.bernoulli_profile(miqp_small, point)

    def test_best_response_matches_contribution_scores(self):
        # The closed-form decision equals scoring both contributions,
        # ties (g1 = 0, including -0.0) going to -1.
        inst = aggfw.BalancedSignsInstance(3)
        gen = np.random.default_rng(0)
        grads = [(-1.0, g1) for g1 in (0.0, -0.0, 1e-300, -1e-300, 2.0, -2.0)]
        grads += [tuple(g) for g in gen.normal(size=(200, 2)) * 10.0 ** gen.integers(-8, 8, (200, 1))]
        for g in grads:
            grad = aggfw.Aggregate(np.array(g), (1, 1))
            scores = [float(grad.values @ inst.contribution(0, d).values) for d in (-1, 1)]
            assert inst.best_response(0, grad) == (-1 if scores[0] <= scores[1] else 1)
