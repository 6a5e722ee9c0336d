import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import aggfw
from aggfw.bounds import compute_constants
from aggfw.frank_wolfe import dual_gap_beta, quadratic_curvature
from aggfw.problems import (
    Aggregate,
    DecisionProfile,
    ProblemInstance,
    _HeldRows,
    aggregate_of,
    linearized_best_response,
    objective,
    profile_rows,
    rows_objective,
    sequential_sum,
    zero_gradient_profile,
)

from aggfw import rng as _rng
from aggfw.stochastic_fw import _apply_switches, _linearize, _Run, sfw_step

from conftest import INSTANCES, CountingInstance, TableInstance


def with_decision(profile, i, decision):
    """``profile`` with agent ``i`` at ``decision``."""
    decisions = list(profile.decisions)
    decisions[i] = decision
    return DecisionProfile(decisions)


class TestAggregate:
    def test_rejects_non_finite_and_names_block(self):
        with pytest.raises(ValueError, match="block 1"):
            Aggregate(np.array([0.0, np.nan, 1.0]))

    def test_rejects_mismatched_block_dims(self):
        with pytest.raises(ValueError):
            Aggregate(np.array([1.0, 2.0, 3.0]), block_dims=(2, 2))

    def test_rejects_a_2d_array(self):
        with pytest.raises(ValueError, match="aggregate values must form a 1-D vector"):
            Aggregate(np.ones((2, 2)))

    @pytest.mark.parametrize("dims", [(2.7, 1.2), (2.0, 1), (True, 2), (np.True_, 2), (0, 3),
                                      (-1, 4), (3, 0), ("2", 1)])
    def test_rejects_block_dims_that_are_not_counts(self, dims):
        with pytest.raises(ValueError, match="block dimension must be an integer of at least 1"):
            Aggregate(np.zeros(3), dims)

    def test_a_checked_layout_does_not_admit_equal_non_integers(self):
        Aggregate(np.zeros(3), (1, 2))  # (1, 2) is now a known layout
        for dims in [(True, 2), (1.0, 2), (np.True_, 2)]:
            with pytest.raises(ValueError, match="block dimension"):
                Aggregate(np.zeros(3), dims)

    @pytest.mark.parametrize("dims", [(np.int64(2), np.int32(1)), [2, 1], np.array([2, 1])])
    def test_accepts_numpy_integer_and_list_block_dims(self, dims):
        y = Aggregate(np.zeros(3), dims)
        assert y.block_dims == (2, 1)
        assert all(type(d) is int for d in y.block_dims)

    def test_block_views_and_curvature(self):
        y = Aggregate(np.array([1.0, 2.0, 3.0, -1.0]), block_dims=(2, 1, 1))
        ends = np.cumsum(y.block_dims)
        np.testing.assert_array_equal(y.values[:ends[0]], [1.0, 2.0])
        np.testing.assert_array_equal(y.values[ends[1]:ends[2]], [-1.0])
        # Block squared norms of ybar - y are (5, 9, 1).
        problem = SimpleNamespace(lipschitz_grad=np.array([1.0, 10.0, 100.0]))
        zero = Aggregate(np.zeros(4), y.block_dims)
        assert quadratic_curvature(problem, zero, y) == 5.0 + 90.0 + 100.0

    def test_gap_and_curvature_reject_an_overflowing_difference(self):
        y, ybar = Aggregate(np.array([1.0, 1e308])), Aggregate(np.array([1.0, -1e308]))
        problem = SimpleNamespace(lipschitz_grad=np.ones(2))
        grad = Aggregate(np.ones(2))
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="non-finite entry in aggregate block 1"):
                dual_gap_beta(problem, y, ybar, grad=grad)
            with pytest.raises(ValueError, match="non-finite entry in aggregate block 1"):
                quadratic_curvature(problem, y, ybar)


class BareInstance(ProblemInstance):
    """One agent and only the abstract members, so every optional hook keeps its default."""

    n_agents, block_dims = 1, (1,)
    lipschitz_f = lipschitz_grad = np.ones(1)
    diameters = np.ones((1, 1))

    def contribution(self, i, decision):
        return Aggregate([float(decision)])

    def f_block_values(self, y):
        return y.values**2

    def f_grad(self, y):
        return Aggregate(2.0 * y.values)

    def best_response(self, i, grad):
        return 0


class TestProblemInstanceDefaults:
    def test_every_decision_validates(self):
        assert BareInstance().validate_decision(0, "any token") is True

    def test_no_decision_universe(self):
        with pytest.raises(NotImplementedError, match="BareInstance has no enumerable decision"):
            BareInstance().decision_universe(0)

    def test_no_reference_relaxed_solver(self):
        with pytest.raises(NotImplementedError, match="BareInstance has no reference relaxed"):
            BareInstance().relaxed_optimum()


class TestAggregateOf:
    def test_single_agent_identity(self):
        # With N=1 the average reduces to the lone contribution.
        inst = aggfw.MiqpInstance(np.array([[2.0], [3.0]]), np.array([0.0, 0.0]))
        x = DecisionProfile((1,))
        np.testing.assert_array_equal(
            aggregate_of(inst, x).values, inst.contribution(0, 1).values
        )

    def test_all_zero_decisions_give_zero_aggregate(self, miqp_small):
        x = DecisionProfile((0,) * miqp_small.n_agents)
        np.testing.assert_array_equal(
            aggregate_of(miqp_small, x).values, np.zeros(miqp_small.n_blocks)
        )

    def test_matches_direct_matrix_average(self):
        # Oracle: the aggregate is the plain column average (1/4) A x.
        inst = aggfw.generate(2, 4, seed=9)
        x = DecisionProfile((1, 0, 1, 1))
        expected = inst.matrix @ np.array([1.0, 0.0, 1.0, 1.0]) / 4.0
        np.testing.assert_allclose(aggregate_of(inst, x).values, expected, atol=1e-15)

    def test_invalid_token_names_agent(self, miqp_small):
        bad = DecisionProfile((0,) * 2 + (7,) + (0,) * 7)
        with pytest.raises(ValueError, match="agent 2"):
            aggregate_of(miqp_small, bad)

    def test_affine_in_single_agent_swap(self, miqp_small):
        n = miqp_small.n_agents
        x = DecisionProfile((0, 1) * (n // 2))
        swapped = with_decision(x, 3, 1 - x[3])
        diff = aggregate_of(miqp_small, swapped).values - aggregate_of(miqp_small, x).values
        expected = (
            miqp_small.contribution(3, swapped[3]).values
            - miqp_small.contribution(3, x[3]).values
        ) / n
        np.testing.assert_allclose(diff, expected, atol=1e-15)


class TestObjective:
    def test_balanced_signs_optimal_profile(self):
        inst = aggfw.BalancedSignsInstance(4)
        assert objective(inst, DecisionProfile((1, 1, -1, -1))) == pytest.approx(-1.0, abs=1e-15)

    def test_balanced_signs_all_ones(self):
        inst = aggfw.BalancedSignsInstance(4)
        # mean of squares = 1 and mean = 1, so J = -1 + 1 = 0.
        assert objective(inst, DecisionProfile((1, 1, 1, 1))) == pytest.approx(0.0, abs=1e-15)

    def test_matches_quadratic_formula(self):
        inst = aggfw.generate(3, 6, seed=13)
        x = np.array([1, 1, 0, 1, 0, 0])
        expected = float(np.sum((inst.matrix @ x - inst.target) ** 2)) / 36.0
        got = objective(inst, DecisionProfile(tuple(int(v) for v in x)))
        assert got == pytest.approx(expected, rel=1e-12)


class TestLinearizedBestResponse:
    def test_zero_gradient_ties_pick_canonical_decision(self, miqp_small):
        # At y = target/N the gradient vanishes and every agent ties; the
        # tie-break picks decision 0, so the best-response aggregate is 0.
        y = Aggregate(miqp_small.target / miqp_small.n_agents, miqp_small.block_dims)
        profile, ybar = linearized_best_response(miqp_small, y)
        assert profile.decisions == (0,) * miqp_small.n_agents
        np.testing.assert_array_equal(ybar.values, np.zeros(miqp_small.n_blocks))

    def test_positive_gradient_gives_all_zeros(self, miqp_small):
        # Entries of A are nonnegative, so a positive gradient makes
        # decision 1 strictly worse for every agent with a nonzero column.
        y = Aggregate(
            miqp_small.target / miqp_small.n_agents + 1.0, miqp_small.block_dims
        )
        profile, _ = linearized_best_response(miqp_small, y)
        assert profile.decisions == (0,) * miqp_small.n_agents

    def test_balanced_signs_matches_two_point_enumeration(self):
        inst = aggfw.BalancedSignsInstance(6)
        y = Aggregate(np.array([0.5, 0.0]), (1, 1))
        profile, _ = linearized_best_response(inst, y)
        grad = inst.f_grad(y)
        for i, decision in enumerate(profile.decisions):
            scores = {d: float(grad.values @ inst.contribution(i, d).values) for d in (-1, 1)}
            assert scores[decision] == min(scores.values())
        # grad = (-1, 0): both decisions score -1, the tie goes to -1.
        assert profile.decisions == (-1,) * 6

    def test_step_one_optimality_exhaustive(self, table_instance):
        import itertools

        y = Aggregate(np.array([0.1, -0.4]), table_instance.block_dims)
        grad = table_instance.f_grad(y)
        xbar, ybar = linearized_best_response(table_instance, y)
        best = float(grad.values @ ybar.values)
        universes = [table_instance.decision_universe(i) for i in range(4)]
        for decisions in itertools.product(*universes):
            other = aggregate_of(table_instance, DecisionProfile(decisions))
            other = float(grad.values @ other.values)
            assert best <= other + 1e-12


class TestBoundedDifferences:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_single_swap_bounded_by_c0_over_n(self, seed):
        inst = aggfw.generate(4, 8, seed=seed)
        constants = compute_constants(inst)
        rng = np.random.default_rng(seed)
        x = DecisionProfile(tuple(int(v) for v in rng.integers(0, 2, size=8)))
        base = objective(inst, x)
        for i in range(8):
            flipped = objective(inst, with_decision(x, i, 1 - x[i]))
            assert abs(flipped - base) <= constants.c0 / 8 + 1e-12

    def test_balanced_signs_swap_bound(self):
        inst = aggfw.BalancedSignsInstance(6)
        constants = compute_constants(inst)
        x = DecisionProfile((1, -1, 1, 1, -1, -1))
        base = objective(inst, x)
        for i in range(6):
            flipped = objective(inst, with_decision(x, i, -x[i]))
            assert abs(flipped - base) <= constants.c0 / 6 + 1e-12


def near_tie_gradient(problem, agent, data):
    """A gradient whose MIQP score for ``agent`` is a rounding error away from 0, so that
    a score summed in any other order (another product shape) can flip its sign."""
    values = data.draw(hnp.arrays(float, problem.total_dim, elements=st.floats(-10, 10)))
    column = problem.matrix[:, agent]
    return values - (values @ column) / (column @ column) * column


class TestBestResponseAll:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(INSTANCES)), st.integers(0, 999),
           st.sampled_from(["random", "zero", "near-tie"]), st.booleans(), st.data())
    def test_agents_in_order_equal_the_per_agent_solve(self, name, seed, kind, as_array, data):
        problem = INSTANCES[name](seed)
        miqp = isinstance(problem, aggfw.MiqpInstance)
        n, q = problem.n_agents, problem.total_dim
        agents = data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))  # unsorted, repeats
        if kind == "zero":
            values = np.zeros(q)
        elif kind == "near-tie" and miqp:
            tied = data.draw(st.integers(0, n - 1))
            agents.insert(data.draw(st.integers(0, len(agents))), tied)
            values = near_tie_gradient(problem, tied, data)
        else:
            values = data.draw(hnp.arrays(float, q, elements=st.floats(-10, 10)))
        grad = Aggregate(values, problem.block_dims)
        asked = np.array(agents, dtype=np.intp) if as_array else agents
        got = problem.best_response_all(grad, asked)
        if miqp:  # one product over all N columns, then the asked entries
            full = problem.best_response_all(grad)
            expected = [full[i] for i in agents]
            assert [problem.best_response(i, grad) for i in agents] == expected
        else:
            expected = [problem.best_response(i, grad) for i in agents]
        assert got == expected
        assert [type(d) for d in got] == [type(d) for d in expected]
        if kind == "zero" and miqp:
            assert got == [0] * len(agents)

    def test_none_asks_every_agent_and_empty_asks_none(self, miqp_small, table_instance):
        for problem in (miqp_small, table_instance, aggfw.BalancedSignsInstance(4)):
            grad = Aggregate(np.linspace(-1, 1, problem.total_dim), problem.block_dims)
            assert problem.best_response_all(grad, []) == []
            assert problem.best_response_all(grad) == problem.best_response_all(
                grad, range(problem.n_agents)
            )


class FailsForTwo(TableInstance):
    """A table instance whose oracle raises for agent 2."""

    def __init__(self):
        super().__init__([[[0.0], [1.0]]] * 4, target=[0.5])

    def best_response(self, i, grad):
        if i == 2:
            raise ArithmeticError("no answer")
        return super().best_response(i, grad)


class TestHeldResponses:
    """``_linearize`` keeps the iterate's linearization in its ``_Run`` until the iterate
    moves, and asks the oracle, in the order given, only for the agents not yet solved at
    the run's iterate."""

    def linearize(self, problem, profile, n_max=0):
        """A counting wrapper of ``problem``, a run at ``profile`` and ``_linearize`` on it."""
        counting = CountingInstance(problem)
        run = _Run(counting, profile, n_max)
        return counting, run, lambda agents=None: _linearize(counting, run, agents)

    def test_the_same_iterate_makes_no_new_call(self, miqp_small):
        profile = DecisionProfile((0, 1) * 5)
        counting, run, linearize = self.linearize(miqp_small, profile)
        first = linearize()
        assert linearize(np.arange(10)[::-1]) is first and linearize() is first
        assert run.lin is first and first.beta >= 0.0  # the held linearization, gaps and all
        assert len(counting.asked) == 1 and counting.calls == 10 and counting.grads == 1
        assert list(first.tokens) == miqp_small.best_response_all(first.grad)

    def test_a_step_that_moves_re_asks_at_the_new_iterate(self, miqp_small):
        profile = DecisionProfile((0, 1) * 5)
        counting, run, linearize = self.linearize(miqp_small, profile)
        first = linearize()
        assert not _apply_switches(run, ~first.moved)  # no token changes: the iterate stays
        assert run.profile is profile and run.lin is first
        assert _apply_switches(run, first.moved) and run.lin is None
        got = linearize(np.array([7, 2, 5]))
        assert run.profile is not profile and got is run.lin and got is not first
        assert counting.grads == 2
        assert counting.asked[-1] == (2, got.grad.values.tobytes(), [7, 2, 5])
        assert list(got.tokens[[7, 2, 5]]) == miqp_small.best_response_all(got.grad, [7, 2, 5])

    def test_a_partial_request_gets_no_gap(self, miqp_small):
        # The gap belongs to a step that asks every agent, also once an earlier one made it.
        # At this iterate the all-active step (omega = 1) is rejected, so the iterate stays.
        profile = DecisionProfile((1, 1, 1, 0, 0, 0, 0, 0, 0, 1))
        counting, run, _ = self.linearize(miqp_small, profile, n_max=2)
        _, full = sfw_step(counting, profile, 0, 1.0, 1, _rng.stream(0), run=run)
        assert not full.accepted and full.active_count == 10 and full.beta > 0.0
        _, part = sfw_step(counting, profile, 1, 0.1, 2, _rng.stream(30), run=run)
        assert not part.accepted and part.active_count == 4 and math.isnan(part.beta)
        _, again = sfw_step(counting, profile, 2, 1.0, 1, _rng.stream(0), run=run)
        assert repr(again.beta) == repr(full.beta) and run.profile is profile
        assert len(counting.asked) == 1 and counting.grads == 1

    def test_unsorted_repeated_and_empty_agent_lists(self, table_instance):
        profile = DecisionProfile((0, 0, 0, 0))
        counting, _, linearize = self.linearize(table_instance, profile)
        grad = table_instance.f_grad(aggregate_of(table_instance, profile))
        expected = [table_instance.best_response(i, grad) for i in range(4)]
        lin = linearize(np.array([3, 1, 3, 0]))
        assert list(lin.tokens[[3, 1, 3, 0]]) == [
            expected[3], expected[1], expected[3], expected[0]
        ]
        assert lin.ybar is None and math.isnan(lin.beta)  # four entries, but agent 2 unasked
        assert list(linearize(np.array([], dtype=np.intp)).solved) == [1, 1, 0, 1]
        lin = linearize(np.array([2, 1, 2]))
        assert list(lin.tokens) == expected and lin.solved.all() and lin.ybar is None
        assert linearize().beta >= 0.0
        # each unsolved entry is asked in order; the solvers ask no agent twice
        assert [asked for _, _, asked in counting.asked] == [[3, 1, 3, 0], [2, 2]]

    def test_an_oracle_failure_names_the_agent(self):
        problem, profile = FailsForTwo(), DecisionProfile((0, 0, 0, 0))
        counting, _, linearize = self.linearize(problem, profile)
        assert list(linearize(np.array([0, 1])).tokens[:2]) == [1, 1]
        with pytest.raises(RuntimeError, match="best response of agent 2 failed: no answer"):
            linearize(np.array([3, 2, 0]))
        assert [asked for _, _, asked in counting.asked] == [[0, 1], [3, 2]]


class TestZeroGradientProfile:
    def test_miqp_start_is_all_zeros(self, miqp_small):
        assert zero_gradient_profile(miqp_small).decisions == (0,) * 10

    def test_balanced_start_is_all_minus_one(self):
        assert zero_gradient_profile(aggfw.BalancedSignsInstance(4)).decisions == (-1,) * 4


def loop_sum(rows):
    """The reference: agents added one row at a time, in order, from 0.0."""
    total = 0.0
    for row in rows:
        total += row
    return total


def int_bits(array):
    return np.ascontiguousarray(array, dtype=float).view(np.int64)


# Signed zeros, magnitudes from 1e-20 to 1e20 and values that cancel, so that any
# other order of additions (pairwise, or a first row not added to 0.0) shows.
SUM_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, 3.0, 1e16, -1e16, 1e-20, -1e20, 1e20]),
    st.floats(-1e20, 1e20, allow_nan=False, allow_infinity=False),
)


@st.composite
def summed_rows(draw):
    """Rows in every layout the package hands ``sequential_sum``, and some it does not."""
    n, q = draw(st.integers(1, 40)), draw(st.sampled_from([1, 2, 3, 7]))
    layout = draw(st.sampled_from(["C", "F", "row-step", "column-step", "broadcast", "swapaxes"]))
    if layout == "swapaxes":  # the (S, N, q) view ``mean_aggregate`` sums over atoms
        terms = draw(hnp.arrays(float, (draw(st.integers(1, 6)), n, q), elements=SUM_ENTRIES))
        return terms.swapaxes(0, 1)
    base = draw(hnp.arrays(float, (2 * n, 2 * q), elements=SUM_ENTRIES))
    if draw(st.booleans()):
        base[:, 0] = -0.0  # a column whose loop sum is 0.0, not -0.0
    if layout == "row-step":
        return base[::2, :q]
    if layout == "column-step":
        return base[:n, ::2]
    if layout == "broadcast":
        return np.broadcast_to(base[0, :q], (n, q))
    rows = base[:n, :q].copy()
    return np.asfortranarray(rows) if layout == "F" else rows


class TestSequentialSum:
    @settings(max_examples=300, deadline=None)
    @given(summed_rows())
    @example(np.full((3, 1), -0.0))  # the loop's 0.0 + -0.0 is 0.0, in either path
    @example(np.full((3, 2), -0.0))
    def test_equals_the_row_loop_and_leaves_rows_unchanged(self, rows):
        before = rows.copy()
        total = sequential_sum(rows)
        assert np.array_equal(int_bits(total), int_bits(loop_sum(rows)))
        assert np.array_equal(int_bits(rows), int_bits(before))


class ReadOnlyRows(aggfw.MiqpInstance):
    """An instance whose contribution rows come back read-only."""

    def contributions(self, agents, decisions):
        rows = super().contributions(agents, decisions)
        rows.setflags(write=False)
        return rows


class TestSumsLeaveRowsUntouched:
    def test_rows_objective(self, miqp_small):
        rows = profile_rows(miqp_small, DecisionProfile((0, 1) * 5))
        before = rows.copy()
        value = rows_objective(miqp_small, rows)
        assert np.array_equal(int_bits(rows), int_bits(before))
        assert rows_objective(miqp_small, rows) == value

    def test_held_rows(self, miqp_small):
        held, agents = _HeldRows(miqp_small), np.arange(miqp_small.n_agents)
        held.hold(agents, np.array([1, 0] * 5, dtype=object))
        before = held.rows.copy()
        rows_objective(miqp_small, held.rows)
        sequential_sum(held.rows)
        assert np.array_equal(int_bits(held.rows), int_bits(before))

    def test_aggregate_of_and_objective_on_read_only_rows(self, miqp_small):
        inst = ReadOnlyRows(miqp_small.matrix, miqp_small.target)
        x = DecisionProfile((1, 0) * 5)
        assert aggregate_of(inst, x).values.tobytes() == aggregate_of(miqp_small, x).values.tobytes()
        assert objective(inst, x) == objective(miqp_small, x)
