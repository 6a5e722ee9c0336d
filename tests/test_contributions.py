"""Properties of the batched contribution boundary and the vectorized sampler.

Each fast path is compared bit for bit with the per-agent loop it
replaced, kept here as the reference.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from aggfw import rng as _rng
from aggfw.measures import (
    PRUNE_WEIGHT,
    DiscreteMeasure,
    MeasureProfile,
    contribution_variance,
    mix,
    sample_profile,
    select_best,
    total_contribution_variance,
)
from aggfw.miqp import MiqpInstance
from aggfw.problems import DecisionProfile, ProblemInstance, aggregate_of, objective

from conftest import TableInstance

PROPERTY = settings(max_examples=60, deadline=None)

# Finite entries of both signs, with -0.0 and 0.0 drawn often.
entries = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)


def bits(array) -> bytes:
    return np.ascontiguousarray(array, dtype=float).tobytes()


def stacked_rows(problem, agents, decisions):
    rows = [problem.contribution(int(i), d).values for i, d in zip(agents, decisions)]
    return np.array(rows).reshape(len(rows), problem.total_dim)


def loop_aggregate(problem, profile):
    """The running-sum aggregate the batched ``aggregate_of`` must reproduce."""
    total = np.zeros(problem.total_dim)
    for i, decision in enumerate(profile.decisions):
        total += problem.contribution(i, decision).values
    return total / problem.n_agents


@st.composite
def miqp_instances(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    matrix = draw(hnp.arrays(float, (m, n), elements=entries))
    return MiqpInstance(matrix, np.zeros(m))


@st.composite
def table_instances(draw):
    n = draw(st.integers(1, 5))
    q = draw(st.integers(1, 3))
    tables = [
        draw(hnp.arrays(float, (draw(st.integers(3, 4)), q), elements=entries))
        for _ in range(n)
    ]
    return TableInstance(tables, np.zeros(q))


@st.composite
def batches(draw, problems):
    """A problem plus agents (any order, repeats allowed) and their decisions."""
    problem = draw(problems)
    agents = draw(st.lists(st.integers(0, problem.n_agents - 1), max_size=12))
    decisions = [draw(st.sampled_from(problem.decision_universe(i))) for i in agents]
    return problem, np.array(agents, dtype=np.intp), decisions


@st.composite
def profiles(draw, problems):
    problem = draw(problems)
    decisions = [draw(st.sampled_from(problem.decision_universe(i))) for i in range(problem.n_agents)]
    return problem, DecisionProfile(tuple(decisions))


class TestBatchedContributions:
    @PROPERTY
    @given(batches(miqp_instances()))
    def test_miqp_override_equals_stacked_rows(self, batch):
        problem, agents, decisions = batch
        rows = problem.contributions(agents, decisions)
        assert rows.flags.c_contiguous and rows.dtype == np.float64
        assert bits(rows) == bits(stacked_rows(problem, agents, decisions))

    @PROPERTY
    @given(batches(table_instances()))
    def test_table_override_equals_stacked_rows(self, batch):
        problem, agents, decisions = batch
        rows = problem.contributions(agents, decisions)
        assert bits(rows) == bits(stacked_rows(problem, agents, decisions))

    @PROPERTY
    @given(batches(table_instances()))
    def test_generic_default_equals_stacked_rows(self, batch):
        problem, agents, decisions = batch
        rows = ProblemInstance.contributions(problem, agents, decisions)
        assert rows.shape == (len(agents), problem.total_dim)
        assert bits(rows) == bits(stacked_rows(problem, agents, decisions))

    @PROPERTY
    @given(profiles(miqp_instances()))
    def test_aggregate_of_equals_loop_on_miqp(self, case):
        problem, profile = case
        assert bits(aggregate_of(problem, profile).values) == bits(loop_aggregate(problem, profile))

    @PROPERTY
    @given(profiles(table_instances()))
    def test_aggregate_of_equals_loop_on_tables(self, case):
        problem, profile = case
        assert bits(aggregate_of(problem, profile).values) == bits(loop_aggregate(problem, profile))

    def test_aggregate_of_single_agent_negative_zero(self):
        # The loop starts from +0.0, so -0.0 contributions sum to +0.0.
        problem = MiqpInstance(np.array([[-0.0], [-2.0]]), np.zeros(2))
        values = aggregate_of(problem, DecisionProfile((0,))).values
        assert bits(values) == bits(np.zeros(2))

    def test_aggregate_of_single_block_many_agents(self):
        # q = 1 is where a plain column sum turns pairwise and drifts.
        rng = np.random.default_rng(3)
        problem = MiqpInstance(rng.normal(size=(1, 500)) * 1e3, np.zeros(1))
        profile = DecisionProfile(tuple(int(b) for b in rng.integers(0, 2, 500)))
        assert bits(aggregate_of(problem, profile).values) == bits(loop_aggregate(problem, profile))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row_raises_through_aggregate_of(self, bad):
        # The override skips the per-row check of ``contribution``.  The
        # error names the block of the first bad entry in agent order, as
        # the agent-by-agent loop did, not the first bad block of the sum.
        tables = [np.zeros((3, 3)) for _ in range(3)]
        tables[1][1, 2] = bad
        tables[2][0, 0] = bad
        problem = TableInstance(tables, np.zeros(3))
        with pytest.raises(ValueError, match="non-finite entry in aggregate block 2"):
            aggregate_of(problem, DecisionProfile((0, 1, 0)))
        measure = DiscreteMeasure(1, [(0.5, 0), (0.5, 1)])
        with pytest.raises(ValueError, match="non-finite entry in aggregate block 2"):
            total_contribution_variance(problem, measure)
        assert objective(problem, DecisionProfile((0, 2, 1))) == 0.0


def loop_mean(problem, measure):
    total = np.zeros(problem.total_dim)
    for weight, decision in measure.atoms:
        total += weight * problem.contribution(measure.agent, decision).values
    return total


def loop_variance(problem, measure, columns):
    mean = loop_mean(problem, measure)[columns]
    total = 0.0
    for weight, decision in measure.atoms:
        diff = problem.contribution(measure.agent, decision).values[columns] - mean
        total += weight * float(diff @ diff)
    return total


@st.composite
def measure_profiles(draw):
    """Table measures with 3-4 atoms in shuffled order; some atoms get pruned."""
    problem = draw(table_instances())
    measures = []
    for i in range(problem.n_agents):
        universe = draw(st.permutations(problem.decision_universe(i)))
        raw = draw(st.lists(st.floats(0.0, 1.0), min_size=len(universe), max_size=len(universe)))
        raw = [w if w > 0.05 else PRUNE_WEIGHT * w for w in raw]  # tiny atoms fall below the threshold
        if max(raw) < PRUNE_WEIGHT:
            raw[0] = 1.0
        total = sum(raw)
        measures.append(DiscreteMeasure(i, [(w / total, d) for w, d in zip(raw, universe)]))
    return problem, MeasureProfile(measures)


class FixedUniforms:
    """Stands in for a generator: hands out the given uniforms."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, size):
        assert size == self.values.size
        return self.values


def searchsorted_sample(profile, uniforms):
    """The per-measure inverse-CDF lookup the vectorized sampler replaced."""
    picks = []
    for measure, u in zip(profile.measures, uniforms):
        index = int(np.searchsorted(np.cumsum(measure.weights), u, side="right"))
        picks.append(measure.atoms[min(index, measure.support_size - 1)][1])
    return DecisionProfile(tuple(picks))


def uniforms_for(measure):
    """Uniforms in [0, 1), drawing the measure's own CDF values often."""
    breaks = [float(c) for c in np.cumsum(measure.weights) if c < 1.0]
    return st.one_of(
        st.sampled_from([0.0, 1.0 - 2.0**-53] + breaks),
        st.floats(0.0, 1.0, exclude_max=True),
    )


class TestMeasuresOnTheHook:
    @PROPERTY
    @given(measure_profiles())
    def test_mean_and_variances_equal_loops(self, case):
        problem, profile = case
        for measure in profile.measures:
            assert bits(measure.mean_contribution(problem).values) == bits(loop_mean(problem, measure))
            assert total_contribution_variance(problem, measure) == loop_variance(
                problem, measure, slice(None)
            )
            for block in range(problem.n_blocks):
                assert contribution_variance(problem, measure, block) == loop_variance(
                    problem, measure, slice(block, block + 1)
                )

    @PROPERTY
    @given(measure_profiles())
    def test_measure_mean_equals_the_profile_row(self, case):
        problem, profile = case
        means = profile._means(problem)
        for i in range(profile.n_agents):
            got = profile[i].mean_contribution(problem).values
            assert np.array_equal(got.view(np.int64), means[i].view(np.int64))

    @PROPERTY
    @given(measure_profiles(), st.data())
    def test_sample_equals_searchsorted(self, case, data):
        problem, profile = case
        values = [data.draw(uniforms_for(m)) for m in profile.measures]
        assert sample_profile(profile, FixedUniforms(values)) == searchsorted_sample(profile, values)

    def test_uniform_above_a_short_cdf_takes_the_last_atom(self):
        raw = (0.212, 0.831, 0.063)
        short = DiscreteMeasure(0, [(w / sum(raw), d) for d, w in enumerate(raw)])
        assert np.cumsum(short.weights)[-1] < 1.0  # rounding leaves the CDF below 1
        profile = MeasureProfile([short, DiscreteMeasure(1, [(0.5, 7), (0.5, 3)])])
        u = [1.0 - 2.0**-53] * 2
        assert sample_profile(profile, FixedUniforms(u)).decisions == (2, 3)
        assert sample_profile(profile, FixedUniforms(u)) == searchsorted_sample(profile, u)

    @PROPERTY
    @given(measure_profiles(), st.floats(0.0, 1.0), st.integers(0, 2**32))
    def test_sample_after_mix_equals_searchsorted(self, case, omega, seed):
        problem, profile = case
        rolled = MeasureProfile(
            DiscreteMeasure(i, [(w, d) for w, d in m.atoms[::-1]])
            for i, m in enumerate(profile.measures)
        )
        mixed = mix(profile, rolled, omega)
        uniforms = np.random.default_rng(seed).random(problem.n_agents)
        assert sample_profile(mixed, FixedUniforms(uniforms)) == searchsorted_sample(mixed, uniforms)

    def test_select_best_consumes_the_stream_like_the_loop(self, miqp_small):
        rng = np.random.default_rng(8)
        profile = MeasureProfile(
            DiscreteMeasure(i, [(1.0 - p, 0), (p, 1)]) for i, p in enumerate(rng.random(10))
        )
        stream = _rng.stream(4, _rng.SELECTION)
        best, best_value = None, np.inf
        for _ in range(30):
            candidate = searchsorted_sample(profile, stream.random(10))
            value = objective(miqp_small, candidate)
            if value < best_value:
                best, best_value = candidate, value
        assert select_best(miqp_small, profile, 30, _rng.stream(4, _rng.SELECTION)) == (
            best, best_value
        )

    @PROPERTY
    @given(measure_profiles(), st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_select_best_equals_the_sample_and_objective_loop(self, case, n_draws, seed):
        problem, profile = case
        best, value = select_best(problem, profile, n_draws, np.random.default_rng(seed))
        rng, best_ref, value_ref = np.random.default_rng(seed), None, np.inf
        for _ in range(n_draws):
            candidate = sample_profile(profile, rng)
            candidate_value = objective(problem, candidate)
            if candidate_value < value_ref:
                best_ref, value_ref = candidate, candidate_value
        assert repr(best.decisions) == repr(best_ref.decisions)
        assert repr(value) == repr(value_ref)

    def test_select_best_checks_atoms_no_draw_picks(self):
        problem = TableInstance([np.eye(2)] * 2, np.zeros(2))
        rare = DiscreteMeasure(1, [(1.0 - 1e-9, 1), (1e-9, 5)])
        profile = MeasureProfile([DiscreteMeasure(0, [(1.0, 0)]), rare])
        with pytest.raises(ValueError, match="invalid decision token 5 for agent 1"):
            select_best(problem, profile, 3, _rng.stream(0, _rng.SELECTION))
