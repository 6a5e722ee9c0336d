"""Properties of the array-backed measure profiles.

``DiscreteMeasure`` and ``mix`` merge atoms on padded (N, S) arrays.  Each
result is compared bit for bit with the per-agent dict merge they replaced,
kept here as the reference, and the array mean aggregate with the
per-measure loop.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import aggfw
from aggfw.measures import PRUNE_WEIGHT, DiscreteMeasure, MeasureProfile, mix, sample_profile
from aggfw.problems import DecisionProfile, sequential_sum

from conftest import TableInstance

PROPERTY = settings(max_examples=80, deadline=None)

# Ints, None, strings and tuples; 1.0 equals 1 and (1.0, 0) equals (1, 0), so
# merging must keep whichever object came first.
TOKENS = st.sampled_from([0, 1, 2, 7, 1.0, None, "a", "b", "zz", (0, 1), (1, 0), (1.0, 0), (2,)])

# Weights that survive renormalization and weights that land near the
# prune threshold, on either side of it.
RAW_WEIGHTS = st.one_of(
    st.floats(0.05, 1.0),
    st.sampled_from([0.0, 0.5 * PRUNE_WEIGHT, PRUNE_WEIGHT, 1.5 * PRUNE_WEIGHT, 3 * PRUNE_WEIGHT]),
)

OMEGAS = st.one_of(
    st.sampled_from([0.0, 1.0, 1e-13, 5e-13, 2e-12, 1.0 - 1e-13]),
    st.floats(0.0, 1.0),
)


def left_sum(values):
    total = 0.0
    for value in values:
        total += value
    return total


def reference_atoms(atoms):
    """The dict merge ``DiscreteMeasure`` did per agent: merge by token in
    order, check the sum, prune, renormalize by the left-to-right sum."""
    merged = {}
    for weight, decision in atoms:
        merged[decision] = merged.get(decision, 0.0) + float(weight)
    assert abs(left_sum(merged.values()) - 1.0) <= 1e-12
    kept = [(w, d) for d, w in merged.items() if w >= PRUNE_WEIGHT]
    norm = left_sum(w for w, _ in kept)
    return tuple((w / norm, d) for w, d in kept)


def reference_mix(atoms_a, atoms_b, omega):
    return [
        reference_atoms([(w * (1.0 - omega), d) for w, d in a] + [(w * omega, d) for w, d in b])
        for a, b in zip(atoms_a, atoms_b)
    ]


def reference_table(atoms):
    """Per-measure CDFs without their last entry, padded with +inf."""
    width = max(len(a) for a in atoms)
    cdf = np.full((len(atoms), width - 1), np.inf)
    for i, a in enumerate(atoms):
        cdf[i, : len(a) - 1] = np.cumsum([w for w, _ in a])[:-1]
    return cdf


def reference_sample(atoms, uniforms):
    picks = []
    for a, u in zip(atoms, uniforms):
        index = int(np.searchsorted(np.cumsum([w for w, _ in a]), u, side="right"))
        picks.append(a[min(index, len(a) - 1)][1])
    return picks


@st.composite
def raw_measures(draw, tokens=TOKENS):
    """Unnormalized atom lists, duplicate tokens allowed; the first weight is large."""
    atoms = draw(st.lists(st.tuples(RAW_WEIGHTS, tokens), min_size=1, max_size=5))
    atoms[0] = (draw(st.floats(0.05, 1.0)), atoms[0][1])
    total = sum(w for w, _ in atoms)
    return [(w / total, d) for w, d in atoms]


@st.composite
def profiles(draw, n_agents, tokens=TOKENS):
    """A profile of mixed support widths, or a Dirac profile, and its reference atoms."""
    if draw(st.booleans()):
        decisions = draw(st.lists(tokens, min_size=n_agents, max_size=n_agents))
        return MeasureProfile.dirac(DecisionProfile(decisions)), [((1.0, d),) for d in decisions]
    raw = [draw(raw_measures(tokens)) for _ in range(n_agents)]
    profile = MeasureProfile(DiscreteMeasure(i, atoms) for i, atoms in enumerate(raw))
    return profile, [reference_atoms(atoms) for atoms in raw]


def assert_matches(profile, atoms):
    """Atoms, token objects, support sizes and sampling table all equal the reference."""
    assert [m.atoms for m in profile.measures] == atoms
    for measure, expected in zip(profile.measures, atoms):
        assert all(got is want for (_, got), (_, want) in zip(measure.atoms, expected))
    assert profile.support_sizes == tuple(len(a) for a in atoms)
    assert all(type(size) is int for size in profile.support_sizes)
    cdf, tokens = profile._sampling_table()
    assert cdf.shape == reference_table(atoms).shape
    assert np.array_equal(cdf, reference_table(atoms))
    for i, a in enumerate(atoms):
        assert all(tokens[i, j] is d for j, (_, d) in enumerate(a))


class TestMergeEqualsDictMerge:
    @PROPERTY
    @given(raw_measures())
    def test_discrete_measure(self, atoms):
        measure, expected = DiscreteMeasure(3, atoms), reference_atoms(atoms)
        assert measure.atoms == expected
        assert all(got is want for (_, got), (_, want) in zip(measure.atoms, expected))

    @PROPERTY
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(profiles(n), profiles(n))), OMEGAS)
    def test_mix(self, pair, omega):
        (profile_a, atoms_a), (profile_b, atoms_b) = pair
        assert_matches(profile_a, atoms_a)
        assert_matches(mix(profile_a, profile_b, omega), reference_mix(atoms_a, atoms_b, omega))

    @PROPERTY
    @given(
        st.integers(1, 6).flatmap(lambda n: st.tuples(profiles(n), profiles(n), profiles(n))),
        OMEGAS,
        OMEGAS,
        st.integers(0, 2**32),
    )
    def test_mix_of_a_mix_and_its_draws(self, triple, omega, omega_2, seed):
        # The second mix merges into a padded base whose rows were compacted.
        (profile_a, atoms_a), (profile_b, atoms_b), (profile_c, atoms_c) = triple
        mixed = mix(mix(profile_a, profile_b, omega), profile_c, omega_2)
        expected = reference_mix(reference_mix(atoms_a, atoms_b, omega), atoms_c, omega_2)
        assert_matches(mixed, expected)
        uniforms = np.random.default_rng(seed).random(mixed.n_agents)
        drawn = sample_profile(mixed, np.random.default_rng(seed)).decisions
        assert all(got is want for got, want in zip(drawn, reference_sample(expected, uniforms)))

    @PROPERTY
    @given(hnp.arrays(float, st.integers(1, 8), elements=st.sampled_from(
        [0.0, -0.0, 1.0, 0.5 * PRUNE_WEIGHT, 1.0 - 0.5 * PRUNE_WEIGHT]) | st.floats(0.0, 1.0)))
    def test_bernoulli_profile(self, point):
        instance = aggfw.MiqpInstance(np.ones((1, point.size)), np.zeros(1))
        expected = [
            reference_atoms([(w, d) for w, d in ((1.0 - p, 0), (p, 1)) if w > 0]) for p in point
        ]
        assert_matches(aggfw.bernoulli_profile(instance, point), expected)


# Finite table entries of both signs, with -0.0 and 0.0 drawn often.
ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)


@st.composite
def table_cases(draw):
    """A table instance and two profiles on its decision indices."""
    n = draw(st.integers(1, 5))
    q = draw(st.integers(1, 3))
    tables = [draw(hnp.arrays(float, (4, q), elements=ENTRIES)) for _ in range(n)]
    indices = st.sampled_from([0, 1, 2, 3])
    (profile_a, _), (profile_b, _) = draw(profiles(n, indices)), draw(profiles(n, indices))
    return TableInstance(tables, np.zeros(q)), profile_a, profile_b


def loop_mean_aggregate(problem, profile):
    """Per-measure means stacked and summed in agent order, as before the arrays."""
    rows = np.array([m.mean_contribution(problem).values for m in profile.measures])
    return sequential_sum(rows) / profile.n_agents


def bits(array) -> bytes:
    return np.ascontiguousarray(array, dtype=float).tobytes()


class TestMeanAggregate:
    @PROPERTY
    @given(table_cases(), OMEGAS)
    def test_equals_per_measure_loop(self, case, omega):
        problem, profile_a, profile_b = case
        for profile in (profile_a, profile_b, mix(profile_a, profile_b, omega)):
            assert bits(profile.mean_aggregate(problem).values) == bits(
                loop_mean_aggregate(problem, profile)
            )

    def test_miqp_equals_per_measure_loop(self, miqp_medium):
        point = np.random.default_rng(5).random(miqp_medium.n_agents)
        profile = aggfw.bernoulli_profile(miqp_medium, point)
        assert bits(profile.mean_aggregate(miqp_medium).values) == bits(
            loop_mean_aggregate(miqp_medium, profile)
        )

    @PROPERTY
    @given(table_cases(), st.floats(0.0, 1.0))
    def test_mix_is_linear_in_the_mean(self, case, omega):
        # Exact up to rounding and the atoms the merge prunes (each below
        # PRUNE_WEIGHT, against table entries of at most 1e3).
        problem, profile_a, profile_b = case
        mean_a = profile_a.mean_aggregate(problem).values
        mean_b = profile_b.mean_aggregate(problem).values
        mixed = mix(profile_a, profile_b, omega).mean_aggregate(problem).values
        expected = (1.0 - omega) * mean_a + omega * mean_b
        np.testing.assert_allclose(mixed, expected, rtol=0, atol=1e-8)
