"""Properties of the array-backed measure profiles.

``DiscreteMeasure`` and ``mix`` merge atoms on padded (N, S) arrays.  Each
result is compared bit for bit with the per-agent dict merge they replaced,
kept here as the reference, and the array mean aggregate with the
per-measure loop.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import aggfw
from aggfw.measures import (
    PRUNE_WEIGHT,
    DiscreteMeasure,
    MeasureProfile,
    mix,
    sample_profile,
    select_best,
)
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
def raw_measures(draw, tokens=TOKENS, min_size=1, max_size=5):
    """Unnormalized atom lists, duplicate tokens allowed; the first weight is large."""
    atoms = draw(st.lists(st.tuples(RAW_WEIGHTS, tokens), min_size=min_size, max_size=max_size))
    atoms[0] = (draw(st.floats(0.05, 1.0)), atoms[0][1])
    total = sum(w for w, _ in atoms)
    return [(w / total, d) for w, d in atoms]


@st.composite
def profiles(draw, n_agents, tokens=TOKENS, max_size=5):
    """A profile of mixed support widths, or a Dirac profile, and its reference atoms."""
    if draw(st.booleans()):
        decisions = draw(st.lists(tokens, min_size=n_agents, max_size=n_agents))
        return MeasureProfile.dirac(DecisionProfile(decisions)), [((1.0, d),) for d in decisions]
    raw = [draw(raw_measures(tokens, max_size=max_size)) for _ in range(n_agents)]
    profile = MeasureProfile(DiscreteMeasure(i, atoms) for i, atoms in enumerate(raw))
    return profile, [reference_atoms(atoms) for atoms in raw]


def atom_arrays(rows):
    """(N, S) weights and tokens holding equal-length raw atom lists, one per row."""
    weights = np.array([[w for w, _ in atoms] for atoms in rows])
    tokens = np.empty(weights.shape, dtype=object)
    for i, atoms in enumerate(rows):
        tokens[i] = np.fromiter((d for _, d in atoms), dtype=object, count=len(atoms))
    return weights, tokens


def assert_matches(profile, atoms):
    """Atoms, token objects, support sizes and sampling table all equal the reference."""
    assert [m.atoms for m in profile.measures] == atoms
    for measure, expected in zip(profile.measures, atoms):
        assert all(got is want for (_, got), (_, want) in zip(measure.atoms, expected))
    assert profile.support_sizes == tuple(len(a) for a in atoms)
    assert all(type(size) is int for size in profile.support_sizes)
    cdf, tokens = profile._sampling_table(), profile.tokens
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
    @given(st.integers(1, 5).flatmap(
        lambda s: st.lists(raw_measures(min_size=s, max_size=s), min_size=1, max_size=6)
    ))
    def test_from_atoms_equals_the_discrete_measures(self, rows):
        weights, tokens = atom_arrays(rows)
        profile = MeasureProfile.from_atoms(weights, tokens)
        assert_matches(profile, [reference_atoms(atoms) for atoms in rows])
        assert profile == MeasureProfile(
            DiscreteMeasure(i, zip(weights[i], tokens[i])) for i in range(len(rows))
        )

    @PROPERTY
    @given(st.integers(0, 5), TOKENS)
    def test_dirac_is_the_one_atom_measure(self, agent, token):
        measure = DiscreteMeasure.dirac(agent, token)
        assert measure == DiscreteMeasure(agent, [(1.0, token)])
        assert repr(measure.atoms) == repr(((1.0, token),)) and measure.atoms[0][1] is token

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


# Integers widen the supports past the 13 shared tokens.
WIDE_TOKENS = st.one_of(TOKENS, st.integers(3, 20))


def wide_pairs(n_agents):
    """A base profile of up to 12 atoms per agent and one of up to 3 to mix into it."""
    return st.tuples(profiles(n_agents, WIDE_TOKENS, 12), profiles(n_agents, WIDE_TOKENS, 3))


def in_order(profile, order):
    """The profile with its arrays copied to C or F memory order."""
    return MeasureProfile._of(profile.weights.copy(order=order),
                              profile.tokens.copy(order=order), profile.sizes.copy())


def assert_same_bits(got, want):
    """Equal weight bits, support sizes and token objects, padding included."""
    assert got.weights.tobytes() == want.weights.tobytes()
    assert got.support_sizes == want.support_sizes
    assert got.tokens.shape == want.tokens.shape
    assert all(a is b for a, b in zip(got.tokens.ravel().tolist(), want.tokens.ravel().tolist()))


class TestWideSupports:
    @PROPERTY
    @given(st.integers(1, 6).flatmap(wide_pairs), OMEGAS)
    def test_mix_up_to_twelve_atoms_and_three_extra_columns(self, pair, omega):
        (profile_a, atoms_a), (profile_b, atoms_b) = pair
        assert_matches(mix(profile_a, profile_b, omega), reference_mix(atoms_a, atoms_b, omega))

    @PROPERTY
    @given(st.integers(1, 12).flatmap(
        lambda s: st.lists(raw_measures(WIDE_TOKENS, s, s), min_size=1, max_size=6)
    ))
    def test_from_atoms_up_to_twelve_columns(self, rows):
        profile = MeasureProfile.from_atoms(*atom_arrays(rows))
        assert_matches(profile, [reference_atoms(atoms) for atoms in rows])

    @pytest.mark.parametrize("omega", [0.5, 0.25])
    def test_a_pruned_middle_atom_is_compacted_away(self, omega):
        # Agent 0's "b" falls below PRUNE_WEIGHT and its later atoms move left;
        # agent 1 keeps every atom; agent 2 loses "b" and gains nothing.
        small = 1.2 * PRUNE_WEIGHT
        rows = [[(0.4, "a"), (small, "b"), (0.6 - small, "c")],
                [(0.3, "a"), (0.3, "b"), (0.4, "c")],
                [(0.4, "a"), (small, "b"), (0.6 - small, "c")]]
        profile_a = MeasureProfile.from_atoms(*atom_arrays(rows))
        profile_b = MeasureProfile.dirac(DecisionProfile(("d", "b", "c")))
        mixed = mix(profile_a, profile_b, omega)
        assert [m.decisions for m in mixed.measures] == [("a", "c", "d"), ("a", "b", "c"),
                                                         ("a", "c")]
        expected = reference_mix([reference_atoms(a) for a in rows],
                                 [((1.0, d),) for d in ("d", "b", "c")], omega)
        assert_matches(mixed, expected)

    def test_from_atoms_prunes_a_middle_atom(self):
        rows = [[(0.5, "a"), (0.5 * PRUNE_WEIGHT, "b"), (0.5 - 0.5 * PRUNE_WEIGHT, "c")]]
        profile = MeasureProfile.from_atoms(*atom_arrays(rows))
        assert profile[0].decisions == ("a", "c")
        assert_matches(profile, [reference_atoms(rows[0])])

    @PROPERTY
    @given(wide_pairs(1), OMEGAS, st.integers(0, 2**32))
    def test_one_agent(self, pair, omega, seed):
        (profile_a, atoms_a), (profile_b, atoms_b) = pair
        mixed = mix(profile_a, profile_b, omega)
        expected = reference_mix(atoms_a, atoms_b, omega)
        assert_matches(mixed, expected)
        uniforms = np.random.default_rng(seed).random(1)
        drawn = sample_profile(mixed, np.random.default_rng(seed)).decisions
        assert drawn[0] is reference_sample(expected, uniforms)[0]

    @PROPERTY
    @given(st.integers(1, 6).flatmap(wide_pairs), OMEGAS)
    def test_c_and_f_ordered_inputs_mix_alike(self, pair, omega):
        (profile_a, _), (profile_b, _) = pair
        mixed = [mix(in_order(profile_a, o), in_order(profile_b, o), omega) for o in "CF"]
        assert_same_bits(*mixed)
        tables = [in_order(mixed[0], o)._sampling_table() for o in "CF"]
        assert tables[0].tobytes() == tables[1].tobytes()

    @PROPERTY
    @given(st.integers(1, 12).flatmap(
        lambda s: st.lists(raw_measures(WIDE_TOKENS, s, s), min_size=1, max_size=6)
    ))
    def test_c_and_f_ordered_inputs_merge_alike(self, rows):
        weights, tokens = atom_arrays(rows)
        assert_same_bits(
            MeasureProfile.from_atoms(np.ascontiguousarray(weights), np.ascontiguousarray(tokens)),
            MeasureProfile.from_atoms(np.asfortranarray(weights), np.asfortranarray(tokens)),
        )


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
    @given(table_cases(), OMEGAS, st.integers(0, 2**32))
    def test_c_and_f_ordered_profiles_give_the_same_bits(self, case, omega, seed):
        problem, profile_a, profile_b = case
        for profile in (profile_a, mix(profile_a, profile_b, omega)):
            c_order, f_order = in_order(profile, "C"), in_order(profile, "F")
            assert bits(c_order.mean_aggregate(problem).values) == bits(
                f_order.mean_aggregate(problem).values
            )
            picks = [select_best(problem, p, 4, np.random.default_rng(seed))
                     for p in (c_order, f_order)]
            assert picks[0][0] == picks[1][0] and picks[0][1].hex() == picks[1][1].hex()

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
