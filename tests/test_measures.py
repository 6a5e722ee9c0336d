import numpy as np
import pytest

import aggfw
from aggfw import rng as _rng
from aggfw.bounds import compute_constants, gap_bound_basic, mcdiarmid_tail, variance_proxy
from aggfw.measures import (
    PRUNE_WEIGHT,
    DiscreteMeasure,
    MeasureProfile,
    contribution_variance,
    mix,
    relaxed_objective,
    sample_profile,
    select_best,
    total_contribution_variance,
)
from aggfw.problems import DecisionProfile, objective


def half_half(n_agents, a=-1, b=1):
    return MeasureProfile(
        [DiscreteMeasure(i, [(0.5, a), (0.5, b)]) for i in range(n_agents)]
    )


class TestDiscreteMeasure:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            DiscreteMeasure(0, [(0.6, 0), (0.3, 1)])

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError, match="negative"):
            DiscreteMeasure(0, [(-0.1, 0), (1.1, 1)])

    def test_from_atoms_names_the_agents_in_errors(self):
        weights = np.array([[1.0, 0.0], [1.5, -0.5]])
        tokens = np.array([[0, 1], [0, 1]], dtype=object)
        with pytest.raises(ValueError, match="negative atom weight -0.5 for agent 1"):
            MeasureProfile.from_atoms(weights, tokens)
        with pytest.raises(ValueError, match="negative atom weight -0.5 for agent 3"):
            MeasureProfile.from_atoms(weights, tokens, (7, 3))
        with pytest.raises(ValueError, match="atom weights for agent 3 sum to 0.75"):
            MeasureProfile.from_atoms(np.array([[1.0, 0.0], [0.5, 0.25]]), tokens, (7, 3))

    @pytest.mark.parametrize("agents", [(7,), (7, 3, 5)])
    @pytest.mark.parametrize("weights", [[[1.0, 0.0], [1.5, -0.5]], [[1.0, 0.0], [0.5, 0.5]]],
                             ids=["negative", "valid"])
    def test_from_atoms_needs_one_agent_per_row(self, weights, agents):
        tokens = np.array([[0, 1], [0, 1]], dtype=object)
        with pytest.raises(ValueError, match=f"{len(agents)} agents for 2 rows"):
            MeasureProfile.from_atoms(np.array(weights), tokens, agents)

    @pytest.mark.parametrize("weights_shape", [(2, 1), (2, 3), (3, 2), (2,), (2, 2, 1)])
    def test_from_atoms_rejects_mismatched_shapes(self, weights_shape):
        weights = np.full(weights_shape, 1.0 / weights_shape[-1])
        tokens = np.array([[0, 1], [0, 1]], dtype=object)
        with pytest.raises(ValueError, match="arrays of the same shape"):
            MeasureProfile.from_atoms(weights, tokens)

    def test_duplicates_merge_by_weight(self):
        m = DiscreteMeasure(0, [(0.25, "a"), (0.5, "b"), (0.25, "a")])
        assert m.atoms == ((0.5, "a"), (0.5, "b"))

    def test_pruning_renormalizes(self):
        m = DiscreteMeasure(0, [(1.0 - 1e-14, 0), (1e-14, 1)])
        assert m.decisions == (0,)
        assert m.weights.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_nan_weights(self):
        with pytest.raises(ValueError, match="sum to nan"):
            DiscreteMeasure(0, [(float("nan"), "a"), (0.5, "b")])

    def test_weights_are_summed_left_to_right(self):
        # 0.1 added ten times from 0.0 is 0.9999999999999999; a compensated
        # sum (math.fsum, or builtin sum since Python 3.12) gives 1.0.
        m = DiscreteMeasure(0, [(0.1, token) for token in range(10)])
        assert m.weights.tolist() == [0.1 / 0.9999999999999999] * 10

    def test_profile_ownership_checked(self):
        with pytest.raises(ValueError, match="agent"):
            MeasureProfile([DiscreteMeasure(1, [(1.0, 0)])])

    def test_repr(self):
        m = DiscreteMeasure(0, [(0.25, "a"), (0.75, (1, 2))])
        assert repr(m) == "DiscreteMeasure(agent=0, atoms=((0.25, 'a'), (0.75, (1, 2))))"
        assert repr(MeasureProfile([m])[0]) == repr(m)

    def test_equality_is_by_agent_and_atoms_only(self):
        m = DiscreteMeasure(1, [(0.5, 0), (0.5, 1)])
        assert m == DiscreteMeasure(1, [(0.5, 0), (0.5, 1)])
        assert m != DiscreteMeasure(0, [(0.5, 0), (0.5, 1)])
        assert m != DiscreteMeasure(1, [(0.5, 1), (0.5, 0)])
        assert m.__eq__(5) is NotImplemented
        with pytest.raises(TypeError, match="unhashable"):
            hash(m)

    def test_slotted(self):
        m = DiscreteMeasure.dirac(0, 1)
        assert not hasattr(m, "__dict__")
        with pytest.raises(AttributeError):
            m.support = 1

    def test_keyword_construction(self):
        m = DiscreteMeasure(agent=2, atoms=[(0.25, "a"), (0.5, "b"), (0.25, "a")])
        assert m == DiscreteMeasure(2, [(0.5, "a"), (0.5, "b")])
        assert m.agent == 2 and m.atoms == ((0.5, "a"), (0.5, "b"))


class TestRelaxedObjective:
    def test_dirac_profile_equals_objective(self, miqp_small):
        x = DecisionProfile((1, 0, 1, 1, 0, 0, 1, 0, 1, 0))
        mu = MeasureProfile.dirac(x)
        assert relaxed_objective(miqp_small, mu) == pytest.approx(
            objective(miqp_small, x), rel=1e-12
        )

    def test_balanced_signs_half_half_value(self):
        # Mean contributions per agent: squares block 1, sign block 0,
        # so the relaxed objective is -1 + 0 = -1.
        inst = aggfw.BalancedSignsInstance(4)
        assert relaxed_objective(inst, half_half(4)) == pytest.approx(-1.0, abs=1e-15)

    @pytest.mark.parametrize("omega", [0.0, 0.25, 0.5, 0.9, 1.0])
    def test_mixing_is_convex(self, miqp_small, omega):
        gen = np.random.default_rng(3)
        mu1 = aggfw.bernoulli_profile(miqp_small, gen.random(10))
        mu2 = aggfw.bernoulli_profile(miqp_small, gen.random(10))
        lhs = relaxed_objective(miqp_small, mix(mu1, mu2, omega))
        rhs = (1 - omega) * relaxed_objective(miqp_small, mu1) + omega * relaxed_objective(
            miqp_small, mu2
        )
        assert lhs <= rhs + 1e-12


class TestFreshMeans:
    """A profile's means are recomputed for whichever instance asks."""

    @pytest.fixture()
    def two_instances(self):
        a = aggfw.generate(3, 4, seed=1)
        return a, aggfw.MiqpInstance(2.0 * a.matrix, 2.0 * a.target)

    def test_relaxed_objective_follows_the_instance(self, two_instances):
        a, b = two_instances
        mu = aggfw.bernoulli_profile(a, np.full(4, 0.5))
        relaxed_objective(a, mu)
        fresh = aggfw.bernoulli_profile(a, np.full(4, 0.5))
        assert relaxed_objective(b, mu) == relaxed_objective(b, fresh)
        assert relaxed_objective(b, mu) != relaxed_objective(a, mu)

    def test_variance_follows_the_instance(self, two_instances):
        a, b = two_instances
        m = DiscreteMeasure(0, [(0.5, 0), (0.5, 1)])
        total_contribution_variance(a, m)
        fresh = DiscreteMeasure(0, [(0.5, 0), (0.5, 1)])
        assert total_contribution_variance(b, m) == total_contribution_variance(b, fresh)
        assert total_contribution_variance(b, m) == 4.0 * total_contribution_variance(a, m)


class TestMix:
    def test_omega_zero_is_identity(self, miqp_small):
        mu = aggfw.bernoulli_profile(miqp_small, np.full(10, 0.3))
        assert mix(mu, MeasureProfile.dirac(DecisionProfile((1,) * 10)), 0.0) == mu

    def test_omega_one_is_replacement(self, miqp_small):
        dirac = MeasureProfile.dirac(DecisionProfile((1,) * 10))
        mu = aggfw.bernoulli_profile(miqp_small, np.full(10, 0.3))
        assert mix(mu, dirac, 1.0) == dirac

    def test_equal_mix_of_distinct_diracs(self):
        a = MeasureProfile.dirac(DecisionProfile((0,)))
        b = MeasureProfile.dirac(DecisionProfile((1,)))
        mixed = mix(a, b, 0.5)
        assert mixed[0].atoms == ((0.5, 0), (0.5, 1))

    def test_rejects_omega_outside_unit_interval(self):
        a = MeasureProfile.dirac(DecisionProfile((0,)))
        with pytest.raises(ValueError):
            mix(a, a, 1.5)

    def test_rejects_profiles_with_different_agent_counts(self):
        a, b = (MeasureProfile.dirac(DecisionProfile((0,) * n)) for n in (1, 2))
        with pytest.raises(ValueError, match="different agent counts"):
            mix(a, b, 0.5)

    def test_mean_contributions_mix_affinely(self, miqp_small):
        gen = np.random.default_rng(8)
        mu1 = aggfw.bernoulli_profile(miqp_small, gen.random(10))
        mu2 = aggfw.bernoulli_profile(miqp_small, gen.random(10))
        mixed = mix(mu1, mu2, 0.37)
        expected = (
            0.63 * mu1.mean_aggregate(miqp_small).values
            + 0.37 * mu2.mean_aggregate(miqp_small).values
        )
        np.testing.assert_allclose(mixed.mean_aggregate(miqp_small).values, expected, atol=1e-10)


class TestContributionVariance:
    def test_dirac_has_zero_variance(self, miqp_small):
        m = DiscreteMeasure.dirac(0, 1)
        assert contribution_variance(miqp_small, m, 0) == 0.0

    def test_fair_coin_on_unit_contribution(self):
        # Scalar contribution 0 or 1 with probability 1/2 each: variance 1/4.
        inst = aggfw.MiqpInstance(np.array([[1.0]]), np.array([0.0]))
        m = DiscreteMeasure(0, [(0.5, 0), (0.5, 1)])
        assert contribution_variance(inst, m, 0) == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize("block", [3, 4])
    def test_block_past_the_last_raises(self, block):
        problem, m = aggfw.generate(3, 4, seed=1), DiscreteMeasure(0, [(0.5, 0), (0.5, 1)])
        with pytest.raises(ValueError, match=f"block {block} out of range for 3 blocks"):
            contribution_variance(problem, m, block)

    def test_three_atom_measure_against_direct_sum(self, table_instance):
        m = DiscreteMeasure(0, [(0.2, 0), (0.5, 1), (0.3, 2)])
        for block in range(table_instance.n_blocks):
            values = np.array(
                [table_instance.tables[0][d][block] for d in (0, 1, 2)]
            )
            weights = np.array([0.2, 0.5, 0.3])
            mean = weights @ values
            expected = float(weights @ (values - mean) ** 2)
            assert contribution_variance(table_instance, m, block) == pytest.approx(
                expected, abs=1e-12
            )


STATISTICS = {
    "mean_contribution": lambda problem, measure: measure.mean_contribution(problem),
    "contribution_variance": lambda problem, measure: contribution_variance(problem, measure, 0),
    "total_contribution_variance": total_contribution_variance,
    "variance_proxy": variance_proxy,
}


class TestPerMeasureChecks:
    """The per-measure statistics check the measure's agent against the problem and every
    token, the tokens with the message the profile path raises."""

    @pytest.mark.parametrize("statistic", STATISTICS.values(), ids=STATISTICS)
    @pytest.mark.parametrize(
        "problem, token",
        [(aggfw.generate(3, 4, seed=1), 2), (aggfw.BalancedSignsInstance(4), 5)],
        ids=["miqp", "balanced-signs"],
    )
    def test_invalid_token_raises_the_profile_message(self, statistic, problem, token):
        valid = problem.decision_universe(0)[0]
        measure = DiscreteMeasure(0, [(0.5, valid), (0.5, token)])
        others = [DiscreteMeasure.dirac(i, valid) for i in range(1, problem.n_agents)]
        message = f"invalid decision token {token} for agent 0"
        with pytest.raises(ValueError, match=message) as by_profile:
            relaxed_objective(problem, MeasureProfile([measure, *others]))
        with pytest.raises(ValueError) as by_measure:
            statistic(problem, measure)
        assert str(by_measure.value) == str(by_profile.value)

    @pytest.mark.parametrize("statistic", STATISTICS.values(), ids=STATISTICS)
    @pytest.mark.parametrize(
        "problem", [aggfw.generate(3, 4, seed=1), aggfw.BalancedSignsInstance(4)],
        ids=["miqp", "balanced-signs"],
    )
    @pytest.mark.parametrize("agent", [9, 4])  # -1: see DiscreteMeasure.agent in SITES
    def test_agent_outside_the_problem_raises(self, statistic, problem, agent):
        measure = DiscreteMeasure(agent, [(0.5, d) for d in problem.decision_universe(0)])
        with pytest.raises(ValueError, match=f"agent {agent} out of range for 4 agents"):
            statistic(problem, measure)


class TestSampling:
    def test_dirac_profile_sampling_is_deterministic(self):
        mu = MeasureProfile.dirac(DecisionProfile((1, 0, 1)))
        out = sample_profile(mu, _rng.stream(0, _rng.SELECTION))
        assert out.decisions == (1, 0, 1)

    def test_fair_coin_frequency(self):
        mu = MeasureProfile([DiscreteMeasure(0, [(0.5, "a"), (0.5, "b")])])
        gen = _rng.stream(4, _rng.SELECTION)
        draws = sum(sample_profile(mu, gen).decisions == ("a",) for _ in range(100_000))
        assert 0.494 <= draws / 100_000 <= 0.506

    def test_fixed_seed_replay_is_identical(self, miqp_small):
        mu = aggfw.bernoulli_profile(miqp_small, np.linspace(0.1, 0.9, 10))
        first = [sample_profile(mu, _rng.stream(7, _rng.SELECTION, 0, k)) for k in range(5)]
        second = [sample_profile(mu, _rng.stream(7, _rng.SELECTION, 0, k)) for k in range(5)]
        assert first == second


class TestSelectBest:
    def test_single_draw_equals_sample_plus_objective(self, miqp_small):
        mu = aggfw.bernoulli_profile(miqp_small, np.linspace(0.2, 0.8, 10))
        picked, value = select_best(miqp_small, mu, 1, _rng.stream(11, _rng.SELECTION))
        expected = sample_profile(mu, _rng.stream(11, _rng.SELECTION))
        assert picked == expected
        assert value == objective(miqp_small, expected)

    def test_dirac_profile_any_draw_count(self, miqp_small):
        x = DecisionProfile((1, 1, 0, 0, 1, 0, 1, 0, 0, 1))
        mu = MeasureProfile.dirac(x)
        picked, value = select_best(miqp_small, mu, 25, _rng.stream(0, _rng.SELECTION))
        assert picked == x
        assert value == objective(miqp_small, x)

    def test_balanced_signs_selection_is_reliably_good(self, balanced_ten):
        # A single draw lands within 0.1 of the optimum iff the sign
        # imbalance is at most 3, which has probability 672/1024; over
        # 200 draws the failure probability is (1 - 672/1024)^200.
        mu = half_half(10)
        hits = 0
        for seed in range(100):
            _, value = select_best(balanced_ten, mu, 200, _rng.stream(seed, _rng.SELECTION))
            hits += value <= -0.9
        assert hits >= 99

    def test_rejects_zero_draws(self, miqp_small):
        mu = MeasureProfile.dirac(DecisionProfile((0,) * 10))
        with pytest.raises(ValueError):
            select_best(miqp_small, mu, 0, _rng.stream(0))

    @pytest.mark.parametrize("call", [
        relaxed_objective,
        lambda problem, mu: select_best(problem, mu, 2, _rng.stream(0)),
    ], ids=["relaxed_objective", "select_best"])
    def test_rejects_a_profile_of_the_wrong_size(self, miqp_small, call):
        mu = MeasureProfile.dirac(DecisionProfile((0,) * 9))
        with pytest.raises(ValueError, match="profile has 9 measures, problem has 10 agents"):
            call(miqp_small, mu)


class TestSamplingLaw:
    def test_expected_objective_window(self, miqp_small, miqp_small_reference):
        # Jensen gives E[J(X)] >= relaxed value; the curvature bound caps
        # the excess at C1/(2N).
        constants = compute_constants(miqp_small)
        mu = aggfw.bernoulli_profile(miqp_small, miqp_small_reference.point)
        base = relaxed_objective(miqp_small, mu)
        gen = _rng.stream(3, _rng.SELECTION)
        values = np.array(
            [objective(miqp_small, sample_profile(mu, gen)) for _ in range(10_000)]
        )
        stderr = values.std(ddof=1) / 100.0
        assert base - 3 * stderr <= values.mean()
        assert values.mean() <= base + constants.c1 / 20.0 + 3 * stderr

    def test_selection_tail_bound(self, miqp_medium, miqp_medium_reference):
        constants = compute_constants(miqp_medium)
        mu = aggfw.bernoulli_profile(miqp_medium, miqp_medium_reference.point)
        base = relaxed_objective(miqp_medium, mu)
        gen = _rng.stream(77, _rng.SELECTION)
        values = np.array(
            [objective(miqp_medium, sample_profile(mu, gen)) for _ in range(10_000)]
        )
        for epsilon in (constants.c1 / 60.0, constants.c1 / 30.0):
            threshold = base + gap_bound_basic(constants) + epsilon
            frequency = float((values >= threshold).mean())
            bound = mcdiarmid_tail(30, epsilon, constants.c0)
            slack = 3 * np.sqrt(bound * (1 - bound) / 10_000)
            assert frequency <= bound + slack + 1e-12


class TestPruningEffect:
    def test_long_run_never_reaches_the_threshold(self, miqp_small):
        # 200 canonical iterations: token merging keeps every surviving
        # weight far above the threshold, so no atom is ever pruned after
        # the first step (omega = 1 replaces the start profile).
        profile, records = aggfw.fw_run(miqp_small, 200)
        assert min(w for measure in profile.measures for w in measure.weights) >= PRUNE_WEIGHT
        sizes = np.array([r.support_sizes for r in records[1:]])
        assert (np.diff(sizes, axis=0) >= 0).all()
