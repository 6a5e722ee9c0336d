import itertools

import numpy as np
import pytest

import aggfw
from aggfw.bounds import compute_constants, gap_bound_basic, gap_bound_refined
from aggfw.oracles import (
    RecursionHypothesisError,
    brute_force_optimum,
    check_recursion_bound,
    mc_check_bernoulli_increment,
)
from aggfw.problems import DecisionProfile, objective


def equality_recursion(c, u, gamma0):
    gamma = [gamma0]
    for k, u_k in enumerate(u):
        omega = 2.0 / (k + 2.0)
        gamma.append((1.0 - omega) * gamma[-1] + c * omega**2 + u_k)
    return np.array(gamma)


class TestBruteForce:
    def test_balanced_signs_four_agents(self):
        result = brute_force_optimum(aggfw.BalancedSignsInstance(4))
        assert result.value == pytest.approx(-1.0, abs=1e-15)
        assert result.count == 16
        assert len(result.optimizers) == 6  # the balanced profiles
        for profile in result.optimizers:
            assert sum(profile.decisions) == 0

    def test_single_agent_picks_smaller_of_two(self):
        inst = aggfw.MiqpInstance(np.array([[1.0], [2.0]]), np.array([0.8, 1.5]))
        result = brute_force_optimum(inst)
        both = [objective(inst, DecisionProfile((d,))) for d in (0, 1)]
        assert result.value == min(both)
        assert result.count == 2

    def test_matches_independent_enumeration(self, miqp_small):
        result = brute_force_optimum(miqp_small)
        values = [
            float(np.sum((miqp_small.matrix @ np.array(bits) - miqp_small.target) ** 2)) / 100
            for bits in itertools.product((0.0, 1.0), repeat=10)
        ]
        assert result.count == 1024
        assert result.value == pytest.approx(min(values), rel=1e-12)

    def test_rejects_oversized_enumeration(self):
        with pytest.raises(ValueError, match="cap"):
            brute_force_optimum(aggfw.generate(2, 25, seed=0))

    @pytest.mark.parametrize("n_agents", range(4, 13))
    def test_balanced_family_optimum(self, n_agents):
        # Even N balances exactly (J* = -1); odd N is off by one sign,
        # leaving a squared mean of 1/N^2.
        result = brute_force_optimum(aggfw.BalancedSignsInstance(n_agents))
        expected = -1.0 if n_agents % 2 == 0 else -1.0 + 1.0 / n_agents**2
        assert result.value == pytest.approx(expected, abs=1e-12)


class TestSandwich:
    @pytest.mark.parametrize("seed", [30, 31, 32])
    def test_brute_force_respects_gap_bounds(self, seed):
        inst = aggfw.generate(3, 10, seed=seed)
        constants = compute_constants(inst)
        reference = inst.relaxed_optimum(tol=1e-10)
        brute = brute_force_optimum(inst)
        assert reference.value <= brute.value + 1e-9
        assert brute.value - reference.value <= gap_bound_refined(constants) + 1e-9
        assert gap_bound_refined(constants) <= gap_bound_basic(constants) + 1e-15


class TestRecursionBound:
    def test_equality_recursion_satisfies_bound(self):
        u = np.zeros(10_000)
        gamma = equality_recursion(2.5, u, gamma0=2.5)
        assert check_recursion_bound(2.5, u, gamma)

    def test_zero_sequences_pass(self):
        assert check_recursion_bound(1.0, np.zeros(50), np.zeros(51))

    def test_random_noise_terms_pass(self):
        gen = np.random.default_rng(12)
        for _ in range(20):
            u = gen.exponential(scale=0.1, size=200)
            gamma = equality_recursion(1.7, u, gamma0=gen.uniform(0, 1.7))
            assert check_recursion_bound(1.7, u, gamma)

    def test_inflated_gamma_is_localized(self):
        u = np.zeros(100)
        gamma = equality_recursion(1.0, u, gamma0=1.0)
        gamma[40] += 1.0
        with pytest.raises(RecursionHypothesisError) as info:
            check_recursion_bound(1.0, u, gamma)
        assert info.value.index == 39  # the transition into step 40 breaks

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError, match="one more"):
            check_recursion_bound(1.0, np.zeros(5), np.zeros(5))


class TestBernoulliIncrement:
    @staticmethod
    def gaussian(rng):
        return float(rng.normal())

    def test_pure_bernoulli_jump_is_tight(self):
        # F = delta * B: the second-moment bound holds with equality.
        report = mc_check_bernoulli_increment(
            omega=0.3,
            delta=2.0,
            f=lambda a, b, c: 2.0 * b,
            sample_a=self.gaussian,
            sample_c=self.gaussian,
            rng=np.random.default_rng(0),
            n_samples=20_000,
            n_inner=1,
        )
        assert report.ok
        assert report.mean_u2 == pytest.approx(report.u2_bound, rel=0.05)

    def test_constant_in_b_gives_zero_increment(self):
        report = mc_check_bernoulli_increment(
            omega=0.5,
            delta=1.0,
            f=lambda a, b, c: a + c,
            sample_a=self.gaussian,
            sample_c=self.gaussian,
            rng=np.random.default_rng(1),
            n_samples=2_000,
            n_inner=4,
        )
        assert report.ok
        assert report.mean_u == 0.0 and report.max_u == 0.0

    def test_symmetric_inner_variable(self):
        report = mc_check_bernoulli_increment(
            omega=0.5,
            delta=1.0,
            f=lambda a, b, c: b * (1.0 if c >= 0 else -1.0),
            sample_a=self.gaussian,
            sample_c=self.gaussian,
            rng=np.random.default_rng(2),
            n_samples=5_000,
            n_inner=64,
        )
        assert report.ok

    def test_detects_premise_violation(self):
        with pytest.raises(ValueError, match="premise"):
            mc_check_bernoulli_increment(
                omega=0.5,
                delta=0.5,
                f=lambda a, b, c: 2.0 * b,
                sample_a=self.gaussian,
                sample_c=self.gaussian,
                rng=np.random.default_rng(3),
                n_samples=10,
                n_inner=1,
            )

    @pytest.mark.parametrize("omega", [-0.1, 1.5])
    def test_rejects_omega_outside_unit_interval(self, omega):
        with pytest.raises(ValueError, match=rf"omega must lie in \[0, 1\], got {omega}"):
            mc_check_bernoulli_increment(omega, 1.0, lambda a, b, c: b, self.gaussian,
                                         self.gaussian, np.random.default_rng(0))
