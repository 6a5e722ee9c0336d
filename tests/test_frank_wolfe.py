import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import aggfw
from aggfw import rng as _rng
from aggfw.bounds import compute_constants
from aggfw.frank_wolfe import (
    CanonicalStep,
    FwRecord,
    LineSearchFwStep,
    LineSearchSfwStep,
    dual_gap_beta,
    fw_run,
    fw_with_selection,
    quadratic_curvature,
)
from aggfw.measures import MeasureProfile, _Atoms, mix, relaxed_objective, select_best
from aggfw.problems import (
    Aggregate,
    DecisionProfile,
    aggregate_of,
    linearized_best_response,
    zero_gradient_profile,
)
from conftest import INSTANCES, CountingInstance, TableInstance, signed_zero_tables


class TestStepRules:
    def test_canonical_first_step_is_one(self):
        rule = CanonicalStep()
        assert rule.omega(0) == 1.0
        assert rule.omega(2) == 0.5

    def test_line_search_clamps_at_one(self):
        rule = LineSearchFwStep()
        assert rule.omega(3, beta=5.0, curvature=2.0) == 1.0
        assert rule.omega(3, beta=1.0, curvature=4.0) == 0.25

    def test_line_search_degenerate_curvature(self):
        assert LineSearchFwStep().omega(3, beta=0.0, curvature=0.0) == 0.0

    def test_sfw_rule_clamps_at_zero(self):
        rule = LineSearchSfwStep(c1=10.0, n_agents=5)
        assert rule.omega(0, beta=1.0) == 0.0  # beta == C1/(2N) exactly
        assert rule.omega(0, beta=0.5) == 0.0

    def test_sfw_rule_interior_value(self):
        rule = LineSearchSfwStep(c1=10.0, n_agents=5)
        assert rule.omega(0, beta=5.0) == pytest.approx((5.0 - 1.0) / 8.0, rel=1e-12)

    def test_sfw_rule_single_agent(self):
        rule = LineSearchSfwStep(c1=4.0, n_agents=1)
        assert rule.omega(0, beta=3.0) == 1.0
        assert rule.omega(0, beta=1.0) == 0.0

    @pytest.mark.parametrize("c1", [-1.0, math.nan, math.inf])
    def test_sfw_rule_rejects_a_bad_curvature_constant(self, c1):
        with pytest.raises(ValueError, match="curvature constant must be nonnegative and finite"):
            LineSearchSfwStep(c1, 10)

    def test_rules_stay_in_unit_interval(self):
        gen = np.random.default_rng(0)
        sfw = LineSearchSfwStep(c1=3.0, n_agents=7)
        for _ in range(200):
            beta, curvature = gen.exponential(), gen.exponential()
            assert 0.0 <= LineSearchFwStep().omega(1, beta=beta, curvature=curvature) <= 1.0
            assert 0.0 <= sfw.omega(1, beta=beta) <= 1.0


class TestDualGap:
    def test_zero_gap_at_fixed_point(self, miqp_small):
        y = Aggregate(np.full(3, 0.2), miqp_small.block_dims)
        assert dual_gap_beta(miqp_small, y, y) == 0.0

    def test_small_at_relaxed_optimum(self, miqp_small, miqp_small_reference):
        y = miqp_small_reference.y
        _, ybar = linearized_best_response(miqp_small, y)
        assert dual_gap_beta(miqp_small, y, ybar) <= 1e-6

    def test_upper_bounds_primal_gap(self, miqp_small, miqp_small_reference):
        gen = np.random.default_rng(6)
        for _ in range(10):
            mu = aggfw.bernoulli_profile(miqp_small, gen.random(10))
            y = mu.mean_aggregate(miqp_small)
            _, ybar = linearized_best_response(miqp_small, y)
            beta = dual_gap_beta(miqp_small, y, ybar)
            gap = relaxed_objective(miqp_small, mu) - miqp_small_reference.value
            assert gap <= beta + 1e-9

    def test_detects_broken_best_response(self, miqp_small):
        y = Aggregate(np.zeros(3), miqp_small.block_dims)
        # A deliberately bad "best response": worse than y in the
        # linearized model, which makes the gap negative.
        grad = miqp_small.f_grad(y)
        bad = Aggregate(y.values + 0.5 * np.sign(grad.values), miqp_small.block_dims)
        with pytest.raises(ValueError, match="negative"):
            dual_gap_beta(miqp_small, y, bad)

    def test_a_gap_below_zero_by_rounding_is_returned(self):
        # At k = 5, y and ybar agree to within rounding: the gap is -7.0e-18, and the terms
        # |grad_j (y_j - ybar_j)| sum to 7.4e-18 only; |grad| @ (|y| + |ybar|) bounds them.
        _, records = fw_run(signed_zero_tables(425), 5, rule=CanonicalStep())
        assert records[-1].beta.hex() == "-0x1.0391361670aa8p-57"


class TestDualGapAtScale:
    """The relative tolerance of ``dual_gap_beta`` against rescaled instances.

    Scaling A and the target by s scales the gradient and the aggregate by
    s, so beta scales by s^2.  A correct oracle keeps beta positive at any
    scale; a wrong one turns it negative at any scale.
    """

    @pytest.mark.parametrize("scale", [1e5, 1e8])
    @pytest.mark.parametrize(
        "rule", [CanonicalStep(), LineSearchFwStep()], ids=["canonical", "ls-fw"]
    )
    def test_rescaled_instance_runs_clean(self, scale, rule):
        base = aggfw.generate(10, 50, seed=0)
        scaled = aggfw.MiqpInstance(scale * base.matrix, scale * base.target)
        _, records = fw_run(scaled, 500, rule=rule)
        assert min(record.beta for record in records) > 0.0

    @pytest.mark.parametrize("scale", [2.0**-40, 1.0, 1e5, 2.0**40])
    def test_wrong_oracle_still_raises(self, scale):
        class FlippedOracle(aggfw.MiqpInstance):
            def best_response_all(self, grad, agents=None):
                return [1 - d for d in super().best_response_all(grad, agents)]

        base = aggfw.generate(10, 50, seed=0)
        flipped = FlippedOracle(scale * base.matrix, scale * base.target)
        with pytest.raises(ValueError, match="dual gap .* is negative"):
            fw_run(flipped, 5, initial=DecisionProfile((0, 1) * 25))

    @pytest.mark.parametrize("scale", [2.0**-20, 2.0**20])
    def test_every_record_scales_exactly(self, scale):
        # A power of two scales each float operation exactly: objective and beta by s^2,
        # and nothing else in a record (steps, supports, draws, acceptances) moves.
        base = aggfw.generate(10, 50, seed=0)
        scaled = aggfw.MiqpInstance(scale * base.matrix, scale * base.target)
        constants = [compute_constants(p) for p in (base, scaled)]
        runs = [
            lambda p, c: fw_run(p, 30)[1],
            lambda p, c: fw_run(p, 30, rule=LineSearchFwStep())[1],
            lambda p, c: aggfw.sfw_run(p, 30, aggfw.ConstantSchedule(5), seed=3)[1],
            lambda p, c: aggfw.sfw_run(p, 30, aggfw.QuadraticSchedule(24), seed=3,
                                       rule=LineSearchSfwStep.from_constants(c))[1],
            lambda p, c: aggfw.stopping_time_run(p, 30, seed=3)[1],
        ]
        for run in runs:
            records, scaled_records = (run(p, c) for p, c in zip((base, scaled), constants))
            assert len(records) == len(scaled_records)
            for r, t in zip(records, scaled_records):
                unscaled = dataclasses.replace(t, objective=t.objective / scale**2,
                                               beta=t.beta / scale**2, wall_ms=r.wall_ms)
                assert repr(unscaled) == repr(r)  # repr: the terminal omega is NaN


class TestFwRun:
    def test_first_step_replaces_dirac_start(self, miqp_small):
        # omega_0 = 1 under the canonical rule: mu^1 is the Dirac profile
        # at the best response of the starting aggregate.
        start = zero_gradient_profile(miqp_small)
        profile, records = fw_run(miqp_small, 1)
        y0 = MeasureProfile.dirac(start).mean_aggregate(miqp_small)
        xbar, _ = linearized_best_response(miqp_small, y0)
        assert profile == MeasureProfile.dirac(xbar)
        assert records[0].omega == 1.0
        assert len(records) == 2  # one iteration plus the terminal record

    @pytest.mark.parametrize("seed", [0, 7])
    def test_canonical_rate_bound(self, seed):
        inst = aggfw.generate(4, 12, seed=seed)
        reference = inst.relaxed_optimum(tol=1e-10)
        constants = compute_constants(inst)
        _, records = fw_run(inst, 150)
        for record in records[1:]:
            gap = record.objective - reference.value
            assert gap <= 2 * constants.c1 / record.k + 1e-12

    def test_gamma_below_beta_throughout(self, miqp_small, miqp_small_reference):
        _, records = fw_run(miqp_small, 100, rule=LineSearchFwStep())
        for record in records:
            gap = record.objective - miqp_small_reference.value
            assert gap <= record.beta + 1e-9

    def test_rerun_is_bit_identical(self, miqp_small):
        _, first = fw_run(miqp_small, 60)
        _, second = fw_run(miqp_small, 60)
        assert [(r.objective, r.beta) for r in first] == [
            (r.objective, r.beta) for r in second
        ]
        assert [r.omega for r in first[:-1]] == [r.omega for r in second[:-1]]

    def test_one_gradient_per_linearization(self, miqp_small):
        counting = CountingInstance(miqp_small)
        _, records = fw_run(counting, 12, rule=LineSearchFwStep())
        assert counting.grads == len(records) == 13

    def test_line_search_model_never_worse_than_canonical(self, miqp_small):
        # Replay the run manually to compare the quadratic model value of
        # the chosen step against the canonical step at the same iterate.
        rule = LineSearchFwStep()
        profile = MeasureProfile.dirac(zero_gradient_profile(miqp_small))
        y = profile.mean_aggregate(miqp_small)
        for k in range(60):
            _, ybar = linearized_best_response(miqp_small, y)
            beta = dual_gap_beta(miqp_small, y, ybar)
            curvature = quadratic_curvature(miqp_small, y, ybar)
            omega_ls = rule.omega(k, beta=beta, curvature=curvature)
            omega_can = CanonicalStep().omega(k)

            def model(w):
                return -w * beta + 0.5 * curvature * w * w

            assert model(omega_ls) <= model(omega_can) + 1e-12
            y = Aggregate((1.0 - omega_ls) * y.values + omega_ls * ybar.values, y.block_dims)

    def test_support_growth_is_recorded(self, miqp_small):
        _, records = fw_run(miqp_small, 30)
        assert all(min(r.support_sizes) >= 1 for r in records)
        assert all(max(r.support_sizes) <= 2 for r in records)  # binary tokens merge

    @pytest.mark.parametrize("omega", [1.5, -0.25, math.nan])
    def test_a_step_size_outside_the_unit_interval_raises(self, miqp_small, omega):
        with pytest.raises(ValueError, match=r"mixing weight must lie in \[0, 1\]"):
            fw_run(miqp_small, 3, rule=ScriptedStep((0.5, omega)))

    def test_rejects_zero_iterations(self, miqp_small):
        with pytest.raises(ValueError):
            fw_run(miqp_small, 0)

    def test_rejects_an_invalid_initial_token(self):
        counting = CountingInstance(aggfw.generate(3, 5, seed=0))
        with pytest.raises(ValueError, match="invalid decision token 2 for agent 2"):
            fw_run(counting, 3, initial=DecisionProfile((0, 0, 2, 0, 0)))
        assert counting.grads == 0

    def test_rejects_an_initial_profile_of_the_wrong_arity(self):
        with pytest.raises(ValueError, match="profile has 3 decisions, problem has 5 agents"):
            fw_run(aggfw.generate(3, 5, seed=0), 3, initial=DecisionProfile((0, 0, 0)))

    def test_builds_rows_only_for_changed_best_responses(self, miqp_small):
        # N rows for the start and N for the first best responses, then 29
        # for those that changed over the next 12 linearizations; rebuilding
        # every best response took N + 13 N = 140.
        counting = CountingInstance(miqp_small)
        fw_run(counting, 12, rule=LineSearchFwStep())
        assert counting.rows == 2 * miqp_small.n_agents + 29


def _reference_fw(problem, n_iters, rule):
    """fw_run as a loop that rebuilds the best-response aggregate every
    iteration with ``aggregate_of``."""
    profile = MeasureProfile.dirac(zero_gradient_profile(problem))
    y, records = profile.mean_aggregate(problem), []
    for k in range(n_iters + 1):
        grad = problem.f_grad(y)
        xbar = DecisionProfile(tuple(problem.best_response_all(grad)))
        ybar = aggregate_of(problem, xbar)
        beta = dual_gap_beta(problem, y, ybar, grad=grad)
        value = problem.f_value(y)
        if k == n_iters:
            records.append(FwRecord(k, value, beta, math.nan, profile.support_sizes, 0.0))
            return profile, records
        omega = rule.omega(k, beta=beta, curvature=quadratic_curvature(problem, y, ybar))
        records.append(FwRecord(k, value, beta, omega, profile.support_sizes, 0.0))
        profile = mix(profile, MeasureProfile.dirac(xbar), omega)
        y = Aggregate((1.0 - omega) * y.values + omega * ybar.values, y.block_dims)


def _bits(records):
    return [tuple(map(repr, dataclasses.astuple(dataclasses.replace(r, wall_ms=0.0))))
            for r in records]


@dataclasses.dataclass(frozen=True)
class ScriptedStep:
    """Step sizes taken in turn from ``omegas``."""

    omegas: tuple

    def omega(self, k, beta=None, curvature=None):
        return self.omegas[k % len(self.omegas)]


RULES = {"canonical": CanonicalStep(), "ls-fw": LineSearchFwStep()}

# A run that reaches each branch of ``_Atoms`` named by ``_reached``: (instance, seed,
# rule, iterations, scripted step sizes).
BRANCH_EXAMPLES = {
    "compaction": ("miqp", 1, "ls-fw", 3, [0.5]),
    "edge-append": ("cycling-table", 0, "canonical", 8, [0.5]),
    "equal-token": ("float-responses", 0, "ls-fw", 8, [0.5]),
}


def _reached(problem, n_iters, rule, monkeypatch):
    """The branches of ``_Atoms`` that ``fw_run`` reaches: a compaction after a step of
    omega = 1 past the first, an append into the last row of a storage of two rows or
    more, and an agent left unmatched whose token is an ``==``-equal object of another type
    than its atom."""
    reached, compacted, add, settle = set(), [], _Atoms.add, _Atoms.settle

    def spy_add(self, tokens, weights, moved):
        width, rows = int(self.sizes.max()), len(self.weights)
        if not self.stale:
            rest = np.setdiff1d(self.columns, moved)
            atoms = self.tokens[self.slots[rest], rest]
            if any(type(a) is not type(t) for a, t in zip(atoms, tokens[rest])):
                reached.add("equal-token")
        add(self, tokens, weights, moved)
        if rows == width >= 2 and self.sizes.max() > width:
            reached.add("edge-append")

    def spy_settle(self):
        profile = settle(self)
        compacted.append(self.stale)
        return profile

    monkeypatch.setattr(_Atoms, "add", spy_add)
    monkeypatch.setattr(_Atoms, "settle", spy_settle)
    _, records = fw_run(problem, n_iters, rule=rule)
    if any(c and r.omega == 1.0 for c, r in zip(compacted[1:], records[1:])):
        reached.add("compaction")
    return reached


class TestHeldRowsEquivalence:
    """``fw_run`` against ``_reference_fw``, the ``mix`` loop, bit for bit: every record,
    the final weights and token objects, padding included.  Scripted step sizes add steps
    of 0 (an atom of weight 0 appended, then pruned), of 1 and below ``PRUNE_WEIGHT``."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(INSTANCES)), st.integers(0, 999),
           st.sampled_from(["canonical", "ls-fw", "scripted"]), st.integers(1, 25),
           st.lists(st.sampled_from([0.0, 1.0, 1e-13]) | st.floats(0.0, 1.0), min_size=1,
                    max_size=4))
    @example(*BRANCH_EXAMPLES["compaction"])
    @example(*BRANCH_EXAMPLES["edge-append"])
    @example(*BRANCH_EXAMPLES["equal-token"])
    def test_fw_run_matches_the_aggregate_of_loop(self, name, seed, rule, n_iters, omegas):
        problem = INSTANCES[name](seed)
        rule = RULES.get(rule, ScriptedStep(tuple(omegas)))
        profile, records = fw_run(problem, n_iters, rule=rule)
        profile_ref, records_ref = _reference_fw(problem, n_iters, rule)
        assert _bits(records) == _bits(records_ref)
        assert profile.weights.tobytes() == profile_ref.weights.tobytes()
        assert profile.weights.shape == profile_ref.weights.shape
        assert repr(profile.tokens) == repr(profile_ref.tokens)  # the same token objects
        assert profile.support_sizes == profile_ref.support_sizes

    @pytest.mark.parametrize("branch", sorted(BRANCH_EXAMPLES))
    def test_each_example_reaches_its_branch(self, branch, monkeypatch):
        name, seed, rule, n_iters, _ = BRANCH_EXAMPLES[branch]
        assert branch in _reached(INSTANCES[name](seed), n_iters, RULES[rule], monkeypatch)


class TestFwThenSelection:
    """``fw_run`` then ``select_best`` on ``miqp_small``: digests of the records (as
    ``_bits``), terminal objective and beta, and the selection, pinned bit for bit."""

    @pytest.mark.parametrize("rule, digest, objective, beta", [
        (CanonicalStep(), "a3a9dcd033d058f3", "0x1.a41081aecdaebp-6", "0x1.b3f61c38fff45p-10"),
        (LineSearchFwStep(), "698111e4ed106fe7", "0x1.9c19a85bea699p-6", "0x1.d1eafea47df9dp-12"),
    ])
    def test_records_and_selection_are_pinned(self, miqp_small, rule, digest, objective, beta):
        profile, records = fw_run(miqp_small, 15, rule=rule)
        assert hashlib.sha256(repr(_bits(records)).encode()).hexdigest()[:16] == digest
        assert (records[-1].objective.hex(), records[-1].beta.hex()) == (objective, beta)
        decisions, value = select_best(miqp_small, profile, 25, _rng.stream(3, _rng.SELECTION))
        assert value.hex() == "0x1.aa70c3c7bb5cep-6"
        assert decisions.decisions == (0, 1, 0, 0, 1, 0, 0, 1, 0, 0)


def wide_tables():
    """Six agents with 8 to 12 decisions each in R^4: Frank-Wolfe grows supports of up to
    9 atoms within 60 iterations."""
    rng = np.random.default_rng(2)
    tables = [rng.normal(size=(8 + i % 5, 4)) for i in range(6)]
    return TableInstance(tables, target=rng.normal(size=4) * 0.3)


class TestWideSupportTrajectory:
    """``fw_run`` on ``wide_tables``, 60 iterations: digests of the records (as
    ``_bits``) and of the final weights' bits, and the final tokens, pinned."""

    @pytest.mark.parametrize("rule, digest, weights, tokens", [
        (CanonicalStep(), "af0b36c9d5d0f62a", "c1104267a3d4a65f",
         [(1, 0, 7, 6, 2), (3, 8, 6, 7, 2, 4, 5), (2, 5, 9, 8, 6, 4, 0, 7),
          (9, 0, 7, 1, 2, 10, 4), (6, 11, 10, 4, 9, 8, 7), (7, 5, 1, 0, 4)]),
        (LineSearchFwStep(), "69891ae5cd5d1883", "7ebe6d68d2079249",
         [(0, 1), (0, 3, 6, 2, 8, 5), (0, 2, 9, 4, 6, 5, 8), (0, 9, 7, 10, 4, 2),
          (0, 6, 4, 7, 10, 8, 3, 9, 11), (0, 7, 5, 1)]),
    ])
    def test_records_weights_and_tokens_are_pinned(self, rule, digest, weights, tokens):
        profile, records = fw_run(wide_tables(), 60, rule=rule)
        assert max(max(r.support_sizes) for r in records) >= 8
        assert hashlib.sha256(repr(_bits(records)).encode()).hexdigest()[:16] == digest
        assert hashlib.sha256(profile.weights.tobytes()).hexdigest()[:16] == weights
        assert [m.decisions for m in profile.measures] == tokens


class TestFwWithSelection:
    def test_recommended_draws_match_bound_formula(self, miqp_small):
        constants = compute_constants(miqp_small)
        result = fw_with_selection(miqp_small, 10, n_select=5, seed=0)
        expected = aggfw.sample_size_for_confidence(
            10, 10, 0.1, constants.c0, constants.c1
        )
        assert result.recommended_draws == expected

    @pytest.mark.parametrize("n_select, seed, name", [(2.5, 0, "n_select"), (0, 0, "n_select"),
                                                      (True, 0, "n_select"), (5, -1, "seed"),
                                                      (5, 1.5, "seed")])
    def test_bad_selection_arguments_fail_before_any_iteration(self, miqp_small, n_select, seed,
                                                                name):
        counting = CountingInstance(miqp_small)
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            fw_with_selection(counting, 200, n_select, seed)
        assert counting.grads == 0 and counting.calls == 0

    @pytest.mark.parametrize("n_iters", [10, 11])  # N = 10: with and without a recommendation
    @pytest.mark.parametrize("zeta", [0.0, 1.0, 1.5, -0.1, math.nan])
    def test_bad_zeta_fails_before_any_iteration(self, miqp_small, n_iters, zeta):
        counting = CountingInstance(miqp_small)
        with pytest.raises(ValueError, match="confidence level zeta must lie in"):
            fw_with_selection(counting, n_iters, 5, 0, zeta=zeta)
        assert counting.grads == 0 and counting.calls == 0

    def test_long_runs_warn_and_skip_recommendation(self, miqp_small):
        with pytest.warns(UserWarning, match="up to N"):
            result = fw_with_selection(miqp_small, 11, n_select=3, seed=0)
        assert result.recommended_draws is None

    def test_selection_guarantee_success_rate(self):
        # k = K = N with zeta = 0.1: the guaranteed success probability is
        # 0.9, so 50 trials should succeed at least 39 times (3-sigma
        # binomial slack below the 45 expected successes).
        inst = aggfw.generate(5, 20, seed=21)
        reference = inst.relaxed_optimum(tol=1e-9)
        constants = compute_constants(inst)
        draws = aggfw.sample_size_for_confidence(20, 20, 0.1, constants.c0, constants.c1)
        successes = 0
        for seed in range(50):
            result = fw_with_selection(inst, 20, n_select=draws, seed=seed)
            successes += (result.value - reference.value) < 3 * constants.c1 / 20
        assert successes >= 39
