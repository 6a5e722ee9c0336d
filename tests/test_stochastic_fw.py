import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import aggfw
from aggfw import rng as _rng
from aggfw import stochastic_fw
from aggfw.bounds import ProblemConstants, compute_constants
from aggfw.frank_wolfe import CanonicalStep, LineSearchFwStep, LineSearchSfwStep, dual_gap_beta
from aggfw.frank_wolfe import fw_run
from aggfw.problems import Aggregate, DecisionProfile, linearized_best_response, objective
from aggfw.problems import aggregate_of, contribution_rows, profile_rows, zero_gradient_profile
from aggfw.stochastic_fw import (
    ConstantSchedule,
    QuadraticSchedule,
    _apply_switches,
    _linearize,
    _Run,
    bernoulli_matrix,
    canonical_active_expectation,
    default_draw_cap,
    sfw_run,
    sfw_step,
    stopping_time_run,
    stopping_time_step,
)
from conftest import INSTANCES, CountingInstance, TableInstance, cycling_tables, gradient_runs


class NanAwayFrom(TableInstance):
    """Two agents choosing 0 or 1 (scalar contributions 0 and 1) under the
    target 1, with f finite only at the aggregate ``point``."""

    def __init__(self, point):
        super().__init__([[[0.0], [1.0]]] * 2, target=[1.0])
        self.point = np.array([point])

    def f_value(self, y):
        return super().f_value(y) if np.array_equal(y.values, self.point) else math.nan


class RejectsOne(TableInstance):
    """A table instance whose agent 1 prefers token 1 but may not hold it."""

    def __init__(self):
        super().__init__([[[0.0], [1.0]]] * 2, target=[1.0])

    def validate_decision(self, i, decision):
        return super().validate_decision(i, decision) and (i, decision) != (1, 1)


class TestSchedules:
    def test_constant(self):
        assert ConstantSchedule(7).size(3, 100) == 7

    def test_quadratic_values(self):
        schedule = QuadraticSchedule(24.0)
        assert schedule.size(0, 30) == 1
        assert schedule.size(5, 30) == math.ceil(24 * 25 / 30)
        assert schedule.size(59, 30) == math.ceil(24 * 59**2 / 30)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ConstantSchedule(0)
        with pytest.raises(ValueError):
            QuadraticSchedule(0.0)

    @pytest.mark.parametrize("n", [math.nan, 2.5, 3.0, True, np.bool_(True), "3", -2, None])
    def test_constant_rejects_a_count_it_cannot_run(self, n):
        with pytest.raises(ValueError, match="integer"):
            ConstantSchedule(n)

    def test_constant_accepts_numpy_integers(self, miqp_small):
        schedule = ConstantSchedule(np.int64(3))
        _, records = sfw_run(miqp_small, 2, schedule, seed=0)
        assert [r.n_draws for r in records[:-1]] == [3, 3]

    @pytest.mark.parametrize("bad", [0, -1, 2.0, math.nan, True, np.float64(4.0)])
    def test_sfw_run_checks_every_size_before_iteration_0(self, miqp_small, bad):
        class Custom:
            def size(self, k, n_agents):
                return bad if k == 3 else 2

        seen = []
        with pytest.raises(ValueError, match="iteration 3"):
            sfw_run(miqp_small, 5, Custom(), seed=0, callback=seen.append)
        assert seen == []

    @pytest.mark.parametrize("a", [math.nan, math.inf])
    def test_quadratic_rejects_non_finite_coefficient(self, a):
        with pytest.raises(ValueError, match="finite"):
            QuadraticSchedule(a)


class TestSfwStep:
    def test_zero_omega_never_solves_or_moves(self, miqp_small):
        counting = CountingInstance(miqp_small)
        start = zero_gradient_profile(miqp_small)
        nxt, record = sfw_step(
            counting, start, 3, 0.0, 5, _rng.stream(0, _rng.BERNOULLI, 0, 3),
            keep_if_worse=False,
        )
        assert counting.calls == 0
        assert record.active_count == 0
        assert nxt == start

    def test_omega_one_switches_every_agent(self, miqp_small):
        start = zero_gradient_profile(miqp_small)
        nxt, record = sfw_step(
            miqp_small, start, 0, 1.0, 3, _rng.stream(0, _rng.BERNOULLI, 0, 0)
        )
        xbar, _ = linearized_best_response(
            miqp_small, aggregate_of(miqp_small, start)
        )
        assert record.active_count == miqp_small.n_agents
        # All candidates coincide with the full best response.
        if objective(miqp_small, xbar) < record.objective:
            assert nxt == xbar

    def test_candidates_follow_switch_pattern(self):
        # Gradient is negative everywhere at the all-zeros profile with a
        # large target, so the best response is all-ones: the accepted
        # candidate reveals its switch row exactly.
        inst = aggfw.MiqpInstance(
            np.array([[1.0, 0.8, 0.6, 0.4]]), np.array([10.0])
        )
        start = DecisionProfile((0, 0, 0, 0))
        gen = _rng.stream(5, _rng.BERNOULLI, 0, 2)
        expected = bernoulli_matrix(_rng.stream(5, _rng.BERNOULLI, 0, 2), 4, 4, 0.4)
        nxt, record = sfw_step(inst, start, 2, 0.4, 4, gen, keep_if_worse=False)
        candidates = expected.astype(int)
        values = inst.f_value_batch(
            (candidates @ inst.matrix.T) / 4.0
        )
        best = int(np.argmin(values))
        assert nxt.decisions == tuple(int(v) for v in candidates[best])

    def test_switch_law_is_bernoulli_independent(self):
        # Chi-square over the 16 switch patterns of 4 agents at fixed
        # (k, j), 10^4 replays: must match the independent product law.
        omega, n_agents, replays = 0.37, 4, 10_000
        counts = np.zeros(16)
        for rep in range(replays):
            row = bernoulli_matrix(_rng.stream(rep, _rng.BERNOULLI, 2, 7), 1, n_agents, omega)[0]
            counts[int(np.dot(row, 1 << np.arange(n_agents)))] += 1
        stat = 0.0
        for pattern in range(16):
            bits = [(pattern >> b) & 1 for b in range(n_agents)]
            prob = np.prod([omega if b else 1 - omega for b in bits])
            stat += (counts[pattern] - replays * prob) ** 2 / (replays * prob)
        assert stat < 37.7  # chi-square(15) quantile at p = 0.001

    def test_keep_if_worse_controls_acceptance(self, miqp_small):
        x_opt = aggfw.brute_force_optimum(miqp_small).optimizers[0]
        # From the exact optimum every candidate is at best equal: with
        # keep_if_worse the iterate must not move.
        nxt, record = sfw_step(
            miqp_small, x_opt, 1, 0.5, 8, _rng.stream(1, _rng.BERNOULLI, 0, 1),
            keep_if_worse=True,
        )
        assert nxt == x_opt and not record.accepted

    def test_rejects_bad_arguments(self, miqp_small):
        start = zero_gradient_profile(miqp_small)
        with pytest.raises(ValueError):
            sfw_step(miqp_small, start, 0, 1.5, 1, _rng.stream(0))
        with pytest.raises(ValueError):
            sfw_step(miqp_small, start, 0, 0.5, 0, _rng.stream(0))
        with pytest.raises(ValueError, match=r"switch probability must lie in \[0, 1\], got 1.5"):
            stopping_time_step(miqp_small, start, 4, 1.5, _rng.stream(0))

    @pytest.mark.parametrize("omega", [math.nan, 1.5, -0.1])
    def test_bernoulli_matrix_rejects_a_switch_probability_outside_the_unit_interval(self, omega):
        # NaN gave all-False rows and 1.5 all-True rows.
        message = rf"switch probability must lie in \[0, 1\], got {omega}"
        with pytest.raises(ValueError, match=message):
            bernoulli_matrix(_rng.stream(0), 2, 3, omega)

    @pytest.mark.parametrize("n_draws", [True, 2.5, 3.0, math.nan])
    def test_rejects_a_draw_count_that_is_not_an_integer(self, miqp_small, n_draws):
        start = zero_gradient_profile(miqp_small)
        with pytest.raises(ValueError, match="integer"):
            sfw_step(miqp_small, start, 0, 0.5, n_draws, _rng.stream(0))


class TestSfwRun:
    def test_fixed_seed_trajectory_is_bit_identical(self, miqp_small):
        xa, ra = sfw_run(miqp_small, 15, ConstantSchedule(6), seed=9)
        xb, rb = sfw_run(miqp_small, 15, ConstantSchedule(6), seed=9)
        assert xa == xb
        assert [(r.objective, r.active_count, r.accepted) for r in ra] == [
            (r.objective, r.active_count, r.accepted) for r in rb
        ]

    def test_speed_up_equivalence(self, miqp_medium):
        xa, ra = sfw_run(miqp_medium, 20, ConstantSchedule(2), seed=3, use_active_set=True)
        xb, rb = sfw_run(miqp_medium, 20, ConstantSchedule(2), seed=3, use_active_set=False)
        assert xa == xb
        assert [r.objective for r in ra] == [r.objective for r in rb]
        assert [r.active_count for r in ra] == [r.active_count for r in rb]

    def test_single_agent_is_monotone_with_keep(self):
        inst = aggfw.MiqpInstance(np.array([[1.0], [0.5]]), np.array([0.6, 0.1]))
        _, records = sfw_run(inst, 2, ConstantSchedule(1), seed=0, keep_if_worse=True)
        values = [r.objective for r in records]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))

    def test_warns_beyond_proven_range(self, miqp_small):
        with pytest.warns(UserWarning, match="2N"):
            sfw_run(miqp_small, 21, ConstantSchedule(1), seed=0)

    def test_line_search_rule_records_beta(self, miqp_small):
        rule = LineSearchSfwStep.from_constants(compute_constants(miqp_small))
        _, records = sfw_run(miqp_small, 8, ConstantSchedule(4), seed=2, rule=rule)
        assert all(np.isfinite(r.beta) for r in records[:-1])
        assert all(r.beta >= -1e-9 for r in records[:-1])

    def test_line_search_rule_solves_each_subproblem_once(self, miqp_small):
        counting = CountingInstance(miqp_small)
        rule = LineSearchSfwStep.from_constants(compute_constants(miqp_small))
        start = zero_gradient_profile(miqp_small)
        sfw_run(counting, 8, ConstantSchedule(4), seed=2, rule=rule, initial=start)
        n, runs = miqp_small.n_agents, gradient_runs(counting.gradients)
        # N solves per run of equal gradients: steps 1-7 are rejected, so two runs
        assert counting.calls == n * (runs[-1] + 1) == 20
        assert counting.calls <= 8 * n
        assert counting.grads == runs[-1] + 1 == 2  # one gradient per run of equal gradients

    @pytest.mark.parametrize("n_agents", [9, 1000])
    def test_rejects_a_line_search_rule_built_for_another_agent_count(self, miqp_small, n_agents):
        # The rule's step size reads its N: one built for 1000 agents would step silently
        # with omega 0.2138 where this 10-agent instance's rule steps with 0.1823.
        rule = LineSearchSfwStep(compute_constants(miqp_small).c1, n_agents)
        with pytest.raises(ValueError, match=f"ls-sfw rule built for {n_agents} agents, not 10"):
            sfw_run(miqp_small, 5, ConstantSchedule(1), seed=0, rule=rule)

    def test_rejects_fw_line_search_rule(self, miqp_small):
        with pytest.raises(ValueError, match="rule"):
            sfw_run(miqp_small, 5, ConstantSchedule(1), seed=0, rule=LineSearchFwStep())

    def test_terminal_record_matches_final_profile(self, miqp_small):
        x, records = sfw_run(miqp_small, 10, ConstantSchedule(3), seed=4)
        assert records[-1].k == 10
        assert records[-1].objective == objective(miqp_small, x)

    def test_active_counts_shrink_with_omega(self, miqp_medium):
        _, records = sfw_run(miqp_medium, 40, ConstantSchedule(1), seed=6)
        early = np.mean([r.active_count for r in records[:5]])
        late = np.mean([r.active_count for r in records[30:40]])
        assert late < early

    def test_more_draws_improve_mean_and_spread(self, miqp_medium, miqp_medium_reference):
        # More candidates per iteration help both in expectation and in
        # variability; assert the trend between the extreme draw counts.
        stats = {}
        for n_draws in (3, 300):
            gaps = [
                sfw_run(miqp_medium, 60, ConstantSchedule(n_draws), seed=seed)[1][-1].objective
                - miqp_medium_reference.value
                for seed in range(20)
            ]
            stats[n_draws] = (np.mean(gaps), np.std(gaps, ddof=1))
        assert stats[300][0] < stats[3][0]
        assert stats[300][1] < stats[3][1]


class TestActiveSetFormula:
    def test_expectation_formula_values(self):
        assert canonical_active_expectation(50, 4, 3) == pytest.approx(
            50 * (1 - (4 / 6) ** 3), rel=1e-12
        )
        assert canonical_active_expectation(100, 10, 1) == pytest.approx(100 / 6, rel=1e-12)

    def test_monte_carlo_agreement(self):
        n_agents, k, n_draws, replays = 40, 6, 2, 4000
        omega = 2.0 / (k + 2.0)
        total = 0
        for rep in range(replays):
            lam = bernoulli_matrix(
                _rng.stream(rep, _rng.BERNOULLI, 3, k), n_draws, n_agents, omega
            )
            total += int(lam.any(axis=0).sum())
        expected = canonical_active_expectation(n_agents, k, n_draws)
        p = expected / n_agents
        sigma = math.sqrt(n_agents * p * (1 - p) / replays)
        assert abs(total / replays - expected) <= 3 * sigma


class TestStoppingTime:
    def test_first_iteration_accepts_immediately(self, miqp_small):
        # omega_0 = 1: the single candidate equals the full best response
        # and the threshold has slack (C1/2 + C0), so one draw suffices.
        start = zero_gradient_profile(miqp_small)
        result = stopping_time_step(
            miqp_small, start, 0, 1.0, _rng.stream(0, _rng.BERNOULLI, 0, 0)
        )
        assert result.n_draws == 1 and result.accepted
        xbar, _ = linearized_best_response(
            miqp_small, aggregate_of(miqp_small, start)
        )
        assert result.decisions == xbar

    def test_draw_budget_fallback(self, miqp_small):
        # A large negative constant pushes the acceptance threshold below
        # zero, which no candidate can reach (J >= 0): the step must
        # exhaust its budget and return the best draw seen.
        constants = compute_constants(miqp_small)
        squeezed = ProblemConstants(
            c0=-1e6, c1=0.0, d_i=constants.d_i, total_dim=constants.total_dim,
        )
        start = zero_gradient_profile(miqp_small)
        result = stopping_time_step(
            miqp_small, start, 4, 1.0 / 3.0,
            _rng.stream(2, _rng.BERNOULLI, 0, 4),
            max_draws=5, constants=squeezed,
        )
        assert result.n_draws == 5 and not result.accepted

    def test_run_trajectory_and_acceptance(self, miqp_medium, miqp_medium_reference):
        constants = compute_constants(miqp_medium)
        x, records = stopping_time_run(miqp_medium, 60, seed=5)
        assert all(r.accepted for r in records[:-1])
        for k in range(1, 60):
            gap = records[k + 1].objective - miqp_medium_reference.value
            assert gap <= 4 * (constants.c1 + constants.c0) / k + 1e-9

    def test_beta_matches_full_solve_sfw_step(self, miqp_medium):
        # omega = 1 switches every agent, so sfw_step solves every
        # subproblem and reports the dual gap at the same profile.
        profile = sfw_run(miqp_medium, 6, ConstantSchedule(2), seed=1)[0]
        _, record = sfw_step(
            miqp_medium, profile, 6, 1.0, 2, _rng.stream(1, _rng.BERNOULLI, 0, 6)
        )
        result = stopping_time_step(
            miqp_medium, profile, 6, 0.25, _rng.stream(1, _rng.BERNOULLI, 0, 6)
        )
        assert record.active_count == miqp_medium.n_agents
        assert result.beta == record.beta
        assert np.isfinite(result.beta)

    def test_one_gradient_and_solve_per_agent_per_iteration(self, miqp_small):
        counting = CountingInstance(miqp_small)
        stopping_time_run(counting, 6, seed=3, initial=zero_gradient_profile(miqp_small))
        assert counting.grads == 6
        assert counting.calls == 6 * miqp_small.n_agents

    @pytest.mark.parametrize("max_draws", [True, np.bool_(True), 2.5, 3.0, math.nan, "3", 0, -1])
    def test_rejects_a_draw_budget_that_is_not_a_positive_integer(self, miqp_small, max_draws):
        start = zero_gradient_profile(miqp_small)
        with pytest.raises(ValueError, match="integer of at least 1"):
            stopping_time_step(miqp_small, start, 4, 1.0 / 3.0, _rng.stream(0),
                               max_draws=max_draws)
        with pytest.raises(ValueError, match="integer of at least 1"):
            stopping_time_run(miqp_small, 3, seed=0, max_draws=max_draws)

    def test_numpy_integer_draw_budget(self, miqp_small):
        start = zero_gradient_profile(miqp_small)
        step = [stopping_time_step(miqp_small, start, 4, 1.0 / 3.0,
                                   _rng.stream(2, _rng.BERNOULLI, 0, 4), max_draws=budget)
                for budget in (np.int64(7), 7)]
        assert step[0] == step[1]

    def test_draw_cap_grows_with_k(self):
        assert default_draw_cap(100, 1) >= 10
        assert default_draw_cap(100, 50) > default_draw_cap(100, 5)
        assert default_draw_cap(100, 10_000) == 1_000_000


class TestNonFiniteValues:
    # From (0, 0) at y = 0 every agent's best response is 1.
    @pytest.mark.parametrize("keep_if_worse", [True, False])
    def test_sfw_step_rejects_a_nan_candidate(self, keep_if_worse):
        inst = NanAwayFrom(0.0)
        with pytest.raises(ValueError, match="non-finite objective at iteration 3"):
            sfw_step(inst, DecisionProfile((0, 0)), 3, 1.0, 1, _rng.stream(0),
                     keep_if_worse=keep_if_worse)

    def test_sfw_step_rejects_a_nan_current_value(self):
        with pytest.raises(ValueError, match="non-finite objective at iteration 3"):
            sfw_step(NanAwayFrom(7.0), DecisionProfile((0, 0)), 3, 0.5, 4, _rng.stream(0),
                     keep_if_worse=False)

    @pytest.mark.parametrize("point", [1.0 / 3.0, 0.0])
    def test_stopping_time_step_rejects_nan_draws_and_threshold(self, point):
        # At omega = 1/3 the mixed iterate sits at y = 1/3, which no
        # candidate (y in {0, 1/2, 1}) reaches: with point 1/3 only the
        # threshold is finite, with point 0 the threshold is NaN.
        inst = NanAwayFrom(point)
        with pytest.raises(ValueError, match="non-finite objective at iteration 4"):
            stopping_time_step(inst, DecisionProfile((0, 0)), 4, 1.0 / 3.0, _rng.stream(0),
                               max_draws=20)

    def test_fw_run_rejects_a_nan_relaxed_objective(self):
        with pytest.raises(ValueError, match="non-finite relaxed objective at iteration 0"):
            fw_run(NanAwayFrom(7.0), 3)

    def test_rows_objective_names_the_nan_block(self):
        inst = TableInstance([[[0.0, 0.0], [1.0, 1.0]]] * 2, target=[1.0, math.nan])
        with pytest.raises(ValueError, match="non-finite objective value in block 1"):
            objective(inst, DecisionProfile((0, 1)))


class TestCarriedRows:
    """The run loops carry the iterate's contribution rows and the rows of
    each agent's last best response that differed from its token.  A solved
    agent's response row is built only when its best response differs from
    both; each row is built once per (agent, token) change."""

    def test_canonical_run_requests_initial_and_active_rows(self, miqp_small):
        counting = CountingInstance(miqp_small)
        _, records = sfw_run(counting, 12, ConstantSchedule(3), seed=4)
        n = miqp_small.n_agents
        # N initial rows plus 18 changed responses, of 76 solved agents.
        assert sum(r.active_count for r in records[:-1]) == 76
        assert counting.rows == n + 18

    def test_stopping_time_run_requests_initial_and_response_rows(self, miqp_small):
        counting = CountingInstance(miqp_small)
        stopping_time_run(counting, 7, seed=2)
        n = miqp_small.n_agents
        assert counting.rows == n + 37  # 7 * N = 70 rows before they were held

    def test_held_rows_serve_a_returning_best_response(self, miqp_small):
        # After one agent switches, the other nine best responses are again the tokens
        # held for them at the first iterate: their rows are served, not rebuilt.
        counting = CountingInstance(miqp_small)
        start = zero_gradient_profile(miqp_small)
        run = _Run(counting, start)
        first = _linearize(counting, run)
        assert _apply_switches(run, np.arange(10) == 0)
        built = counting.rows
        second = _linearize(counting, run)
        returning = second.moved & first.moved & (second.tokens == first.tokens)
        # N rows of the start, then the ten moved responses at the first iterate
        assert run.profile is not start and returning.sum() == 9
        assert counting.rows == built == 20

    @pytest.mark.parametrize("run", ["sfw", "stopping"])
    def test_invalid_best_response_is_rejected_when_switched_in(self, run):
        # omega_0 = 1 switches both agents in the first iteration.
        with pytest.raises(ValueError, match="invalid decision token 1 for agent 1"):
            if run == "sfw":
                sfw_run(RejectsOne(), 2, ConstantSchedule(1), seed=0, keep_if_worse=False)
            else:
                stopping_time_run(RejectsOne(), 2, seed=0)

    @pytest.mark.parametrize("run", ["sfw", "stopping"])
    def test_invalid_initial_profile_raises_before_iteration_zero(self, table_instance, run):
        counting = CountingInstance(table_instance)
        records = []
        initial = DecisionProfile((0, 0, 9, 0))
        with pytest.raises(ValueError, match="invalid decision token 9 for agent 2"):
            if run == "sfw":
                sfw_run(counting, 3, ConstantSchedule(2), seed=0, initial=initial,
                        callback=records.append)
            else:
                stopping_time_run(counting, 3, seed=0, initial=initial, callback=records.append)
        assert records == [] and counting.grads == 0


class TestHeldResponseRows:
    """A moved agent's response row lives only in its run's ``_HeldRows``.  On a ``_Run``
    shared across steps, each step leaves the carried rows equal to the next profile's,
    each agent moved at the step's linearization holding its best response and that
    token's row, and the linearization held exactly while the iterate stays."""

    @settings(max_examples=40, deadline=None)
    @given(
        problem=st.one_of(
            st.builds(aggfw.generate, st.integers(1, 3), st.integers(1, 8),
                      st.integers(0, 10**6)),
            st.integers(0, 10**6).map(cycling_tables),
        ),
        solver=st.sampled_from(["active-set", "full", "ls-sfw", "stopping"]),
        keep_if_worse=st.booleans(),
        n_draws=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_carried_rows_and_held_responses(self, problem, solver, keep_if_worse, n_draws,
                                              seed):
        canonical, built = CanonicalStep(), []
        run = _Run(problem, None, n_draws, full=solver != "active-set")
        closed_loop = LineSearchSfwStep.from_constants(compute_constants(problem))
        linearize = stochastic_fw._linearize

        def watched(*args):
            built.append(linearize(*args))
            return built[-1]

        for k in range(6):
            stream, profile = _rng.stream(seed, _rng.BERNOULLI, 0, k), run.profile
            with mock.patch.object(stochastic_fw, "_linearize", watched):
                if solver == "stopping":
                    nxt = stopping_time_step(problem, profile, k, canonical.omega(k), stream,
                                             max_draws=20, run=run).decisions
                else:
                    beta = _rows_gap(problem, run) if solver == "ls-sfw" else None
                    omega = (closed_loop.omega(k, beta=beta) if solver == "ls-sfw"
                             else canonical.omega(k))
                    nxt, _ = sfw_step(problem, profile, k, omega, n_draws, stream,
                                      keep_if_worse=keep_if_worse, run=run)
            lin, held, moved = built[-1], run.held, np.flatnonzero(built[-1].moved)
            assert nxt is run.profile and run.lin is (lin if nxt is profile else None)
            assert _same_bits(run.rows, profile_rows(problem, nxt))
            assert (held.tokens[moved] == lin.tokens[moved]).all()
            assert _same_bits(held.rows[moved],
                              contribution_rows(problem, moved, lin.tokens[moved]))


def _rows_gap(problem, run):
    """The gap the closed-loop step reads at ``run``'s iterate, rebuilt independently: from
    ``y`` to the aggregate of the best-response profile."""
    lin = _linearize(problem, run)
    return dual_gap_beta(problem, lin.y, aggregate_of(problem, DecisionProfile(lin.tokens)))


def _bits(records):
    """Records without their timings, with every float spelled exactly."""
    return [tuple(map(repr, dataclasses.astuple(dataclasses.replace(r, wall_ms=0.0))))
            for r in records]


def _reference_sfw(problem, n_iters, schedule, seed, rule, keep_if_worse, use_active_set):
    """sfw_run rebuilt from sfw_step calls, each on a fresh run at its profile, which
    rebuilds the profile's rows and allocates its own candidate buffers; a full solve
    runs with ``full`` set, and the closed loop's gap comes from that run."""
    closed_loop = isinstance(rule, LineSearchSfwStep)
    profile, records = zero_gradient_profile(problem), []
    for k in range(n_iters):
        run = beta = None
        n_draws = schedule.size(k, problem.n_agents)
        if closed_loop or not use_active_set:
            run = _Run(problem, profile, n_draws, full=True)
            beta = _rows_gap(problem, run) if closed_loop else None
        profile, record = sfw_step(
            problem, profile, k, rule.omega(k, beta=beta), n_draws,
            _rng.stream(seed, _rng.BERNOULLI, 0, k), keep_if_worse=keep_if_worse, run=run,
        )
        records.append(record)
    nan = math.nan
    records.append(aggfw.SfwRecord(n_iters, objective(problem, profile), nan, nan, 0, 0, False, 0))
    return profile, records


def _reference_stopping(problem, n_iters, seed):
    constants = compute_constants(problem)
    profile, records = zero_gradient_profile(problem), []
    for k in range(n_iters):
        omega = CanonicalStep().omega(k)
        value = objective(problem, profile)
        result = stopping_time_step(
            problem, profile, k, omega, _rng.stream(seed, _rng.BERNOULLI, 0, k),
            constants=constants,
        )
        records.append(aggfw.SfwRecord(k, value, result.beta, omega, result.n_draws,
                                       problem.n_agents, result.accepted, 0))
        profile = result.decisions
    nan = math.nan
    records.append(aggfw.SfwRecord(n_iters, objective(problem, profile), nan, nan, 0, 0, False, 0))
    return profile, records


class TestHeldResponses:
    """The run loops keep an iterate's best responses while it stays put.  On these
    instances consecutive iterates have different gradients, so each agent is asked at
    most once per run of equal gradients."""

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(sorted(INSTANCES)), st.integers(0, 2**32 - 1), st.booleans(),
           st.integers(1, 5), st.integers(1, 10))
    def test_canonical_run_asks_each_agent_once_per_run_of_equal_gradients(
        self, name, seed, keep, n_draws, n_iters
    ):
        counting = CountingInstance(INSTANCES[name](seed % 1000))
        _, records = sfw_run(counting, n_iters, ConstantSchedule(n_draws), seed,
                             keep_if_worse=keep)
        runs, asked = gradient_runs(counting.gradients), {}
        for n_grads, bits, agents in counting.asked[1:]:  # [0] is the zero-gradient start
            assert bits == counting.gradients[n_grads - 1]  # the latest gradient
            asked.setdefault(runs[n_grads - 1], []).extend(agents)
        assert all(len(agents) == len(set(agents)) for agents in asked.values())
        assert counting.calls <= counting.n_agents + sum(r.active_count for r in records)


PATHS = ["active-set", "full-solve", "ls-sfw", "stopping"]


def _asks_by_iterate(problem, path, seed, n_draws, n_iters):
    """Run ``path`` on a counting wrapper of ``problem`` with ``_linearize`` watched.

    Returns the wrapper and one ``(iterate, agents asked)`` per ``_linearize`` call,
    the agents being those its oracle calls asked, in order."""
    counting, calls = CountingInstance(problem), []
    linearize = stochastic_fw._linearize

    def watched(instance, run, *rest):
        before, profile = len(counting.asked), run.profile
        lin = linearize(instance, run, *rest)
        calls.append((profile, [i for _, _, asked in counting.asked[before:] for i in asked]))
        return lin

    with mock.patch.object(stochastic_fw, "_linearize", watched):
        if path == "stopping":
            stopping_time_run(counting, n_iters, seed)
        else:
            rule = None
            if path == "ls-sfw":
                rule = LineSearchSfwStep.from_constants(compute_constants(problem))
            sfw_run(counting, n_iters, ConstantSchedule(n_draws), seed, rule=rule,
                    use_active_set=path == "active-set")
    return counting, calls


class TestOneSolvePerIterate:
    """Each agent's best response is asked at most once per iterate object, on every path."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(sorted(INSTANCES)), st.sampled_from(PATHS),
           st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 10))
    def test_no_agent_is_asked_twice_at_one_iterate(self, name, path, seed, n_draws, n_iters):
        problem = INSTANCES[name](seed % 1000)
        _, calls = _asks_by_iterate(problem, path, seed, n_draws, n_iters)
        assert len(calls[0][1]) == problem.n_agents  # omega_0 = 1: every agent is solved
        by_iterate = {}  # keyed by id: ``calls`` keeps every iterate alive
        for profile, agents in calls:
            by_iterate.setdefault(id(profile), []).extend(agents)
        assert all(len(agents) == len(set(agents)) for agents in by_iterate.values())

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(sorted(INSTANCES)), st.sampled_from(PATHS),
           st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 10))
    def test_one_gradient_per_iterate(self, name, path, seed, n_draws, n_iters):
        # A step that keeps its iterate (rejected, or changing no token) leaves the
        # linearization to the next step.
        counting, calls = _asks_by_iterate(INSTANCES[name](seed % 1000), path, seed, n_draws,
                                           n_iters)
        assert counting.grads == len({id(profile) for profile, _ in calls}) <= n_iters


class TestOneGapPerLinearization:
    """``_linearize`` builds one dual gap, ``beta``.  Only ``sfw_run``'s closed-loop step
    adds the rows-form gap its step sizes read, once per linearization: an iterate that
    stays keeps both."""

    def test_a_full_linearization_builds_beta_only(self, miqp_small):
        lin = _linearize(miqp_small, _Run(miqp_small))
        assert lin.ybar is not None and math.isfinite(lin.beta)
        assert lin.beta_rows is None

    @staticmethod
    def gaps_and_linearizations(problem, path, n_iters, seed):
        built, gaps = [], []
        linearize, gap = stochastic_fw._linearize, stochastic_fw.dual_gap_beta

        def watched(*args):
            built.append(linearize(*args))
            return built[-1]

        def counted(*args, **kwargs):
            gaps.append(args)
            return gap(*args, **kwargs)

        with mock.patch.object(stochastic_fw, "_linearize", watched), \
                mock.patch.object(stochastic_fw, "dual_gap_beta", counted):
            if path == "stopping":
                stopping_time_run(problem, n_iters, seed)
            else:
                rule = LineSearchSfwStep.from_constants(compute_constants(problem))
                sfw_run(problem, n_iters, QuadraticSchedule(24.0), seed, rule=rule)
        return len(gaps), len({id(lin) for lin in built})  # ``built`` keeps each one alive

    def test_stopping_time_builds_one_gap_per_iteration(self, miqp_medium):
        assert self.gaps_and_linearizations(miqp_medium, "stopping", 12, 3) == (12, 12)

    def test_ls_sfw_builds_two_gaps_per_linearization_and_none_at_a_kept_iterate(
        self, miqp_small
    ):
        gaps, linearizations = self.gaps_and_linearizations(miqp_small, "ls-sfw", 19, 0)
        assert linearizations < 19  # some steps keep their iterate
        assert gaps == 2 * linearizations

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(sorted(INSTANCES)), st.sampled_from(["ls-sfw", "stopping"]),
           st.integers(0, 2**32 - 1), st.integers(1, 10))
    def test_gaps_per_linearization(self, name, path, seed, n_iters):
        problem = INSTANCES[name](seed % 1000)
        gaps, linearizations = self.gaps_and_linearizations(problem, path, n_iters, seed)
        assert gaps == (2 if path == "ls-sfw" else 1) * linearizations


class FixedPoint(aggfw.MiqpInstance):
    """All-ones is the best response at every aggregate below the large target."""

    def __init__(self):
        super().__init__(np.array([[1.0, 0.8, 0.6, 0.4]]), np.array([10.0]))


class TestNoChangeStep:
    """A step whose candidate changes no token returns its input profile object."""

    def test_sfw_run_keeps_the_iterate_object(self, monkeypatch):
        # Steps 5 and 6 take a candidate that f_value_batch scores below f_value(y) by
        # rounding alone, although its point is y bit for bit.
        problem, at, taken = aggfw.generate(3, 8, seed=785), [None], []
        step, apply = stochastic_fw.sfw_step, stochastic_fw._apply_switches

        def watched_step(problem, profile, k, *rest, **kwargs):
            at[0] = k
            return step(problem, profile, k, *rest, **kwargs)

        def watched_apply(run, switches):
            profile, lin = run.profile, run.lin
            moved = apply(run, switches)
            taken.append((at[0], moved, run.profile is profile, run.lin is lin))
            return moved

        monkeypatch.setattr(stochastic_fw, "sfw_step", watched_step)
        monkeypatch.setattr(stochastic_fw, "_apply_switches", watched_apply)
        _, records = sfw_run(problem, 7, ConstantSchedule(3), 603785, use_active_set=False)
        kept = {k for k, moved, same, held in taken if not moved}
        assert all(same == held == (not moved) for _, moved, same, held in taken)
        assert kept == {5, 6} and not records[5].accepted and not records[6].accepted

    def test_sfw_step_from_a_fixed_point(self):
        problem, profile = FixedPoint(), DecisionProfile((1, 1, 1, 1))
        nxt, record = sfw_step(problem, profile, 0, 1.0, 3, _rng.stream(0), keep_if_worse=False)
        assert nxt is profile and not record.accepted and record.active_count == 4

    @pytest.mark.parametrize("omega", [0.0, 1.0])
    def test_stopping_time_step_when_no_moved_agent_switches(self, omega):
        # omega = 0 switches no agent; omega = 1 switches all four, none of which moves.
        problem, profile = FixedPoint(), DecisionProfile((1, 1, 1, 1))
        result = stopping_time_step(problem, profile, 0, omega, _rng.stream(0))
        assert result.decisions is profile and result.accepted and result.n_draws == 1

    def test_stopping_time_step_still_moves(self):
        problem, profile = FixedPoint(), DecisionProfile((0, 1, 1, 1))
        result = stopping_time_step(problem, profile, 0, 1.0, _rng.stream(0))
        assert result.decisions == DecisionProfile((1, 1, 1, 1))


class TestCarriedRowsEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(
        st.sampled_from(sorted(INSTANCES)), st.integers(0, 2**32 - 1),
        st.sampled_from(["active-set", "full-solve", "ls-sfw"]), st.booleans(),
        st.integers(1, 5), st.integers(1, 10),
    )
    def test_sfw_run_matches_public_steps(self, name, seed, variant, keep, n_draws, n_iters):
        problem = INSTANCES[name](seed % 1000)
        rule = CanonicalStep()
        if variant == "ls-sfw":
            rule = LineSearchSfwStep.from_constants(compute_constants(problem))
        use_active_set = variant == "active-set"
        x, records = sfw_run(problem, n_iters, ConstantSchedule(n_draws), seed, rule=rule,
                             keep_if_worse=keep, use_active_set=use_active_set)
        x_ref, records_ref = _reference_sfw(problem, n_iters, ConstantSchedule(n_draws), seed,
                                            rule, keep, use_active_set)
        assert repr(x.decisions) == repr(x_ref.decisions)  # the same token types
        assert _bits(records) == _bits(records_ref)

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(sorted(INSTANCES)), st.integers(0, 2**32 - 1), st.integers(1, 10))
    def test_stopping_time_run_matches_public_steps(self, name, seed, n_iters):
        problem = INSTANCES[name](seed % 1000)
        x, records = stopping_time_run(problem, n_iters, seed)
        x_ref, records_ref = _reference_stopping(problem, n_iters, seed)
        assert repr(x.decisions) == repr(x_ref.decisions)  # the same token types
        assert _bits(records) == _bits(records_ref)


class UpAndDown:
    """Draw counts around multiples of ``block`` that rise and fall, so a run's
    later steps reuse smaller leading views of buffers sized for its largest."""

    def __init__(self, block):
        self.sizes = (1, 2 * block + 5, 7, block, block + 1, 3, 3 * block, 2, 2 * block, block - 1)

    def size(self, k, n_agents):
        return self.sizes[k % len(self.sizes)]


class RecordingBatches:
    """Transparent wrapper keeping a copy of every ``f_value_batch`` input and output."""

    def __init__(self, inner):
        self.inner, self.points, self.values = inner, [], []

    def f_value_batch(self, points):
        values = self.inner.f_value_batch(points)
        self.points.append(points.copy())
        self.values.append(values.copy())
        return values

    def __getattr__(self, name):
        return getattr(self.inner, name)


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _block_rows(width):
    return max(stochastic_fw._BLOCK // width, 1)


class TestCandidateWorkspace:
    """The blocked, buffer-reusing candidate path against one product and one
    ``f_value_batch`` call on fresh arrays."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([1, 3, 7, 81, None]),  # rows per f_value_batch call; None: the module's
        st.sampled_from([3, 100]),
        st.sampled_from([1, 2, 5, 100]),
        st.sampled_from(["1", "2", "block-1", "block", "block+1", "several"]),
        st.sampled_from([0.0, 1.0, None]),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    @example(None, 100, 100, "several", None, 0, True)  # a split product differs here
    @example(7, 100, 3, "several", 0.5, 1, True)
    @example(None, 100, 100, "several", 0.0, 2, True)  # one row scored for 3 blocks' worth
    def test_values_and_choice_match_the_reference(
        self, rows_per_block, q, n, case, omega, seed, run_state
    ):
        size = stochastic_fw._BLOCK if rows_per_block is None else rows_per_block * q
        with mock.patch.object(stochastic_fw, "_BLOCK", size):
            self._check_candidates(q, n, case, omega, seed, run_state)

    def _check_candidates(self, q, n, case, omega, seed, run_state):
        block = _block_rows(q)
        n_draws = {"1": 1, "2": 2, "block-1": block - 1, "block": block,
                   "block+1": block + 1, "several": 3 * block + 2}[case]
        if n_draws < 1:
            return
        gen = np.random.default_rng(seed)
        omega = gen.random() if omega is None else omega
        problem = RecordingBatches(aggfw.generate(q, n, seed=seed % 1000))
        # delta with all-zero rows, -0.0 entries and a row of -0.0; y with -0.0 entries.
        delta = gen.normal(size=(n, q))
        delta[gen.random((n, q)) < 0.3] = -0.0
        delta[gen.random(n) < 0.4] = 0.0
        delta[gen.integers(n)] = -0.0
        y = gen.random(q) * n / 2
        y[gen.random(q) < 0.2] = -0.0
        profile = DecisionProfile((0,) * n)
        run = _Run(problem, profile, n_draws + 5 if run_state else n_draws)
        if run_state:  # larger, dirty buffers: only their leading rows may be read
            run.floats.fill(math.nan)
            run.points.fill(math.nan)
        y = Aggregate(y, problem.block_dims)  # a ybar already in place: no gap is taken
        run.lin = stochastic_fw._Linearization(
            y, None, tokens=np.ones(n, dtype=object), delta=delta,
            solved=np.ones(n, dtype=bool), moved=np.ones(n, dtype=bool), ybar=y,
        )
        nxt, _ = sfw_step(problem, profile, 0, omega, n_draws, _rng.stream(seed),
                          keep_if_worse=False, run=run)

        switches = _rng.stream(seed).random((n_draws, n)) < omega
        points = y.values + (switches.astype(float) @ delta) / n
        values = problem.inner.f_value_batch(points)
        scored = n_draws
        if omega == 0.0:  # every row is the iterate with row 0's bits: one row is scored
            assert _same_bits(np.repeat(points[:1], n_draws, axis=0), points)
            scored = 1
        assert all(len(b) <= block for b in problem.points)
        assert _same_bits(np.concatenate(problem.points), points[:scored])
        assert _same_bits(np.concatenate(problem.values), values[:scored])
        chosen = switches[int(np.argmin(values))]
        assert nxt.decisions == tuple(np.where(chosen, 1, 0).tolist())

    @pytest.mark.parametrize("n_agents", [1, 7, 100, 3000, 40000])
    @pytest.mark.parametrize("offset", [-1, 0, 1, None])
    def test_bernoulli_matrix_is_one_draw_of_the_stream(self, n_agents, offset):
        block = _block_rows(n_agents)
        n_draws = 3 * block + 2 if offset is None else block + offset
        if n_draws < 1:
            return
        gen, ref = _rng.stream(11, _rng.BERNOULLI, 0, 4), _rng.stream(11, _rng.BERNOULLI, 0, 4)
        switches = bernoulli_matrix(gen, n_draws, n_agents, 0.37)
        assert _same_bits(switches, ref.random((n_draws, n_agents)) < 0.37)
        assert _same_bits(gen.random(9), ref.random(9))  # the same stream position

    @pytest.mark.parametrize(
        "schedule, n_iters",
        [(QuadraticSchedule(24.0), 40), (UpAndDown(_block_rows(100)), 20)],
        ids=["quad:24", "up-and-down"],
    )
    @pytest.mark.parametrize("variant", ["active-set", "ls-sfw"])
    def test_sfw_run_matches_public_steps(self, schedule, n_iters, variant):
        # q = 100, so f_value_batch blocks hold 327 rows; quad:24 reaches 1217 draws.
        problem = aggfw.generate(100, 30, seed=7)
        rule = CanonicalStep()
        if variant == "ls-sfw":
            rule = LineSearchSfwStep.from_constants(compute_constants(problem))
        x, records = sfw_run(problem, n_iters, schedule, 5, rule=rule)
        x_ref, records_ref = _reference_sfw(problem, n_iters, schedule, 5, rule, True, True)
        assert max(r.n_draws for r in records) >= 3 * _block_rows(100)
        assert repr(x.decisions) == repr(x_ref.decisions)
        assert _bits(records) == _bits(records_ref)

    @pytest.mark.parametrize(
        "schedule", [ConstantSchedule(40), QuadraticSchedule(24.0), UpAndDown(3)],
        ids=["const:40", "quad:24", "up-and-down"],
    )
    def test_one_buffer_allocation_per_run(self, miqp_medium, monkeypatch, schedule):
        # Each ``_Run`` allocates its buffers once; a step given a run allocates none.
        sizes = []

        class Counted(_Run):
            def __init__(self, *args):
                super().__init__(*args)
                sizes.append((self.floats.shape, self.points.shape))

        monkeypatch.setattr(stochastic_fw, "_Run", Counted)
        sfw_run(miqp_medium, 25, schedule, seed=1)
        n_max = max(schedule.size(k, 30) for k in range(25))
        assert sizes == [((n_max, 30), (n_max, miqp_medium.total_dim))]
        sfw_run(miqp_medium, 25, schedule, seed=1, rule=LineSearchSfwStep.from_constants(
            compute_constants(miqp_medium)))
        assert len(sizes) == 2


class CountingStream:
    """A generator wrapper counting the uniforms drawn through ``random``."""

    def __init__(self, inner):
        self.inner, self.uniforms = inner, 0

    def random(self, size=None):
        self.uniforms += 1 if size is None else int(np.prod(size))
        return self.inner.random(size)


class TestZeroStepSize:
    """At omega = 0 no agent switches, so a step draws and scores one candidate row."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["philox", "pcg64"]), st.integers(0, 2**63 - 1),
           st.integers(1, 400), st.integers(1, 400))
    def test_bernoulli_matrix_is_constant_at_the_ends(self, kind, seed, n_draws, n_agents):
        for omega, expected in ((0.0, False), (1.0, True)):
            gen = _rng.stream(seed) if kind == "philox" else np.random.default_rng(seed)
            switches = bernoulli_matrix(gen, n_draws, n_agents, omega)
            assert switches.shape == (n_draws, n_agents)
            assert (switches == expected).all()

    @pytest.mark.parametrize("full", [False, True], ids=["lone", "full-run"])
    def test_a_zero_step_reads_one_row_of_uniforms(self, miqp_medium, full):
        problem, n_draws = miqp_medium, 40
        n, start = problem.n_agents, zero_gradient_profile(problem)
        lin = _linearize(problem, _Run(problem, start), None if full else [])
        gen = CountingStream(_rng.stream(3, _rng.BERNOULLI, 0, 5))
        run = _Run(problem, start, n_draws, full=True) if full else None
        nxt, record = sfw_step(problem, start, 5, 0.0, n_draws, gen, run=run)
        assert gen.uniforms == n
        ref = _rng.stream(3, _rng.BERNOULLI, 0, 5)
        assert _same_bits(gen.inner.random(7), ref.random(n + 7)[n:])  # N uniforms on
        assert nxt == start
        fields = (record.objective, record.beta, record.omega, record.n_draws,
                  record.active_count, record.accepted)
        assert repr(fields) == repr((problem.f_value(lin.y), lin.beta, 0.0, n_draws, 0, False))

    def test_ls_sfw_stays_at_zero_and_scores_one_row_per_zero_step(self):
        problem = RecordingBatches(aggfw.generate(100, 100, 0))
        rule = LineSearchSfwStep.from_constants(compute_constants(problem.inner))
        _, records = sfw_run(problem, 60, QuadraticSchedule(24.0), 0, rule=rule)
        steps = records[:-1]
        first = [r.omega for r in steps].index(0.0)  # 17 at this seed
        assert 0 < first < len(steps) - 10
        at_zero = steps[first]
        for r in steps[first:]:
            assert (r.omega, r.objective, repr(r.beta), r.accepted) == (
                0.0, at_zero.objective, repr(at_zero.beta), False)
        scored = sum(len(points) for points in problem.points)
        assert scored == sum(r.n_draws if r.omega > 0.0 else 1 for r in steps)


class TestOneAggregateSum:
    """``_linearize`` sums rows in the order ``aggregate_of`` and ``objective`` do, also at
    q = 1, where numpy's ``sum(axis=0)`` would sum pairwise."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([1, 2, 3]), st.integers(1, 300), st.integers(0, 999),
           st.integers(0, 2**32 - 1))
    @example(1, 300, 18, 0)
    def test_full_solve_matches_aggregate_of(self, m, n, seed, profile_seed):
        problem = aggfw.generate(m, n, seed=seed)
        tokens = np.random.default_rng(profile_seed).integers(0, 2, n).tolist()
        profile = DecisionProfile(tokens)
        lin = _linearize(problem, _Run(problem, profile))
        y = aggregate_of(problem, profile)
        assert lin.y.values.tobytes() == y.values.tobytes()
        ybar = aggregate_of(problem, DecisionProfile(lin.tokens))
        seen, omega = [], LineSearchSfwStep.omega

        def spy(rule, k, beta, curvature=None):
            seen.append(beta)
            return omega(rule, k, beta, curvature)

        with mock.patch.object(LineSearchSfwStep, "omega", spy):
            sfw_run(problem, 1, ConstantSchedule(1), 0, rule=LineSearchSfwStep(1.0, n),
                    initial=profile)
        assert repr(seen) == repr([dual_gap_beta(problem, y, ybar)])  # the ls-sfw rule's beta

    def test_rejected_step_keeps_its_objective_at_one_dimension(self):
        broken = []
        for seed in range(40):
            problem = aggfw.generate(1, 60, seed=seed)
            _, records = sfw_run(problem, 40, ConstantSchedule(3), seed)
            broken += [(seed, r.k) for r, nxt in zip(records, records[1:])
                       if not r.accepted and r.objective != nxt.objective]
        assert broken == []
