"""Stochastic Frank-Wolfe: Bernoulli mixing, candidate selection, speed-ups.

Instead of carrying measures, the stochastic solver keeps one concrete
decision per agent and replaces the measure update by sampling: at
iteration k it draws ``n_k`` candidate profiles whose agents switch to
their best response independently with probability ``omega_k``, and
keeps the candidate with the lowest objective.  All Bernoulli variables
are presampled from a counter-based stream keyed by the iteration, so
the draw at position (k, j, i) is a pure function of the run seed and
the lexicographic simulation order of the analysis is reproduced
exactly, regardless of how the work is scheduled.
"""
from __future__ import annotations

import dataclasses
import math
import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .bounds import ProblemConstants, compute_constants
from .frank_wolfe import CanonicalStep, LineSearchSfwStep, StepRule, dual_gap_beta
from .problems import (
    Aggregate,
    DecisionProfile,
    ProblemInstance,
    _count,
    _HeldRows,
    profile_rows,
    rows_objective,
    zero_gradient_profile,
)


@dataclass(frozen=True)
class ConstantSchedule:
    """Fixed number of candidate draws per iteration."""

    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", _count(self.n, "draw count"))

    def size(self, k: int, n_agents: int) -> int:
        return self.n


@dataclass(frozen=True)
class QuadraticSchedule:
    """Growing schedule n_k = max(ceil(A k^2 / N), 1).

    With this schedule the tail constants decay like 1/K^2 and the
    success probability of the run is at least 1 - exp(-A / 12).
    """

    a: float

    def __post_init__(self):
        if not 0 < self.a < math.inf:
            raise ValueError(f"schedule coefficient must be positive and finite, got {self.a}")

    def size(self, k: int, n_agents: int) -> int:
        return max(math.ceil(self.a * k**2 / n_agents), 1)


@dataclass(frozen=True)
class SfwRecord:
    """State of one stochastic iteration, captured before the update.

    ``beta`` is NaN when the active-set speed-up skipped part of the
    subproblem resolution (the dual gap needs every agent's best
    response).  ``accepted`` tells whether the iterate actually moved.
    """

    k: int
    objective: float
    beta: float
    omega: float
    n_draws: int
    active_count: int
    accepted: bool
    wall_ms: float


# Elements per row block of uniforms or of f_value_batch input (256 KiB of float64).
# 2**15 to 2**17 time alike; 2**13 makes quad:24 runs ~3% slower in per-call overhead.
_BLOCK = 1 << 15


def bernoulli_matrix(
    rng: np.random.Generator, n_draws: int, n_agents: int, omega: float
) -> np.ndarray:
    """Presampled switch indicators, shape (n_draws, N), drawn row-major.

    Entry (j, i) is the Bernoulli(omega) variable of candidate j and
    agent i; row-major generation makes the stream consumption follow
    the lexicographic (k, j, i) order when the caller keys the stream by
    the iteration, also when drawn a block of rows at a time, as here.
    """
    switches, step = np.empty((n_draws, n_agents), dtype=bool), max(_BLOCK // n_agents, 1)
    for j in range(0, n_draws, step):
        np.less(rng.random(switches[j:j + step].shape), omega, out=switches[j:j + step])
    return switches


def canonical_active_expectation(n_agents: int, k: int, n_draws: int) -> float:
    """Expected number of agents needing a subproblem solve, N(1 - (k/(k+2))^n_k).

    Valid under the canonical step size, for which the switch
    probability at iteration k is 2/(k+2).
    """
    return n_agents * (1.0 - (k / (k + 2.0)) ** n_draws)


@dataclass(frozen=True)
class _Linearization:
    """The objective linearized at a profile, with the solved agents' moves.

    ``tokens`` and ``responses`` hold the profile's tokens and rows with each
    solved agent at its best response, and ``delta`` the rows' difference.
    ``ybar`` and both gaps need every agent's best response; otherwise they
    are None and NaN.  ``beta`` takes ybar = y + mean(delta), ``beta_rows``
    the mean of the best-response rows: the two differ in the last bits, and
    the recorded trajectories pin the first in the records and the second in
    the closed-loop step sizes.
    """

    y: Aggregate
    tokens: np.ndarray
    responses: np.ndarray
    delta: np.ndarray
    ybar: Aggregate | None
    beta: float
    beta_rows: float


def _workspace(n_max: int, n_agents: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Candidate buffers: the switches as floats, (n_max, N), and the points, (n_max, q)."""
    return np.empty((n_max, n_agents)), np.empty((n_max, dim))


def _linearize(problem: ProblemInstance, profile, rows, held, agents) -> _Linearization:
    """Linearize f at ``profile``, whose rows are ``rows``, and solve ``agents``.  A response
    row is the agent's own row if its token is unchanged, else the row ``held`` holds."""
    n, dims = problem.n_agents, problem.block_dims
    y = Aggregate(rows.sum(axis=0) / n, dims)
    grad = problem.f_grad(y)
    solved = np.fromiter(agents, dtype=np.intp)
    best = np.fromiter((problem.best_response(i, grad) for i in solved.tolist()), dtype=object)
    tokens = np.fromiter(profile.decisions, dtype=object)
    moved = solved[~(tokens[solved] == best)]
    tokens[solved] = best
    held.hold(moved, tokens[moved])
    responses = rows.copy()
    responses[moved] = held.rows[moved]
    delta = responses - rows
    if solved.size < n:
        return _Linearization(y, tokens, responses, delta, None, float("nan"), float("nan"))
    ybar = Aggregate(y.values + delta.sum(axis=0) / n, dims)
    beta_rows = dual_gap_beta(problem, y, Aggregate(responses.sum(axis=0) / n, dims), grad=grad)
    beta = dual_gap_beta(problem, y, ybar, grad=grad)
    return _Linearization(y, tokens, responses, delta, ybar, beta, beta_rows)


def sfw_step(
    problem: ProblemInstance,
    profile: DecisionProfile,
    k: int,
    omega: float,
    n_draws: int,
    rng: np.random.Generator,
    keep_if_worse: bool = True,
    linearization: _Linearization | None = None,
    rows: tuple[np.ndarray, _HeldRows, tuple] | None = None,
) -> tuple[DecisionProfile, SfwRecord]:
    """One stochastic Frank-Wolfe update from ``profile``.

    Bernoulli switches are presampled first, so only the agents that
    actually switch in some candidate get their subproblem solved,
    unless ``linearization`` already holds every agent's best response
    at ``profile``; the trajectory is identical either way.  With
    ``keep_if_worse`` the iterate stays put when every candidate is
    worse than the current profile (the objective then never increases);
    otherwise the best candidate is taken unconditionally.  A caller holding
    ``profile_rows(problem, profile)``, the ``_HeldRows`` of the agents' earlier best
    responses and a ``_workspace`` of ``n_draws`` rows or more passes them as ``rows``;
    the step then reads and updates them instead of building them for this call.
    """
    start = time.perf_counter()
    if not 0.0 <= omega <= 1.0:
        raise ValueError(f"switch probability must lie in [0, 1], got {omega}")
    n_draws = _count(n_draws, "n_draws")
    n = problem.n_agents
    rows, held, work = rows or (profile_rows(problem, profile), _HeldRows(problem), None)
    switches = bernoulli_matrix(rng, n_draws, n, omega)
    active = np.flatnonzero(switches.any(axis=0))
    lin = linearization or _linearize(problem, profile, rows, held, active)
    value = problem.f_value(lin.y)
    _check_finite(value, k)

    floats, points = (b[:n_draws] for b in work or _workspace(n_draws, n, problem.total_dim))
    np.copyto(floats, switches)
    np.matmul(floats, lin.delta, out=points)  # one product: BLAS bits follow its shape
    points /= n
    points += lin.y.values
    candidate_values, step = np.empty(n_draws), max(_BLOCK // points.shape[1], 1)
    for j in range(0, n_draws, step):
        candidate_values[j:j + step] = problem.f_value_batch(points[j:j + step])
    _check_finite(candidate_values, k)
    best = int(np.argmin(candidate_values))  # first occurrence wins ties

    next_profile = profile
    if not keep_if_worse or candidate_values[best] < value:
        next_profile = _apply_switches(profile, switches[best], lin, rows)
    accepted = next_profile != profile
    record = SfwRecord(k, value, lin.beta, omega, n_draws, active.size, accepted,
                       (time.perf_counter() - start) * 1e3)
    return next_profile, record


def _apply_switches(profile, switches, lin: _Linearization, rows) -> DecisionProfile:
    rows[switches] = lin.responses[switches]
    return DecisionProfile(np.where(switches, lin.tokens, np.fromiter(profile.decisions, object)))


def _check_finite(values, k: int) -> None:
    if not np.isfinite(values).all():
        raise ValueError(f"non-finite objective at iteration {k}")


def _iterate(problem: ProblemInstance, n_iters: int, seed: int, initial, callback, step):
    """Outer loop shared by the stochastic solvers.

    ``step(k, profile, rows, stream)`` returns the next profile and the
    record of iteration k and moves ``rows`` (as in ``sfw_step``) to the next's;
    ``stream`` is the iteration's Bernoulli stream.  The record's
    ``wall_ms`` is set here to the whole iteration's time.
    """
    n_iters = _count(n_iters, "n_iters")
    if n_iters > 2 * problem.n_agents:
        warnings.warn(
            f"{n_iters} iterations exceed twice the agent count "
            f"({problem.n_agents}); the convergence bounds are proven only up to 2N",
            stacklevel=3,
        )
    profile = initial if initial is not None else zero_gradient_profile(problem)
    rows, held = profile_rows(problem, profile), _HeldRows(problem)
    records: list[SfwRecord] = []
    for k in range(n_iters):
        start = time.perf_counter()
        profile, record = step(k, profile, (rows, held), _rng.stream(seed, _rng.BERNOULLI, 0, k))
        record = dataclasses.replace(record, wall_ms=(time.perf_counter() - start) * 1e3)
        records.append(record)
        if callback is not None:
            callback(record)
    # Terminal sentinel: the final objective, no draws and no step.
    nan = float("nan")
    records.append(SfwRecord(n_iters, rows_objective(problem, rows), nan, nan, 0, 0, False, 0.0))
    return profile, records


def sfw_run(
    problem: ProblemInstance,
    n_iters: int,
    schedule,
    seed: int,
    rule: StepRule | None = None,
    keep_if_worse: bool = True,
    use_active_set: bool = True,
    initial: DecisionProfile | None = None,
    callback=None,
) -> tuple[DecisionProfile, list[SfwRecord]]:
    """Run the stochastic solver for ``n_iters`` iterations under ``seed``.

    The step rule is the canonical one or its closed-loop variant; the
    closed-loop rule needs the dual gap before sampling, so it forces a
    full subproblem resolution and disables the active-set shortcut.
    The subproblems are then solved once per iteration, and the same
    best responses serve the gap and the candidates.
    The convergence guarantees cover iteration counts up to 2N; longer
    runs are allowed but flagged.  A terminal sentinel record carries
    the final objective (its draw and active counts are zero).
    """
    rule = rule if rule is not None else CanonicalStep()
    if not isinstance(rule, (CanonicalStep, LineSearchSfwStep)):
        raise ValueError(f"unsupported step rule for the stochastic solver: {rule!r}")
    closed_loop = isinstance(rule, LineSearchSfwStep)
    agents, full_solve = range(problem.n_agents), closed_loop or not use_active_set
    n_iters = _count(n_iters, "n_iters")
    sizes = [_count(schedule.size(k, problem.n_agents), f"schedule size at iteration {k}")
             for k in range(n_iters)]
    work = _workspace(max(sizes, default=1), problem.n_agents, problem.total_dim)

    def step(k, profile, rows, stream):
        lin = _linearize(problem, profile, *rows, agents) if full_solve else None
        omega = rule.omega(k, beta=lin.beta_rows) if closed_loop else rule.omega(k)
        return sfw_step(
            problem, profile, k, omega, sizes[k], stream,
            keep_if_worse=keep_if_worse, linearization=lin, rows=(*rows, work),
        )

    return _iterate(problem, n_iters, seed, initial, callback, step)


@dataclass(frozen=True)
class StoppingStep:
    """Outcome of one stopping-time update."""

    decisions: DecisionProfile
    n_draws: int
    accepted: bool
    objective: float
    beta: float


def default_draw_cap(n_agents: int, k: int) -> int:
    """Draw budget for the stopping rule: ten times the expected-count bound.

    The expected number of draws is at most (1 - exp(-4N/(k+2)^3))^-2;
    the cap guards the (theoretically unbounded) worst case.
    """
    rejection = math.exp(-4.0 * n_agents / (k + 2.0) ** 3)
    if rejection >= 1.0 - 1e-9:
        return 1_000_000
    bound = 1.0 / (1.0 - rejection) ** 2
    return int(min(max(math.ceil(10.0 * bound), 50), 1_000_000))


def stopping_time_step(
    problem: ProblemInstance,
    profile: DecisionProfile,
    k: int,
    omega: float,
    rng: np.random.Generator,
    max_draws: int | None = None,
    constants: ProblemConstants | None = None,
    rows: tuple[np.ndarray, _HeldRows] | None = None,
) -> StoppingStep:
    """Draw candidates one at a time until the acceptance inequality holds.

    A candidate is accepted as soon as its objective does not exceed the
    relaxed value of the mixed iterate, ``f((1-omega) y + omega ybar)``,
    by more than ``(C1/2 + C0) omega^2``.  If ``max_draws`` candidates
    all fail, the best one seen is returned with ``accepted=False``.
    ``rows`` are as in ``sfw_step``.
    """
    if not 0.0 <= omega <= 1.0:
        raise ValueError(f"switch probability must lie in [0, 1], got {omega}")
    constants = constants if constants is not None else compute_constants(problem)
    if max_draws is None:
        max_draws = default_draw_cap(problem.n_agents, k)
    max_draws = _count(max_draws, "max_draws")
    n, dims = problem.n_agents, problem.block_dims
    rows, held = rows if rows is not None else (profile_rows(problem, profile), _HeldRows(problem))
    lin = _linearize(problem, profile, rows, held, range(n))
    y_values = lin.y.values
    mixed = (1.0 - omega) * y_values + omega * lin.ybar.values
    threshold = problem.f_value(Aggregate(mixed, dims)) + (
        constants.c1 / 2.0 + constants.c0
    ) * omega**2
    _check_finite(threshold, k)

    best_value, best_switches = np.inf, None
    for j in range(max_draws):
        switches = rng.random(n) < omega
        value = problem.f_value(
            Aggregate(y_values + (switches.astype(float) @ lin.delta) / n, dims)
        )
        _check_finite(value, k)
        if value <= threshold:
            decisions = _apply_switches(profile, switches, lin, rows)
            return StoppingStep(decisions, j + 1, True, value, lin.beta)
        if value < best_value:
            best_value, best_switches = value, switches
    decisions = _apply_switches(profile, best_switches, lin, rows)
    return StoppingStep(decisions, max_draws, False, best_value, lin.beta)


def stopping_time_run(
    problem: ProblemInstance,
    n_iters: int,
    seed: int,
    max_draws: int | None = None,
    initial: DecisionProfile | None = None,
    callback=None,
) -> tuple[DecisionProfile, list[SfwRecord]]:
    """Stochastic solver with the stopping-time draw rule and canonical steps.

    Records reuse the stochastic record type: ``n_draws`` holds the
    number of candidates actually drawn, ``active_count`` the number of
    subproblems solved (always N here, the acceptance threshold needs
    the full best response), and ``accepted`` whether the inequality was
    met within the draw budget.
    """
    constants = compute_constants(problem)
    rule = CanonicalStep()

    def step(k, profile, rows, stream):
        value = rows_objective(problem, rows[0])
        result = stopping_time_step(
            problem, profile, k, rule.omega(k), stream,
            max_draws=max_draws, constants=constants, rows=rows,
        )
        record = SfwRecord(k, value, result.beta, rule.omega(k), result.n_draws,
                           problem.n_agents, result.accepted, 0.0)
        return result.decisions, record

    return _iterate(problem, n_iters, seed, initial, callback, step)
