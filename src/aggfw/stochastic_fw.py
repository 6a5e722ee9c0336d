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
    rows_aggregate,
    rows_objective,
    sequential_sum,
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
    ``active_count`` holds the agents that switch in some candidate (``sfw_step``), the N
    subproblems solved (``stopping_time_run``), or 0 (a run's terminal record).
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
    if not 0.0 <= omega <= 1.0:
        raise ValueError(f"switch probability must lie in [0, 1], got {omega}")
    n_draws, n_agents = _count(n_draws, "n_draws"), _count(n_agents, "n_agents")
    switches, step = np.empty((n_draws, n_agents), dtype=bool), max(_BLOCK // n_agents, 1)
    for j in range(0, n_draws, step):
        np.less(rng.random(switches[j:j + step].shape), omega, out=switches[j:j + step])
    return switches


def canonical_active_expectation(n_agents: int, k: int, n_draws: int) -> float:
    """Expected number of agents needing a subproblem solve, N(1 - (k/(k+2))^n_k).

    Valid under the canonical step size, for which the switch
    probability at iteration k is 2/(k+2).
    """
    k, n_draws = _count(k, "k", 0), _count(n_draws, "n_draws")
    return _count(n_agents, "n_agents") * (1.0 - (k / (k + 2.0)) ** n_draws)


@dataclass
class _Linearization:
    """The objective linearized at its run's iterate, with the solved agents' moves.

    ``tokens`` holds the iterate's tokens with each agent marked ``solved`` at its best response to
    ``grad``, ``moved`` those whose response differs under ``==``, and ``delta`` the moved agents'
    response rows, which the run's ``_HeldRows`` holds, less their own.  ``ybar`` and both gaps
    need every agent's best response; until a request for every agent they are None and NaN.
    ``value``, f_value(y), is None until ``sfw_step`` asks.  ``beta`` takes ybar = y + mean(delta),
    ``beta_rows`` the mean of the best-response rows: the two differ in the last bits, and the
    recorded trajectories pin the first in the records and the second in the closed-loop step sizes.
    """

    y: Aggregate
    grad: Aggregate
    tokens: np.ndarray
    delta: np.ndarray
    solved: np.ndarray
    moved: np.ndarray
    ybar: Aggregate | None = None
    beta: float = math.nan
    beta_rows: float = math.nan
    value: float | None = None


class _Run:
    """A stochastic run's state: the iterate ``profile`` (by default the zero-gradient
    profile), its contribution ``rows``, the run's ``_HeldRows``, the iterate's
    linearization ``lin`` (None until a step asks for it) and the candidate buffers for up
    to ``n_max`` draws: the switches as floats, (n_max, N), and the points, (n_max, q).
    With ``full`` each step solves every agent."""

    def __init__(self, problem: ProblemInstance, profile=None, n_max=0, full=False):
        self.profile = profile if profile is not None else zero_gradient_profile(problem)
        self.rows, self.held = profile_rows(problem, self.profile), _HeldRows(problem)
        self.lin: _Linearization | None = None
        self.full, self.floats = full, np.empty((n_max, problem.n_agents))
        self.points = np.empty((n_max, problem.total_dim))


def _linearize(problem: ProblemInstance, run: _Run, agents=None) -> _Linearization:
    """``run.lin``, built at ``run.profile`` if None, with ``agents`` (None: all) solved.

    Only agents not solved at the iterate yet are asked, in the order given.  A response
    row is the agent's own row if its token is unchanged, else the one held.  ``ybar``
    and both gaps are filled at the first request for every agent (None)."""
    n, lin, rows = problem.n_agents, run.lin, run.rows
    if lin is None:
        y, tokens = rows_aggregate(problem, rows), np.fromiter(run.profile.decisions, object, n)
        lin = run.lin = _Linearization(y, problem.f_grad(y), tokens, np.zeros(rows.shape),
                                       np.zeros(n, bool), np.zeros(n, bool))
    asked = np.arange(n) if agents is None else np.asarray(agents, dtype=np.intp)
    new = asked[~lin.solved[asked]]
    if new.size:
        best = np.fromiter(problem.best_response_all(lin.grad, new), object, new.size)
        moved = new[~(lin.tokens[new] == best)]
        lin.tokens[new], lin.solved[new], lin.moved[moved] = best, True, True
        run.held.hold(moved, lin.tokens[moved])
        lin.delta[moved] = run.held.rows[moved] - rows[moved]
    if agents is None and lin.ybar is None:
        y, grad = lin.y, lin.grad
        lin.ybar = Aggregate(y.values + sequential_sum(lin.delta) / n, problem.block_dims)
        responses = np.where(lin.moved[:, None], run.held.rows, rows)
        lin.beta_rows = dual_gap_beta(problem, y, rows_aggregate(problem, responses), grad=grad)
        lin.beta = dual_gap_beta(problem, y, lin.ybar, grad=grad)
    return lin


def sfw_step(
    problem: ProblemInstance,
    profile: DecisionProfile,
    k: int,
    omega: float,
    n_draws: int,
    rng: np.random.Generator,
    keep_if_worse: bool = True,
    run: _Run | None = None,
) -> tuple[DecisionProfile, SfwRecord]:
    """One stochastic Frank-Wolfe update from ``profile``.

    Bernoulli switches are presampled first, so only the agents that actually switch in some
    candidate get their subproblem solved, unless the run solves every agent; the trajectory
    is identical either way.  The record's ``beta`` is NaN unless the step asked every agent.
    With ``keep_if_worse`` the iterate stays put when every candidate is worse than the
    current profile (the objective then never increases); otherwise the best candidate is
    taken unconditionally; a candidate that changes no token returns ``profile`` itself.
    At ``omega = 0`` every candidate is the iterate, so the step draws and scores one row: it
    reads N uniforms from ``rng``, not ``n_draws``·N, and records ``n_draws`` all the same.
    A run loop passes its ``_Run`` (its ``profile`` is ``profile``, its buffers hold
    ``n_draws`` rows or more).
    """
    start = time.perf_counter()
    if not 0.0 <= omega <= 1.0:
        raise ValueError(f"switch probability must lie in [0, 1], got {omega}")
    k, n_draws, n = _count(k, "k", 0), _count(n_draws, "n_draws"), problem.n_agents
    run = run if run is not None else _Run(problem, profile, n_draws)
    switches = bernoulli_matrix(rng, n_draws if omega > 0.0 else 1, n, omega)
    active = np.flatnonzero(switches.any(axis=0))
    agents = None if run.full or active.size == n else active
    lin = _linearize(problem, run, agents)
    value = lin.value = problem.f_value(lin.y) if lin.value is None else lin.value
    _check_finite(value, k)

    floats, points = run.floats[:len(switches)], run.points[:len(switches)]
    np.copyto(floats, switches)
    np.matmul(floats, lin.delta, out=points)  # one product: BLAS bits follow its shape
    points /= n
    points += lin.y.values
    candidate_values, step = np.empty(len(switches)), max(_BLOCK // points.shape[1], 1)
    for j in range(0, len(switches), step):
        candidate_values[j:j + step] = problem.f_value_batch(points[j:j + step])
    _check_finite(candidate_values, k)
    best = int(np.argmin(candidate_values))  # first occurrence wins ties

    beta, moved = lin.beta if agents is None else math.nan, False
    if not keep_if_worse or candidate_values[best] < value:
        moved = _apply_switches(run, switches[best])
    record = SfwRecord(k, value, beta, omega, n_draws, active.size, moved,
                       (time.perf_counter() - start) * 1e3)
    return run.profile, record


def _apply_switches(run: _Run, switches: np.ndarray) -> bool:
    """Move ``run`` to the iterate with the switched agents at their best responses, and
    tell whether it moved: the iterate and its linearization stay if no token changes."""
    if not (moving := switches & run.lin.moved).any():
        return False
    run.rows[moving] = run.held.rows[moving]
    run.profile = DecisionProfile(
        np.where(switches, run.lin.tokens, np.fromiter(run.profile.decisions, object)))
    run.lin = None
    return True


def _check_finite(values, k: int) -> None:
    if not np.isfinite(values).all():
        raise ValueError(f"non-finite objective at iteration {k}")


def _iterate(problem, n_iters: int, seed: int, initial, callback, step, n_max=0, full=True):
    """Outer loop shared by the stochastic solvers.

    ``step(k, run, stream)`` returns the record of iteration k and moves ``run``, the
    ``_Run(problem, initial, n_max, full)``, to the next iterate; ``stream`` is the
    iteration's Bernoulli stream.  The record's ``wall_ms`` is the whole iteration's.
    """
    n_iters = _count(n_iters, "n_iters")
    if n_iters > 2 * problem.n_agents:
        warnings.warn(
            f"{n_iters} iterations exceed twice the agent count "
            f"({problem.n_agents}); the convergence bounds are proven only up to 2N",
            stacklevel=3,
        )
    run, records = _Run(problem, initial, n_max, full), []
    for k in range(n_iters):
        start = time.perf_counter()
        record = step(k, run, _rng.stream(seed, _rng.BERNOULLI, 0, k))
        record = dataclasses.replace(record, wall_ms=(time.perf_counter() - start) * 1e3)
        records.append(record)
        if callback is not None:
            callback(record)
    # Terminal sentinel: the final objective, no draws and no step.
    final = rows_objective(problem, run.rows)
    records.append(SfwRecord(n_iters, final, math.nan, math.nan, 0, 0, False, 0.0))
    return run.profile, records


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
    The same best responses serve the gap and the candidates, and a step that keeps
    the iterate (rejected, or changing no token) leaves its linearization to the next.
    The convergence guarantees cover iteration counts up to 2N; longer
    runs are allowed but flagged.  A terminal sentinel record carries
    the final objective (its draw and active counts are zero).
    """
    rule = rule if rule is not None else CanonicalStep()
    if not isinstance(rule, (CanonicalStep, LineSearchSfwStep)):
        raise ValueError(f"unsupported step rule for the stochastic solver: {rule!r}")
    closed_loop = isinstance(rule, LineSearchSfwStep)
    n_iters = _count(n_iters, "n_iters")
    sizes = [_count(schedule.size(k, problem.n_agents), f"schedule size at iteration {k}")
             for k in range(n_iters)]

    def step(k, run, stream):
        beta = _linearize(problem, run).beta_rows if closed_loop else None  # the step reuses it
        return sfw_step(problem, run.profile, k, rule.omega(k, beta=beta), sizes[k], stream,
                        keep_if_worse=keep_if_worse, run=run)[1]

    return _iterate(problem, n_iters, seed, initial, callback, step,
                    n_max=max(sizes), full=closed_loop or not use_active_set)


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
    n_agents, k = _count(n_agents, "n_agents"), _count(k, "k", 0)
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
    run: _Run | None = None,
) -> StoppingStep:
    """Draw candidates one at a time until the acceptance inequality holds.

    A candidate is accepted as soon as its objective does not exceed the
    relaxed value of the mixed iterate, ``f((1-omega) y + omega ybar)``,
    by more than ``(C1/2 + C0) omega^2``.  If ``max_draws`` candidates
    all fail, the best one seen is returned with ``accepted=False``.
    The step solves every agent.  ``run`` is as in ``sfw_step``.
    """
    if not 0.0 <= omega <= 1.0:
        raise ValueError(f"switch probability must lie in [0, 1], got {omega}")
    k, n, dims = _count(k, "k", 0), problem.n_agents, problem.block_dims
    constants = constants if constants is not None else compute_constants(problem)
    max_draws = _count(default_draw_cap(n, k) if max_draws is None else max_draws, "max_draws")
    run = run if run is not None else _Run(problem, profile)
    lin = _linearize(problem, run)
    mixed = Aggregate((1.0 - omega) * lin.y.values + omega * lin.ybar.values, dims)
    threshold = problem.f_value(mixed) + (constants.c1 / 2.0 + constants.c0) * omega**2
    _check_finite(threshold, k)

    best_value, best_switches = np.inf, None
    for j in range(max_draws):
        switches = rng.random(n) < omega
        value = problem.f_value(
            Aggregate(lin.y.values + (switches.astype(float) @ lin.delta) / n, dims)
        )
        _check_finite(value, k)
        if value <= threshold:
            _apply_switches(run, switches)
            return StoppingStep(run.profile, j + 1, True, value, lin.beta)
        if value < best_value:
            best_value, best_switches = value, switches
    _apply_switches(run, best_switches)
    return StoppingStep(run.profile, max_draws, False, best_value, lin.beta)


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

    def step(k, run, stream):
        value = float(problem.f_block_values(_linearize(problem, run).y).sum())
        _check_finite(value, k)
        result = stopping_time_step(
            problem, run.profile, k, rule.omega(k), stream,
            max_draws=max_draws, constants=constants, run=run,
        )
        return SfwRecord(k, value, result.beta, rule.omega(k), result.n_draws,
                         problem.n_agents, result.accepted, 0.0)

    return _iterate(problem, n_iters, seed, initial, callback, step)
