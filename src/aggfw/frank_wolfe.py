"""Frank-Wolfe on the relaxed problem, with step rules and gap tracking.

Each iteration solves the N decoupled linearized subproblems at the
current mean aggregate, then mixes the best-response Dirac profile into
the measure iterate.  The computable dual gap ``beta_k`` upper-bounds
the primal gap at every iteration, so runs are certifiable even when no
reference relaxed optimum is available.
"""
from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .bounds import ProblemConstants, compute_constants, sample_size_for_confidence
from .measures import MeasureProfile, _Atoms, mix, select_best  # noqa: F401 (mix: traced by name)
from .problems import Aggregate, DecisionProfile, ProblemInstance, _block_starts, _count
from .problems import _HeldRows, aggregate_of, rows_aggregate, zero_gradient_profile


@dataclass(frozen=True)
class CanonicalStep:
    """Canonical open-loop step size 2 / (k + 2)."""

    def omega(self, k: int, beta: float | None = None, curvature: float | None = None) -> float:
        return 2.0 / (k + 2.0)


@dataclass(frozen=True)
class LineSearchFwStep:
    """Exact minimizer of the per-iteration quadratic upper model.

    The model is ``-omega beta_k + C_k omega^2 / 2`` with the curvature
    ``C_k`` measured at the current pair (y_k, ybar_k); a vanishing
    curvature means the iterate already coincides with its best response,
    so the step collapses to zero.
    """

    def omega(self, k: int, beta: float, curvature: float) -> float:
        if curvature <= 0.0:
            return 0.0
        return min(max(beta / curvature, 0.0), 1.0)


@dataclass(frozen=True)
class LineSearchSfwStep:
    """Closed-loop step for the stochastic solver.

    Minimizes ``-omega beta + omega^2 C1/2 + omega (1-omega) C1/(2N)``
    over [0, 1], which accounts for the extra relaxation cost paid by
    per-agent resampling.
    """

    c1: float
    n_agents: int

    def __post_init__(self):
        if not 0.0 <= self.c1 < np.inf:
            raise ValueError(f"curvature constant must be nonnegative and finite, got {self.c1}")
        object.__setattr__(self, "n_agents", _count(self.n_agents, "n_agents"))

    @classmethod
    def from_constants(cls, constants: ProblemConstants) -> "LineSearchSfwStep":
        return cls(c1=constants.c1, n_agents=constants.n_agents)

    def omega(self, k: int, beta: float, curvature: float | None = None) -> float:
        slope = beta - self.c1 / (2.0 * self.n_agents)
        quad = self.c1 * (1.0 - 1.0 / self.n_agents)
        if quad <= 0.0:  # single agent: the model is linear in omega
            return 1.0 if slope > 0.0 else 0.0
        return min(max(slope / quad, 0.0), 1.0)


StepRule = CanonicalStep | LineSearchFwStep | LineSearchSfwStep


@dataclass(frozen=True)
class FwRecord:
    """State of one Frank-Wolfe iteration, captured before the update."""

    k: int
    objective: float
    beta: float
    omega: float
    support_sizes: tuple[int, ...]
    wall_ms: float


_GAP_TOL = 1e-9  # relative: see dual_gap_beta


def dual_gap_beta(problem: ProblemInstance, y: Aggregate, ybar: Aggregate, *, grad=None) -> float:
    """Computable dual gap <grad f(y), y - ybar>.

    Nonnegative whenever ``ybar`` came from an exact best response at ``y``, up to
    rounding; a value below ``-_GAP_TOL`` times sum_j |grad_j| (|y_j| + |ybar_j|), which
    bounds that rounding, signals a broken oracle and raises at any scale of the instance.
    A caller holding ``grad f(y)`` passes it as ``grad``.
    """
    grad = problem.f_grad(y) if grad is None else grad
    diff = Aggregate(y.values - ybar.values, y.block_dims).values
    value = float(grad.values @ diff)
    if value < 0 and value < -_GAP_TOL * (
            scale := float(np.abs(grad.values) @ (np.abs(y.values) + np.abs(ybar.values)))):
        raise ValueError(f"dual gap {value:.3e} is negative beyond {_GAP_TOL:.0e} of {scale:.3e}")
    return value


def quadratic_curvature(problem: ProblemInstance, y: Aggregate, ybar: Aggregate) -> float:
    """Per-iteration curvature C_k = sum_j Ltilde_j |ybar_j - y_j|^2."""
    diff = Aggregate(ybar.values - y.values, y.block_dims).values
    sqnorms = np.add.reduceat(diff**2, _block_starts(*y.block_dims))
    return float(np.asarray(problem.lipschitz_grad, dtype=float) @ sqnorms)


def fw_run(
    problem: ProblemInstance,
    n_iters: int,
    rule: StepRule | None = None,
    initial: DecisionProfile | None = None,
    callback=None,
) -> tuple[MeasureProfile, list[FwRecord]]:
    """Run the measure-valued Frank-Wolfe algorithm for ``n_iters`` steps.

    Starts from the Dirac profile at ``initial`` (default: the
    best-response profile to a zero gradient), checked as in ``sfw_run``.
    One record is emitted per iteration plus a terminal record for the
    final iterate, whose ``omega`` is NaN; the mean aggregate is maintained
    incrementally, which is exact up to the pruning threshold.
    """
    n_iters = _count(n_iters, "n_iters")
    rule = rule if rule is not None else CanonicalStep()
    initial = initial if initial is not None else zero_gradient_profile(problem)
    profile, y = MeasureProfile.dirac(initial), aggregate_of(problem, initial)
    atoms, ones = _Atoms(profile), profile.weights  # the Dirac weights, all 1.0
    held, agents = _HeldRows(problem), np.arange(problem.n_agents)
    records: list[FwRecord] = []
    for k in range(n_iters + 1):
        start = time.perf_counter()
        grad = problem.f_grad(y)
        xbar = np.fromiter(problem.best_response_all(grad), object, problem.n_agents)
        moved = held.hold(agents, xbar)
        ybar = rows_aggregate(problem, held.rows)
        beta = dual_gap_beta(problem, y, ybar, grad=grad)
        value = problem.f_value(y)
        if not np.isfinite(value):
            raise ValueError(f"non-finite relaxed objective at iteration {k}")
        if k == n_iters:  # terminal record: no step is taken
            records.append(FwRecord(k, value, beta, float("nan"), atoms.support_sizes,
                                    (time.perf_counter() - start) * 1e3))
            break
        omega = rule.omega(k, beta=beta, curvature=quadratic_curvature(problem, y, ybar))
        supports = atoms.support_sizes  # state at k, before the update
        profile = atoms.mix(ones, xbar[:, None], omega, moved)  # the Dirac profile at xbar
        y = Aggregate((1.0 - omega) * y.values + omega * ybar.values, y.block_dims)
        record = FwRecord(k, value, beta, omega, supports,
                          (time.perf_counter() - start) * 1e3)
        records.append(record)
        if callback is not None:
            callback(record)
    return profile, records


@dataclass(frozen=True)
class FwSelectionResult:
    """Outcome of a Frank-Wolfe run followed by the selection method."""

    decisions: DecisionProfile
    value: float
    records: list[FwRecord]
    measure: MeasureProfile
    recommended_draws: int | None


def fw_with_selection(
    problem: ProblemInstance,
    n_iters: int,
    n_select: int,
    seed: int,
    zeta: float = 0.1,
) -> FwSelectionResult:
    """Canonical-step Frank-Wolfe followed by best-of-``n_select`` sampling of the iterate.

    Also reports the draw count the selection guarantee asks for at
    confidence ``1 - zeta`` (only defined while the iteration count does
    not exceed N; beyond that the guarantee degrades and None is
    returned).
    """
    n_select, seed = _count(n_select, "n_select"), _count(seed, "seed", 0)
    if not 0 < zeta < 1:  # a NaN fails here too
        raise ValueError(f"confidence level zeta must lie in (0, 1), got {zeta}")
    profile, records = fw_run(problem, n_iters)
    constants = compute_constants(problem)
    recommended = None
    if n_iters <= problem.n_agents:
        recommended = sample_size_for_confidence(n_iters, problem.n_agents, zeta,
                                                 constants.c0, constants.c1)
    else:
        warnings.warn(
            f"selection after {n_iters} iterations with only {problem.n_agents} agents: "
            "the sampling guarantee holds for iteration counts up to N",
            stacklevel=2,
        )
    decisions, value = select_best(problem, profile, n_select,
                                   _rng.stream(seed, _rng.SELECTION, 0, n_iters))
    return FwSelectionResult(decisions, value, records, profile, recommended)
