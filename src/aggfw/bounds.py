"""Closed-form constants, gap certificates and tail bounds.

Everything here is a pure function of the problem's regularity data
(Lipschitz moduli and contribution diameters) or of simple schedule
parameters; nothing touches the solvers.  The one exception is the
nonconvexity-measure diagnostic at the bottom, which runs an exact
small-scale optimization over a grid.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .measures import DiscreteMeasure, total_contribution_variance
from .problems import ProblemInstance, _count


@dataclass(frozen=True, eq=False)
class ProblemConstants:
    """Aggregated regularity constants of one problem instance.

    ``c0`` controls bounded differences of the objective in any single
    agent's decision; ``c1`` is the curvature constant of the relaxed
    objective; ``d_i`` are the per-agent refined-gap weights.
    """

    c0: float
    c1: float
    d_i: np.ndarray
    lipschitz_f: np.ndarray
    lipschitz_grad: np.ndarray
    diameters: np.ndarray
    total_dim: int

    @property
    def n_agents(self) -> int:
        return self.d_i.size

    def d_of_k(self, k: int) -> float:
        """Sum of the k largest per-agent weights D_i (top-k sum)."""
        if _count(k, "k") > self.n_agents:
            raise ValueError(f"k must lie in [1, {self.n_agents}], got {k}")
        return float(np.sort(self.d_i)[::-1][:k].sum())


def compute_constants(problem: ProblemInstance) -> ProblemConstants:
    """Assemble C0, C1 and the per-agent weights from the instance data."""
    lip_f = np.asarray(problem.lipschitz_f, dtype=float)
    lip_grad = np.asarray(problem.lipschitz_grad, dtype=float)
    diam = np.asarray(problem.diameters, dtype=float)
    n, m = problem.n_agents, problem.n_blocks
    if lip_f.shape != (m,) or lip_grad.shape != (m,) or diam.shape != (n, m):
        raise ValueError("constant arrays do not match the problem dimensions")
    if not ((lip_f >= 0).all() and (lip_grad >= 0).all() and (diam >= 0).all()):
        raise ValueError("Lipschitz moduli and diameters must be nonnegative")
    d_i = (diam**2) @ lip_grad
    return ProblemConstants(
        c0=float(lip_f @ diam.max(axis=0)),
        c1=float(d_i.sum() / n),
        d_i=d_i,
        lipschitz_f=lip_f,
        lipschitz_grad=lip_grad,
        diameters=diam,
        total_dim=problem.total_dim,
    )


def gap_bound_basic(constants: ProblemConstants) -> float:
    """First randomization-gap bound, C1 / (2N)."""
    return constants.c1 / (2 * constants.n_agents)


def gap_bound_refined(constants: ProblemConstants) -> float:
    """Refined gap bound D[q ^ N] / (2 N^2); never exceeds the basic one."""
    n = constants.n_agents
    return constants.d_of_k(min(constants.total_dim, n)) / (2 * n**2)


def mcdiarmid_tail(n_agents: int, epsilon: float, c0: float) -> float:
    """Failure probability bound exp(-2 N eps^2 / C0^2) for the selection method."""
    if not epsilon >= 0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    if c0 == 0:
        return 1.0 if epsilon == 0 else 0.0
    return float(np.exp(-2.0 * n_agents * epsilon**2 / c0**2))


def mcdiarmid_variance_tail(n_agents: int, epsilon: float, sum_vi2: float, c0: float) -> float:
    """Variance-flavored tail bound exp(-N eps^2 / (2 (N sum_i v_i^2 + C0 eps / 3)))."""
    if not epsilon >= 0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    if epsilon == 0:
        return 1.0
    denom = 2.0 * (n_agents * sum_vi2 + c0 * epsilon / 3.0)
    if denom == 0:
        return 0.0
    return float(np.exp(-n_agents * epsilon**2 / denom))


def variance_proxy(problem: ProblemInstance, measure: DiscreteMeasure) -> float:
    """Per-agent variance constant v_i^2 = (2/N^2) (sum_j L_j^2) sigma^2_mu[g_i]."""
    lip_sq = float(np.asarray(problem.lipschitz_f, dtype=float) ** 2 @ np.ones(problem.n_blocks))
    return 2.0 * lip_sq * total_contribution_variance(problem, measure) / problem.n_agents**2


def sfw_tail_constants(n_iters: int, c0: float, schedule, n_agents: int) -> tuple[float, float]:
    """Concentration constants (v_K, m_K) of the stochastic solver at K = n_iters.

    ``schedule`` must expose ``size(k, n_agents) -> int``, the number of
    candidate draws at iteration k.
    """
    big_k = _count(n_iters, "n_iters")
    v_sum = 0.0
    m_max = 0.0
    for k in range(1, big_k):
        n_k = schedule.size(k, n_agents)
        v_sum += k * (k + 1) ** 2 / n_k
        m_max = max(m_max, (k + 1) * (k + 2) / n_k)
    v = 2.0 * c0**2 / (big_k**2 * (big_k + 1) ** 2) * v_sum
    m = c0 / (big_k * (big_k + 1)) * m_max
    return v, m


def sfw_tail(n_iters: int, epsilon: float, n_agents: int, c0: float, schedule) -> float:
    """Probability bound on gamma_K exceeding 4 C1 / K by epsilon."""
    if not epsilon >= 0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    if epsilon == 0:
        return 1.0
    v, m = sfw_tail_constants(n_iters, c0, schedule, n_agents)
    denom = 2.0 * (v + epsilon * m / 3.0)
    if denom == 0:
        return 0.0
    return float(np.exp(-(epsilon**2) * n_agents / denom))


def sample_size_for_confidence(k: int, n_agents: int, zeta: float, c0: float, c1: float) -> int:
    """Number of selection draws so the best sample is (3 C1 / k)-optimal w.p. 1 - zeta."""
    if _count(k, "k") > n_agents:
        raise ValueError(f"the guarantee requires 1 <= k <= N, got k={k}, N={n_agents}")
    if not 0 < zeta < 1:
        raise ValueError(f"confidence level zeta must lie in (0, 1), got {zeta}")
    if c1 <= 0:
        raise ValueError(f"c1 must be positive, got {c1}")
    raw = 2.0 * c0**2 / c1**2 * k**2 / n_agents * math.log(1.0 / zeta)
    return max(math.ceil(raw), 1)


# --- nonconvexity-measure diagnostic ---------------------------------

_MAX_POINTS = 64
_MAX_DIM = 3
_FEAS_TOL = 1e-9
_WEIGHT_TOL = 1e-12


def nonconvexity_measure(points, resolution: float = 0.01) -> float:
    """Grid lower bound on the nonconvexity measure of a finite point set.

    For each grid point ``y`` of the convex hull, the minimal variance of
    a probability measure on the set with mean ``y`` equals the linear
    program ``min sum_s w_s |p_s|^2`` over simplex weights with mean
    ``y``, minus ``|y|^2``.  Basic optimal solutions are supported on
    affinely independent subsets of at most ``q + 1`` points, so the
    program is solved exactly by enumerating those supports.  The grid
    is an axis-aligned lattice of the bounding box with relative spacing
    ``resolution`` per axis; grid points outside the hull have no
    feasible support and drop out on their own.  The returned value is
    the square root of the grid maximum, a lower bound on the true
    measure up to the grid resolution.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2:
        raise ValueError("points must form a (P, q) array")
    n_points, dim = pts.shape
    if n_points > _MAX_POINTS or dim > _MAX_DIM:
        raise ValueError(
            f"diagnostic limited to {_MAX_POINTS} points in dimension <= {_MAX_DIM}, "
            f"got {n_points} points in dimension {dim}"
        )
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    if not 0 < resolution <= 1:
        raise ValueError(f"resolution must lie in (0, 1], got {resolution}")

    steps = round(1.0 / resolution)
    axes = []
    for d in range(dim):
        lo, hi = pts[:, d].min(), pts[:, d].max()
        axes.append(np.linspace(lo, hi, steps + 1) if hi > lo else np.array([lo]))
    grid = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)

    sqnorms = np.einsum("ij,ij->i", pts, pts)
    rhs = np.concatenate([grid, np.ones((grid.shape[0], 1))], axis=1).T  # (q+1, G)
    best = np.full(grid.shape[0], np.inf)
    scale = max(1.0, float(np.abs(rhs).max()))

    for size in range(1, dim + 2):
        for subset in itertools.combinations(range(n_points), size):
            basis = np.concatenate([pts[subset, :].T, np.ones((1, size))], axis=0)  # (q+1, s)
            if size == dim + 1:
                try:
                    weights = np.linalg.solve(basis, rhs)
                except np.linalg.LinAlgError:
                    continue  # affinely dependent support, covered by its subsets
                residual = np.zeros(grid.shape[0])
            else:
                weights, *_ = np.linalg.lstsq(basis, rhs, rcond=None)
                residual = np.abs(basis @ weights - rhs).max(axis=0)
            feasible = (weights.min(axis=0) >= -_WEIGHT_TOL) & (residual <= _FEAS_TOL * scale)
            value = sqnorms[list(subset)] @ weights
            np.minimum(best, np.where(feasible, value, np.inf), out=best)

    inside = np.isfinite(best)
    if not inside.any():
        return 0.0
    variances = best[inside] - np.einsum("ij,ij->i", grid[inside], grid[inside])
    return float(np.sqrt(max(float(variances.max()), 0.0)))
