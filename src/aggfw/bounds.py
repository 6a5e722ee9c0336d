"""Closed-form constants, gap certificates and tail bounds.

Everything here is a pure function of the problem's regularity data
(Lipschitz moduli and contribution diameters) or of simple schedule
parameters; nothing touches the solvers.  The one exception is the
nonconvexity-measure diagnostic at the bottom, which computes the exact
measure of a small point set from the faces of its Delaunay cells.
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
        total_dim=problem.total_dim,
    )


def gap_bound_basic(constants: ProblemConstants) -> float:
    """First randomization-gap bound, C1 / (2N)."""
    return constants.c1 / (2 * constants.n_agents)


def gap_bound_refined(constants: ProblemConstants) -> float:
    """Refined gap bound D[q ^ N] / (2 N^2); never exceeds the basic one."""
    n = constants.n_agents
    return constants.d_of_k(min(constants.total_dim, n)) / (2 * n**2)


def _tail_count(n_agents, c0: float, epsilon: float = 0.0) -> int:
    """``n_agents`` as a count, once ``epsilon`` and ``c0`` are nonnegative, ``c0`` finite."""
    if not epsilon >= 0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    if not 0 <= c0 < math.inf:
        raise ValueError(f"c0 must be finite and nonnegative, got {c0}")
    return _count(n_agents, "n_agents")


def _exponent(epsilon: float, c0: float) -> int:
    """0 while eps and C0 are 0, infinite or in [2^-500, 2^500]; else the e that puts the
    larger finite one over 2^e in [0.5, 1).  A tail is the same function of eps and C0 over
    2^e and of its variance term over 4^e, and scaling keeps its squares in range.  In range
    nothing is scaled, as ``**`` (C's ``pow``) need not round x^2 and (x 2^-e)^2 alike."""
    finite = [x for x in (epsilon, c0) if 0 < x < math.inf]
    if all(2.0**-500 <= x <= 2.0**500 for x in finite):
        return 0
    return math.frexp(max(finite))[1]


def _ldexp(x: float, e: int) -> float:
    """x 2^e, or +-inf where ``math.ldexp`` would raise ``OverflowError``."""
    with np.errstate(over="ignore"):
        return float(np.ldexp(x, e))


def mcdiarmid_tail(n_agents: int, epsilon: float, c0: float) -> float:
    """Failure probability bound exp(-2 N eps^2 / C0^2) for the selection method."""
    return _bernstein_tail(n_agents, epsilon, c0, lambda n, e: (math.ldexp(c0, -e) ** 2 / 4, 0.0))


def _bernstein_tail(n_agents, epsilon: float, c0: float, constants) -> float:
    """exp(-N eps^2 / (2 (v + eps m / 3))), with (v, m) = ``constants(N, e)`` the constants
    at eps and C0 over 2^e (``_exponent``), once N is a count."""
    n_agents, e = _tail_count(n_agents, c0, epsilon), _exponent(epsilon, c0)
    v, m = constants(n_agents, e)
    if not v >= 0:
        raise ValueError(f"variance term must be nonnegative, got {_ldexp(v, 2 * e)}")
    epsilon = math.ldexp(epsilon, -e)
    if epsilon**2 == 0:  # eps is 0, or eps / C0 < 2^-536 leaves the exponent negligible
        return 1.0
    denom = 2.0 * (v + epsilon * m / 3.0)
    if denom == 0 or epsilon == math.inf:
        return 0.0
    return float(np.exp(-n_agents * epsilon**2 / denom))


def mcdiarmid_variance_tail(n_agents: int, epsilon: float, sum_vi2: float, c0: float) -> float:
    """Variance-flavored tail bound exp(-N eps^2 / (2 (N sum_i v_i^2 + C0 eps / 3)))."""
    return _bernstein_tail(n_agents, epsilon, c0,
                           lambda n, e: (n * _ldexp(sum_vi2, -2 * e), math.ldexp(c0, -e)))


def variance_proxy(problem: ProblemInstance, measure: DiscreteMeasure) -> float:
    """Per-agent variance constant v_i^2 = (2/N^2) (sum_j L_j^2) sigma^2_mu[g_i]."""
    lip_sq = float(np.asarray(problem.lipschitz_f, dtype=float) ** 2 @ np.ones(problem.n_blocks))
    return 2.0 * lip_sq * total_contribution_variance(problem, measure) / problem.n_agents**2


def sfw_tail_constants(n_iters: int, c0: float, schedule, n_agents: int) -> tuple[float, float]:
    """Concentration constants (v_K, m_K) of the stochastic solver at K = n_iters.

    ``schedule`` must expose ``size(k, n_agents) -> int``, the number of
    candidate draws at iteration k.
    """
    big_k, n_agents = _count(n_iters, "n_iters"), _tail_count(n_agents, c0)
    e = _exponent(0.0, c0)  # outside the window, C0 over 2^e keeps c0**2 in range
    c0 = math.ldexp(c0, -e)
    v_sum, m_max = 0.0, 0.0
    for k in range(1, big_k):
        n_k = _count(schedule.size(k, n_agents), f"schedule size at iteration {k}")
        v_sum += k * (k + 1) ** 2 / n_k
        m_max = max(m_max, (k + 1) * (k + 2) / n_k)
    v = 2.0 * c0**2 / (big_k**2 * (big_k + 1) ** 2) * v_sum
    m = c0 / (big_k * (big_k + 1)) * m_max
    return _ldexp(v, 2 * e), _ldexp(m, e)


def sfw_tail(n_iters: int, epsilon: float, n_agents: int, c0: float, schedule) -> float:
    """Probability bound on gamma_K exceeding 4 C1 / K by epsilon."""
    return _bernstein_tail(n_agents, epsilon, c0, lambda n, e: sfw_tail_constants(
        n_iters, math.ldexp(c0, -e), schedule, n))


def sample_size_for_confidence(k: int, n_agents: int, zeta: float, c0: float, c1: float) -> int:
    """Number of selection draws so the best sample is (3 C1 / k)-optimal w.p. 1 - zeta."""
    n_agents = _tail_count(n_agents, c0)
    if _count(k, "k") > n_agents:
        raise ValueError(f"the guarantee requires 1 <= k <= N, got k={k}, N={n_agents}")
    if not 0 < zeta < 1:
        raise ValueError(f"confidence level zeta must lie in (0, 1), got {zeta}")
    if not 0 < c1 < math.inf:
        raise ValueError(f"c1 must be positive and finite, got {c1}")
    e = _exponent(c0, c1)  # the count depends on C0 / C1 only
    c0_e, c1_e = math.ldexp(c0, -e), math.ldexp(c1, -e)  # C0 / C1 > 2^536 leaves c1_e**2 0
    raw = 2.0 * c0_e**2 / c1_e**2 * k**2 / n_agents * math.log(1.0 / zeta) if c1_e**2 else math.inf
    if raw == math.inf:
        raise ValueError(f"the draw count for c0={c0!r}, c1={c1!r} is too large to represent")
    return max(math.ceil(raw), 1)


# --- nonconvexity-measure diagnostic ---------------------------------

_MAX_POINTS = 64
_MAX_DIM = 3
_FLAT = 1e-12  # a Gram determinant below this share of its diagonal's product is singular
_INSIDE = 1e-14  # a point nearer a circumcentre than R^2 (1 - _INSIDE) lies inside its sphere
_SUBSETS = 1 << 10  # subsets per batch: 64 points in 3-D have 635,376 to try


def _circumspheres(pts: np.ndarray, subsets: np.ndarray):
    """The affinely independent rows of point indices, and for each mu with 2 G mu = diag G (G
    the Gram matrix of the edges from the row's first point v0) and c - v0 = mu @ edges, with c
    the circumcentre in the subset's affine hull."""
    edges = pts[subsets[:, 1:]] - pts[subsets[:, :1]]
    gram = edges @ edges.transpose(0, 2, 1)
    diag = np.diagonal(gram, axis1=1, axis2=2)
    free = np.linalg.det(gram) > _FLAT * diag.prod(axis=1)
    mu = np.linalg.solve(2.0 * gram[free], diag[free][..., None])
    return subsets[free], mu[..., 0], (mu.transpose(0, 2, 1) @ edges[free])[:, 0]


def nonconvexity_measure(points, resolution: float = 0.01) -> float:
    """Nonconvexity measure of a finite point set, exact up to rounding.

    The square root of the largest, over the points ``y`` of the hull, least variance of a
    probability measure on the set with mean ``y``: ``phi(y) - |y|^2`` (LP duality), with
    ``phi`` the lower convex envelope of ``|p|^2`` on the points.  By the lifting map ``phi`` is
    affine on each Delaunay cell T, where the variance ``R_T^2 - |y - c_T|^2`` (circumcentre
    ``c_T``, circumradius ``R_T``) peaks at the point of T nearest ``c_T``: the circumcentre of
    the face F whose relative interior holds it, at ``R_F^2``.  The largest such ``R_F^2`` is
    the squared measure.  In the set's affine hull, of dimension r, the cells are the affinely
    independent (r + 1)-subsets with no point strictly inside their circumsphere.  A set or
    subset flatter than about 1e-6 of its extent counts as flat, as the measure jumps there; the
    tolerances are relative, so the value scales with the points.  ``resolution`` is checked but
    no longer changes the value.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2:
        raise ValueError("points must form a (P, q) array")
    n_points, dim = pts.shape
    if pts.size == 0:
        raise ValueError(f"points must be nonempty, got shape {pts.shape}")
    if n_points > _MAX_POINTS or dim > _MAX_DIM:
        raise ValueError(
            f"diagnostic limited to {_MAX_POINTS} points in dimension <= {_MAX_DIM}, "
            f"got {n_points} points in dimension {dim}"
        )
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    if not 0 < resolution <= 1:
        raise ValueError(f"resolution must lie in (0, 1], got {resolution}")

    spread = pts - pts[0]  # a set flatter than sqrt(_FLAT) of its extent spans fewer dimensions
    rank = int(np.linalg.matrix_rank(spread, tol=math.sqrt(_FLAT) * np.abs(spread).max()))
    subsets, cells, best = itertools.combinations(range(n_points), rank + 1), [], 0.0
    while rank and (block := np.array([*itertools.islice(subsets, _SUBSETS)], np.intp)).size:
        block, _, u = _circumspheres(pts, block)
        to_points = pts - pts[block[:, :1]]
        power = np.einsum("bpq,bpq->bp", to_points, to_points - 2.0 * u[:, None])  # |p-c|^2 - R^2
        power[np.arange(len(block))[:, None], block] = 0.0  # a cell's own vertices, up to rounding
        cells.append(block[(power >= -_INSIDE * np.einsum("bq,bq->b", u, u)[:, None]).all(axis=1)])
    for size in range(2, rank + 2):
        faces = np.concatenate(cells)[:, list(itertools.combinations(range(rank + 1), size))]
        _, mu, u = _circumspheres(pts, faces.reshape(-1, size))
        held = (mu.min(axis=1) >= 0.0) & (mu.sum(axis=1) <= 1.0)  # the face holds its centre
        best = max(best, float(np.einsum("bq,bq->b", u[held], u[held]).max(initial=0.0)))
    return math.sqrt(best)
