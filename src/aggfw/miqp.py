"""Mixed-integer quadratic benchmark and its reference relaxed solver.

The benchmark minimizes ``|A x - target|^2 / N^2`` over binary decisions
``x in {0, 1}^N``.  Contributions are linear (agent i contributes column
i of A, or nothing), so the relaxed problem coincides with the same
quadratic minimized over the box ``[0, 1]^N``; the reference solves it exactly by
bounded-variable least-squares pivots, warm-started by accelerated projected gradient
and ended by an exact face solve.  A second built-in, the balanced-signs instance,
exercises the genuinely nonconvex corner of the theory with decisions in {-1, +1}.
"""
from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .measures import MeasureProfile
from .problems import Aggregate, Decision, ProblemInstance, _count


class ReferenceSolverError(RuntimeError):
    """Reference relaxed solve did not reach the requested tolerance."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class RelaxedOptimum:
    """Certified solution of the relaxed problem."""

    value: float
    y: Aggregate
    point: np.ndarray | None
    residual: float
    iterations: int


class MiqpInstance(ProblemInstance):
    """Random mixed-integer quadratic benchmark instance.

    ``J(x) = |A x - target|^2 / N^2`` with ``x in {0,1}^N``; block j of
    the aggregate is the scalar mean contribution ``(1/N) sum_i A[j,i] x_i``
    and ``f_j(y_j) = (y_j - target_j / N)^2``.
    """

    def __init__(self, matrix, target, seed: int | None = None):
        matrix = np.asarray(matrix, dtype=float)
        target = np.asarray(target, dtype=float)
        if matrix.ndim != 2 or 0 in matrix.shape or target.shape != (matrix.shape[0],):
            raise ValueError("matrix must be (M, N) with a length-M target")
        if not (np.isfinite(matrix).all() and np.isfinite(target).all()):
            raise ValueError("instance data must be finite")
        # An owned copy on a 64-byte boundary, in the input's order: off it the BLAS products
        # run slower (to the same bits), so timings would follow the caller's heap layout.
        buffer = np.empty(matrix.nbytes + 64, dtype=np.uint8)
        self.matrix = np.ndarray(matrix.shape, float, buffer, -buffer.ctypes.data % 64,
                                 order="F" if matrix.flags.f_contiguous else "C")
        self.matrix[...] = matrix
        self.target = target
        self.seed = seed
        self._dims = (1,) * matrix.shape[0]
        self._target_scaled = target / matrix.shape[1]

    # --- dimensions and data ----------------------------------------

    @property
    def n_agents(self) -> int:
        return self.matrix.shape[1]

    @property
    def block_dims(self) -> tuple[int, ...]:
        return self._dims

    def decision_universe(self, i: int) -> tuple[int, int]:
        return (0, 1)

    def validate_decision(self, i: int, decision: Decision) -> bool:
        return decision in (0, 1)

    # --- oracles -----------------------------------------------------

    def contribution(self, i: int, decision: Decision) -> Aggregate:
        return Aggregate(self.matrix[:, i] * float(decision), self._dims)

    def contributions(self, agents: np.ndarray, decisions) -> np.ndarray:
        rows = self.matrix.T[agents]
        rows *= np.asarray(decisions, dtype=float)[:, None]
        return rows

    def f_block_values(self, y: Aggregate) -> np.ndarray:
        return (y.values - self._target_scaled) ** 2

    def f_value(self, y: Aggregate) -> float:
        diff = y.values - self._target_scaled
        return float(diff @ diff)

    def f_value_batch(self, flat_points: np.ndarray) -> np.ndarray:
        diff = flat_points - self._target_scaled
        return np.einsum("ij,ij->i", diff, diff)

    def f_grad(self, y: Aggregate) -> Aggregate:
        return Aggregate(2.0 * (y.values - self._target_scaled), self._dims)

    def best_response(self, i: int, grad: Aggregate) -> int:
        return self.best_response_all(grad, [i])[0]

    def best_response_all(self, grad: Aggregate, agents=None) -> list[int]:
        # All N scores <grad, g_i(1)> in one product: an agent's bits never depend on who is asked.
        wins = (grad.values @ self.matrix < 0.0).astype(int)
        return (wins if agents is None else wins[agents]).tolist()

    # --- regularity constants ----------------------------------------

    @property
    def lipschitz_grad(self) -> np.ndarray:
        return np.full(self.n_blocks, 2.0)

    @property
    def diameters(self) -> np.ndarray:
        return np.abs(self.matrix).T

    @property
    def lipschitz_f(self) -> np.ndarray:
        # Tight modulus of f_j over the reachable interval of the block
        # mean, computed from the signed column sums.
        n = self.n_agents
        lo = self.matrix.clip(max=0.0).sum(axis=1) / n
        hi = self.matrix.clip(min=0.0).sum(axis=1) / n
        return 2.0 * np.maximum(
            np.abs(lo - self._target_scaled), np.abs(hi - self._target_scaled)
        )

    # --- relaxed problem over the box --------------------------------

    def box_objective(self, x: np.ndarray) -> float:
        """Relaxed objective at a fractional point of [0, 1]^N."""
        residual = self.matrix @ x - self.target
        return float(residual @ residual) / self.n_agents**2

    def box_gradient(self, x: np.ndarray) -> np.ndarray:
        return 2.0 * (self.matrix.T @ (self.matrix @ x - self.target)) / self.n_agents**2

    def relaxed_optimum(self, tol: float = 1e-9) -> RelaxedOptimum:
        return reference_relaxed_optimum(self, tol)

    # --- serialization ------------------------------------------------

    def to_dict(self) -> dict:
        m, n = self.matrix.shape
        return {
            "M": m,
            "N": n,
            "seed": self.seed,
            "A": self.matrix.ravel().tolist(),  # row-major
            "ybar": self.target.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MiqpInstance":
        m, n = _count(data["M"], "M"), _count(data["N"], "N")
        matrix = np.asarray(data["A"], dtype=float).reshape(m, n)
        return cls(matrix, np.asarray(data["ybar"], dtype=float), seed=data.get("seed"))


def generate(m: int, n: int, seed: int) -> MiqpInstance:
    """Draw a benchmark instance: A ~ U[0,1]^(M x N), target ~ U[0, N/2]^M.

    The matrix is drawn first (row-major), then the target, from the
    instance-generation stream of ``seed``.
    """
    m, n, seed = _count(m, "m"), _count(n, "n"), _count(seed, "seed", 0)
    gen = _rng.stream(seed, _rng.INSTANCE)
    matrix = gen.random((m, n))
    target = gen.random(m) * (n / 2.0)
    return MiqpInstance(matrix, target, seed=seed)


def save_instance(instance: MiqpInstance, path: str) -> None:
    """Write the instance as a portable JSON document (atomic replace)."""
    write_atomic(path, json.dumps(instance.to_dict()) + "\n")


def write_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``<path>.tmp`` and rename it over ``path``, creating the parent
    directory first; a failure removes the tmp."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def load_instance(path: str) -> MiqpInstance:
    with open(path, encoding="utf-8") as handle:
        return MiqpInstance.from_dict(json.load(handle))


def reference_relaxed_optimum(
    instance: MiqpInstance, tol: float = 1e-9, max_iters: int = 2_000_000
) -> RelaxedOptimum:
    """Solve the box relaxation min_{x in [0,1]^N} |A x - target|^2 / N^2 exactly.

    Bounded-variable least squares (Stark and Parker, 1995) from 32 accelerated projected-
    gradient steps rounded to the nearest vertex.  Each pivot frees the bound variable with the
    largest KKT violation relative to its column norm and solves least squares on the free
    columns, stepping back to the first bound hit and fixing the variables that reach it.  The
    pivots end, at any scale, once no violation exceeds the residual's rounding; the value is
    the last face solve's.  ``max_iters`` caps the pivots; ``tol`` bounds |x - clip(x - grad)|.
    """
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    max_iters = _count(max_iters, "max_iters")
    a, target, n = instance.matrix, instance.target, instance.n_agents
    abs_a = np.abs(a)
    lip = 2.0 * abs_a.sum(axis=0).max() * abs_a.sum(axis=1).max() / n**2
    step = 1.0 / lip if lip >= np.finfo(float).tiny else 1.0  # 1/lip would overflow below
    x = z = np.full(n, 0.5)
    t_momentum, value = 1.0, instance.box_objective(x)
    for _ in range(32):
        x_next = np.clip(z - step * instance.box_gradient(z), 0.0, 1.0)
        value_next = instance.box_objective(x_next)
        if value_next > value:  # function restart keeps the iteration monotone
            x_next = np.clip(x - step * instance.box_gradient(x), 0.0, 1.0)
            value_next = instance.box_objective(x_next)
            t_momentum = 1.0
        t_next = (1.0 + np.sqrt(1.0 + 4.0 * t_momentum**2)) / 2.0
        z = x_next + ((t_momentum - 1.0) / t_next) * (x_next - x)
        x, value, t_momentum = x_next, value_next, t_next
    noise = np.finfo(float).eps * (np.linalg.norm(abs_a.sum(axis=1)) + np.linalg.norm(target))
    norms = np.linalg.norm(a, axis=0)
    norms[norms <= noise] = np.inf  # a column within rounding of 0 cannot move the residual
    x, free, pivots, previous = np.round(x), np.zeros(n, dtype=bool), 0, None
    while not np.array_equal(x, previous):  # a pivot that moves nothing was rounding
        gap = a.T @ (a @ x - target) / norms
        want = np.where(free, 0.0, np.where(x == 1.0, gap, -gap))  # the pull into the box
        if want.max() <= noise or pivots == max_iters:
            break
        free[np.argmax(want)], pivots, previous = True, pivots + 1, x.copy()
        while True:
            fixed = np.where(free, 0.0, x)
            solution, *_ = np.linalg.lstsq(a[:, free], target - a @ fixed, rcond=None)
            x0, out = x[free], (solution < 0.0) | (solution > 1.0)
            if not out.any():
                break
            alphas = np.where(out, (solution > 1.0) - x0, np.inf)
            alphas /= np.where(out, solution - x0, 1.0)  # how far toward solution each may go
            x[free] = np.clip(x0 + alphas.min() * (solution - x0), 0.0, 1.0)
            hit = np.flatnonzero(free)[alphas == alphas.min()]
            x[hit], free[hit] = solution[alphas == alphas.min()] > 1.0, False
        x[free] = solution
    residual = float(np.linalg.norm(x - np.clip(x - instance.box_gradient(x), 0.0, 1.0)))
    if residual > tol or (pivots == max_iters and want.max() > noise):
        raise ReferenceSolverError(f"reference solve stopped at residual {residual:.3e} after "
                                   f"{pivots} of {max_iters} pivots (tol {tol:.1e})", residual)
    return RelaxedOptimum(value=instance.box_objective(x), point=x, residual=residual,
                          y=Aggregate(a @ x / n, instance.block_dims), iterations=32 + pivots)


class BalancedSignsInstance(ProblemInstance):
    """Two-block sign-balancing instance: J(x) = -mean(x^2) + mean(x)^2.

    Decisions live in {-1, +1}; block 0 carries the mean of squares
    (constant 1 on the feasible set) and block 1 the plain mean, so the
    minimizers are exactly the profiles with as many +1 as -1 entries.
    The relaxed optimum is -1 in closed form for every N.
    """

    def __init__(self, n_agents: int):
        self._n = _count(n_agents, "n_agents")
        self._dims = (1, 1)

    @property
    def n_agents(self) -> int:
        return self._n

    @property
    def block_dims(self) -> tuple[int, ...]:
        return self._dims

    def decision_universe(self, i: int) -> tuple[int, int]:
        return (-1, 1)

    def validate_decision(self, i: int, decision: Decision) -> bool:
        return decision in (-1, 1)

    def contribution(self, i: int, decision: Decision) -> Aggregate:
        d = float(decision)
        return Aggregate(np.array([d * d, d]), self._dims)

    def f_block_values(self, y: Aggregate) -> np.ndarray:
        return np.array([-y.values[0], y.values[1] ** 2])

    def f_grad(self, y: Aggregate) -> Aggregate:
        return Aggregate(np.array([-1.0, 2.0 * y.values[1]]), self._dims)

    def best_response(self, i: int, grad: Aggregate) -> int:
        # The score of d is <grad, (d^2, d)> = g0 + g1 d; -1 wins ties.
        g0, g1 = grad.values
        return -1 if g0 - g1 <= g0 + g1 else 1

    @property
    def lipschitz_f(self) -> np.ndarray:
        return np.array([1.0, 2.0])

    @property
    def lipschitz_grad(self) -> np.ndarray:
        return np.array([0.0, 2.0])

    @property
    def diameters(self) -> np.ndarray:
        # g_i0 is constant on {-1, +1}; g_i1 has range {-1, +1}.
        return np.tile(np.array([0.0, 2.0]), (self._n, 1))

    def relaxed_optimum(self, tol: float = 1e-9) -> RelaxedOptimum:
        # Block 0 is pinned at 1 and block 1 ranges over [-1, 1]; the
        # minimum of -1 + y1^2 sits at y1 = 0.
        return RelaxedOptimum(
            value=-1.0,
            y=Aggregate(np.array([1.0, 0.0]), self._dims),
            point=np.zeros(self._n),
            residual=0.0,
            iterations=0,
        )


def bernoulli_profile(instance: MiqpInstance, box_point: np.ndarray):
    """Measure profile with independent Bernoulli(x_i) marginals.

    For linear contributions the mean aggregate of this profile equals
    the box point's, so its relaxed objective is ``box_objective(x)``.
    """
    box_point = np.asarray(box_point, dtype=float)
    if box_point.shape != (instance.n_agents,) or not ((box_point >= 0) & (box_point <= 1)).all():
        raise ValueError("box point must lie in [0, 1]^N")
    weights = np.column_stack([1.0 - box_point, box_point])  # an atom of weight 0 is pruned
    tokens = np.tile(np.array([0, 1], dtype=object), (len(box_point), 1))
    return MeasureProfile.from_atoms(weights, tokens)
