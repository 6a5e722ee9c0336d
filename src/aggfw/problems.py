"""Aggregative problem abstraction shared by both solvers.

An aggregative problem couples ``N`` agents only through the average of
their contribution maps: ``J(x) = f((1/N) sum_i g_i(x_i))`` with ``f``
additive across the ``M`` blocks of the aggregate space.  Concrete
instances supply the contribution maps, the smooth outer function and a
per-agent best-response oracle; everything else in the package works
against this interface.
"""
from __future__ import annotations

import functools
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

Decision = Any  # opaque decision token, owned by the concrete instance


def _count(value, what: str, minimum: int = 1) -> int:
    """``value`` as a Python int: a Python or numpy integer, not a bool, of at least ``minimum``."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= minimum:
        return int(value)
    raise ValueError(f"{what} must be an integer of at least {minimum}, got {value!r}")


@functools.lru_cache(typed=True)  # 128 layouts; typed, so True and 1.0 miss the entry of 1
def _layout(size: int, *dims) -> tuple[int, ...]:
    """``dims`` as Python ints, once ``_count`` takes each and they tile ``size``."""
    dims = tuple(_count(d, "block dimension") for d in dims)
    if sum(dims) != size:
        raise ValueError(f"block dimensions {dims} do not tile a vector of size {size}")
    return dims


@functools.lru_cache  # the block offsets of each layout, read-only as every caller shares them
def _block_starts(*dims) -> np.ndarray:
    starts = np.cumsum((0,) + dims[:-1])
    starts.flags.writeable = False
    return starts


class Aggregate:
    """Point in the aggregate space ``E = E_1 x ... x E_M``.

    Stored as a single flat float64 vector of length ``q = sum_j q_j``
    together with the block dimensions.  Entries must stay finite; every
    construction re-validates, so non-finite intermediates surface as
    hard errors instead of propagating.  It has no arithmetic: solvers
    compute on ``.values`` and wrap a result where it enters a hook or a
    gap, which keeps that check.
    """

    __slots__ = ("values", "block_dims")

    def __init__(self, values, block_dims: Sequence[int] | None = None):
        values = np.asarray(values, dtype=float)
        if values.ndim != 1:
            raise ValueError("aggregate values must form a 1-D vector")
        dims = (1,) * values.size if block_dims is None else block_dims
        block_dims = _layout(values.size, *dims)
        if not np.isfinite(values).all():
            raise non_finite_error(values, block_dims)
        self.values = values
        self.block_dims = block_dims

    def __repr__(self) -> str:
        return f"Aggregate({self.values!r}, blocks={len(self.block_dims)})"


def non_finite_error(values: np.ndarray, block_dims: Sequence[int]) -> ValueError:
    """The error naming the block of the first non-finite entry of flat or (n, q) values."""
    bad = int(np.flatnonzero(~np.isfinite(values))[0]) % values.shape[-1]
    block = int(np.searchsorted(np.cumsum(block_dims), bad, side="right"))
    return ValueError(f"non-finite entry in aggregate block {block}")


@dataclass(frozen=True)
class DecisionProfile:
    """One concrete decision per agent."""

    decisions: tuple

    def __post_init__(self):
        object.__setattr__(self, "decisions", tuple(self.decisions))

    def __len__(self) -> int:
        return len(self.decisions)

    def __getitem__(self, i: int) -> Decision:
        return self.decisions[i]


class ProblemInstance(ABC):
    """Capabilities a concrete aggregative problem must provide.

    Instances are immutable after construction and safe to evaluate
    concurrently.  Decision tokens are opaque; only the instance knows
    how to validate them or enumerate them.
    """

    # --- dimensions -------------------------------------------------

    @property
    @abstractmethod
    def n_agents(self) -> int:
        """Number of agents N."""

    @property
    @abstractmethod
    def block_dims(self) -> tuple[int, ...]:
        """Dimension q_j of each aggregate block."""

    @property
    def n_blocks(self) -> int:
        return len(self.block_dims)

    @property
    def total_dim(self) -> int:
        """Total aggregate dimension q."""
        return int(sum(self.block_dims))

    # --- required oracles -------------------------------------------

    @abstractmethod
    def contribution(self, i: int, decision: Decision) -> Aggregate:
        """Full M-block contribution g_i(decision), without the 1/N factor."""

    @abstractmethod
    def f_block_values(self, y: Aggregate) -> np.ndarray:
        """Per-block values (f_j(y_j))_j as a length-M vector."""

    @abstractmethod
    def f_grad(self, y: Aggregate) -> Aggregate:
        """Gradient (grad f_j(y_j))_j."""

    @abstractmethod
    def best_response(self, i: int, grad: Aggregate) -> Decision:
        """A minimizer of <grad, g_i(.)> over agent i's decisions.

        Ties must be broken deterministically (smallest canonical index).
        """

    # --- regularity constants ---------------------------------------

    @property
    @abstractmethod
    def lipschitz_f(self) -> np.ndarray:
        """Lipschitz modulus L_j of each f_j on the reachable hull."""

    @property
    @abstractmethod
    def lipschitz_grad(self) -> np.ndarray:
        """Lipschitz modulus of each grad f_j on the reachable hull."""

    @property
    @abstractmethod
    def diameters(self) -> np.ndarray:
        """(N, M) matrix of contribution-range diameters d_ij."""

    # --- optional hooks with generic defaults -----------------------

    def f_value(self, y: Aggregate) -> float:
        return float(np.sum(self.f_block_values(y)))

    def f_value_batch(self, flat_points: np.ndarray) -> np.ndarray:
        """f evaluated on each row of a (B, q) matrix of flat aggregates.  Row i's value
        may depend on row i only: the solvers evaluate candidates in blocks of rows."""
        dims = self.block_dims
        return np.array([self.f_value(Aggregate(row, dims)) for row in flat_points])

    def contributions(self, agents: np.ndarray, decisions: Sequence[Decision]) -> np.ndarray:
        """Row r is g_i(d) for agent ``agents[r]`` (an integer array) and ``decisions[r]``.

        Returns a fresh C-ordered (n, q) float64 array; callers check finiteness.
        Overrides must reproduce ``contribution`` bit for bit, with row r depending only
        on ``(agents[r], decisions[r])``.  The solvers reuse rows by token, so ``==``-equal
        tokens must give bit-identical rows (and validity), and token ``==`` must return a bool.
        """
        rows = (self.contribution(int(i), d).values for i, d in zip(agents, decisions))
        return np.fromiter(rows, dtype=np.dtype((float, self.total_dim)), count=len(agents))

    def validate_decision(self, i: int, decision: Decision) -> bool:
        return True

    def best_response_all(self, grad: Aggregate, agents: Sequence[int] | None = None) -> list:
        """Best responses to ``grad`` of ``agents`` in order (repeats allowed), or of every agent.

        Must equal the ``best_response`` loop; entry r reads only ``agents[r]`` and grad's bits."""
        responses = []
        for i in range(self.n_agents) if agents is None else np.asarray(agents).tolist():
            try:
                responses.append(self.best_response(i, grad))
            except Exception as exc:
                raise RuntimeError(f"best response of agent {i} failed: {exc}") from exc
        return responses

    def decision_universe(self, i: int) -> Sequence[Decision]:
        """All decisions of agent i, in canonical order (finite universes only)."""
        raise NotImplementedError(f"{type(self).__name__} has no enumerable decision universe")

    def relaxed_optimum(self, tol: float = 1e-9):
        """Reference solution of the relaxed problem, when the instance has one.

        Returns a ``RelaxedOptimum``; instances without an independent
        reference solver leave this unimplemented and callers fall back
        to the computable dual gap as the certified surrogate.
        """
        raise NotImplementedError(f"{type(self).__name__} has no reference relaxed solver")


def contribution_rows(problem: ProblemInstance, agents, decisions) -> np.ndarray:
    """``problem.contributions`` once each token validates in order, checked finite once."""
    agents = np.asarray(agents, dtype=np.intp)
    for i, decision in zip(agents.tolist(), decisions):
        if not problem.validate_decision(i, decision):
            raise ValueError(f"invalid decision token {decision!r} for agent {i}")
    rows = problem.contributions(agents, decisions)
    if not np.isfinite(rows).all():
        raise non_finite_error(rows, problem.block_dims)
    return rows


def sequential_sum(rows: np.ndarray) -> np.ndarray:
    """The loop ``total = 0.0; total += row`` in row order, as a new array.

    numpy sums pairwise only along the fast axis in memory and adds one row at a time
    along any other, so with a contiguous last axis wider than 1 a reduce over axis 0 is
    the loop.  Otherwise (one column, F-ordered or column-strided rows) ``cumsum`` is,
    save that a column of -0.0 sums to -0.0, which ``+ 0.0`` maps to the loop's 0.0.
    """
    if rows.shape[-1] > 1 and rows.strides[-1] == rows.itemsize:
        return np.add.reduce(rows, axis=0, initial=0.0)
    return np.cumsum(rows, axis=0)[-1] + 0.0


def profile_rows(problem: ProblemInstance, profile: DecisionProfile) -> np.ndarray:
    """The profile's contribution rows, one per agent, once its arity and tokens check."""
    if len(profile) != problem.n_agents:
        raise ValueError(
            f"profile has {len(profile)} decisions, problem has {problem.n_agents} agents"
        )
    return contribution_rows(problem, np.arange(problem.n_agents), profile.decisions)


class _HeldRows:
    """One held token per agent with its contribution row.  ``hold`` validates and
    rebuilds only the rows whose token differs, and returns their agents."""

    def __init__(self, problem: ProblemInstance):
        self.problem = problem
        self.tokens = np.full(problem.n_agents, np.nan, dtype=object)  # NaN equals no token
        self.rows = np.empty((problem.n_agents, problem.total_dim))

    def hold(self, agents: np.ndarray, tokens: np.ndarray) -> np.ndarray:
        """Hold ``tokens[r]`` (an object array) for agent ``agents[r]``."""
        changed = ~(self.tokens[agents] == tokens)
        agents, tokens = agents[changed], tokens[changed]
        self.rows[agents] = contribution_rows(self.problem, agents, tokens)
        self.tokens[agents] = tokens
        return agents


def rows_aggregate(problem: ProblemInstance, rows: np.ndarray) -> Aggregate:
    """(1/N) times the row-order sum of the contribution rows ``rows``.  Every aggregate
    the package builds from rows comes from here, so all of them share one summation order."""
    return Aggregate(sequential_sum(rows) / problem.n_agents, problem.block_dims)


def aggregate_of(problem: ProblemInstance, profile: DecisionProfile) -> Aggregate:
    """G(x) = (1/N) sum_i g_i(x_i)."""
    return rows_aggregate(problem, profile_rows(problem, profile))


def objective(problem: ProblemInstance, profile: DecisionProfile) -> float:
    """J(x) = f(G(x))."""
    return rows_objective(problem, profile_rows(problem, profile))


def rows_objective(problem: ProblemInstance, rows: np.ndarray) -> float:
    """J of the profile whose (N, q) contribution rows are ``rows``."""
    values = problem.f_block_values(rows_aggregate(problem, rows))
    if not np.isfinite(values).all():
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise ValueError(f"non-finite objective value in block {bad}")
    return float(values.sum())


def linearized_best_response(
    problem: ProblemInstance, y: Aggregate
) -> tuple[DecisionProfile, Aggregate]:
    """Solve the N decoupled linearized subproblems at the point y.

    The gradient is evaluated once and shared read-only across the agent
    solves.  Returns the best-response profile and its aggregate.  The
    caller is responsible for keeping ``y`` near the reachable hull (the
    outer function need only be smooth there); membership is not checked.
    """
    grad = problem.f_grad(y)
    profile = DecisionProfile(tuple(problem.best_response_all(grad)))
    return profile, aggregate_of(problem, profile)


def zero_gradient_profile(problem: ProblemInstance) -> DecisionProfile:
    """Deterministic starting profile: best responses to a zero gradient.

    Every agent subproblem is then constant, so the tie-breaking rule of
    the instance picks the canonical decision.
    """
    grad = Aggregate(np.zeros(problem.total_dim), problem.block_dims)
    return DecisionProfile(problem.best_response_all(grad))
