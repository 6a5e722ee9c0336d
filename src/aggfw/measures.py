"""Finitely supported measure profiles and the selection method.

The relaxed problem replaces each agent's decision by a finitely
supported probability distribution over its decision set; the
contribution maps enter only through their means, which makes the
relaxed objective convex whenever the outer function is.  This module
holds the measure containers, mixing (the Frank-Wolfe update), the
per-block variances, and sampling.
"""
from __future__ import annotations

import numpy as np

from .problems import Aggregate, Decision, DecisionProfile, ProblemInstance, _count
from .problems import contribution_rows, rows_objective, sequential_sum

# Atoms below this weight are dropped and the rest renormalized.  With
# the canonical step sizes an atom added at iteration s still has weight
# about 2(s+1)/(k(k+1)) at iteration k, so the threshold only fires for
# runs far longer than the support can usefully grow.
PRUNE_WEIGHT = 1e-12

_WEIGHT_SUM_TOL = 1e-12


def _combine(base, extra, agents):
    """Merge the atoms of ``extra`` into the rows of ``base`` (None: no atoms), then check
    the weight sums, prune and renormalize; ``agents[i]`` owns row i.  ``base`` holds
    (weights, tokens, sizes): row i has ``sizes[i]`` distinct atoms, then zero weights.
    ``extra`` holds nonnegative (weights, tokens); an atom of weight 0 adds 0.0 or is pruned.
    This is the dict merge by token in atom order for all rows at once: the same float
    operations in the same order, as the zero padding only adds 0.0."""
    n = len(extra[0])
    if base is None:
        base = (np.zeros((n, 1)), np.empty((n, 1), dtype=object), np.zeros(n, dtype=np.intp))
    (base_weights, base_tokens, sizes), (extra_weights, extra_tokens) = base, extra
    weights = np.hstack([base_weights, np.zeros_like(extra_weights)])
    tokens = np.hstack([base_tokens, np.empty_like(extra_tokens)])
    sizes, rows, columns = sizes.copy(), np.arange(n), np.arange(weights.shape[1])
    for c in range(extra_weights.shape[1]):
        same = (tokens == extra_tokens[:, c, None]) & (columns < sizes[:, None])
        hit = same.any(axis=1)
        at = np.where(hit, same.argmax(axis=1), sizes)
        weights[rows, at] += extra_weights[:, c]
        tokens[~hit, sizes[~hit]] = extra_tokens[~hit, c]
        sizes += ~hit
    total = np.cumsum(weights, axis=1)[:, -1]
    bad = ~(np.abs(total - 1.0) <= _WEIGHT_SUM_TOL)  # a NaN weight fails here too
    if bad.any():
        row = int(bad.argmax())
        raise ValueError(f"atom weights for agent {agents[row]} sum to {total[row]}, expected 1")
    keep = weights >= PRUNE_WEIGHT
    sizes = keep.sum(axis=1)
    if not sizes.all():
        agent = agents[int(sizes.argmin())]
        raise ValueError(f"all atoms of agent {agent} fell below the prune threshold")
    order = np.argsort(~keep, axis=1, kind="stable")[:, : sizes.max(initial=0)]  # kept first
    kept = np.take_along_axis(np.where(keep, weights, 0.0), order, axis=1)
    kept /= np.cumsum(kept, axis=1)[:, -1:]
    return kept, np.take_along_axis(tokens, order, axis=1), sizes


class DiscreteMeasure:
    """Finitely supported probability distribution for one agent.

    Atoms are (weight, decision) pairs in a stable order: duplicates are
    merged by weight addition, weights below ``PRUNE_WEIGHT`` are dropped
    and the remainder renormalized.  Weights are summed left to right, so
    the renormalized weights do not depend on the interpreter's ``sum``.
    Instances are immutable.
    """

    __slots__ = ("agent", "atoms")

    def __init__(self, agent: int, atoms):
        atoms = list(atoms)
        # fromiter keeps each token whole: a tuple decision is one token.
        tokens = np.fromiter((d for _, d in atoms), dtype=object, count=len(atoms))[None]
        weights = np.array([[float(w) for w, _ in atoms]])
        self.agent = int(agent)
        self.atoms = MeasureProfile.from_atoms(weights, tokens, (agent,))[0].atoms

    @classmethod
    def dirac(cls, agent: int, decision: Decision) -> "DiscreteMeasure":
        """The point mass at ``decision``."""
        return cls(agent, [(1.0, decision)])

    @property
    def support_size(self) -> int:
        return len(self.atoms)

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for w, _ in self.atoms])

    @property
    def decisions(self) -> tuple:
        return tuple(d for _, d in self.atoms)

    def _rows(self, problem: ProblemInstance) -> tuple[np.ndarray, Aggregate]:
        """The atoms' contribution rows, once the agent and every token check; and E_mu[g_i]."""
        if not 0 <= self.agent < problem.n_agents:
            raise ValueError(f"agent {self.agent} out of range for {problem.n_agents} agents")
        rows = contribution_rows(problem, [self.agent] * self.support_size, self.decisions)
        return rows, Aggregate(sequential_sum(rows * self.weights[:, None]), problem.block_dims)

    def mean_contribution(self, problem: ProblemInstance) -> Aggregate:
        """E_mu[g_i]."""
        return self._rows(problem)[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiscreteMeasure):
            return NotImplemented
        return self.agent == other.agent and self.atoms == other.atoms

    def __repr__(self) -> str:
        return f"DiscreteMeasure(agent={self.agent}, atoms={self.atoms!r})"


class MeasureProfile:
    """One finitely supported distribution per agent.  Row i of the (N, S) arrays
    ``weights`` and ``tokens`` holds agent i's ``sizes[i]`` atoms in order, then zero
    weights; ``profile[i]`` builds agent i's ``DiscreteMeasure`` on demand."""

    __slots__ = ("weights", "tokens", "sizes", "_table")

    def __init__(self, measures):
        measures = tuple(measures)
        self.sizes = np.array([m.support_size for m in measures], dtype=np.intp)
        self.weights = np.zeros((len(measures), self.sizes.max(initial=0)))
        self.tokens = np.empty(self.weights.shape, dtype=object)
        for i, measure in enumerate(measures):
            if measure.agent != i:
                raise ValueError(f"measure at position {i} is owned by agent {measure.agent}")
            self.weights[i, : self.sizes[i]] = measure.weights
            self.tokens[i, : self.sizes[i]] = np.fromiter(measure.decisions, dtype=object)
        self._table = None

    @classmethod
    def _of(cls, weights, tokens, sizes) -> "MeasureProfile":
        p = cls.__new__(cls)
        p.weights, p.tokens, p.sizes, p._table = weights, tokens, sizes, None
        return p

    @classmethod
    def from_atoms(cls, weights, tokens, agents=None) -> "MeasureProfile":
        """Row i merges the raw atoms ``zip(weights[i], tokens[i])`` of (N, S) arrays, as
        ``_combine`` does; ``agents[i]`` (default i) names row i in errors."""
        agents = range(len(weights)) if agents is None else agents
        if (weights < 0).any():
            agent = agents[int((weights < 0).any(axis=1).argmax())]
            raise ValueError(f"negative atom weight {weights[weights < 0][0]} for agent {agent}")
        return cls._of(*_combine(None, (weights, tokens), agents))

    @classmethod
    def dirac(cls, profile: DecisionProfile) -> "MeasureProfile":
        tokens = np.fromiter(profile.decisions, dtype=object)[:, None]
        return cls._of(np.ones(tokens.shape), tokens, np.ones(len(tokens), dtype=np.intp))

    @property
    def n_agents(self) -> int:
        return len(self.sizes)

    @property
    def support_sizes(self) -> tuple[int, ...]:
        return tuple(self.sizes.tolist())

    @property
    def measures(self) -> tuple[DiscreteMeasure, ...]:
        return tuple(self[i] for i in range(self.n_agents))

    def _atom_rows(self, problem: ProblemInstance) -> tuple[np.ndarray, np.ndarray]:
        """The checked atoms' rows, then a zero row; and the (N, S) slots' index into them."""
        if self.n_agents != problem.n_agents:
            raise ValueError(
                f"profile has {self.n_agents} measures, problem has {problem.n_agents} agents"
            )
        valid = np.arange(self.weights.shape[1]) < self.sizes[:, None]
        agents, tokens = np.nonzero(valid)[0], self.tokens[valid]
        rows = np.vstack([contribution_rows(problem, agents, tokens), np.zeros(problem.total_dim)])
        return rows, np.where(valid, np.cumsum(valid).reshape(valid.shape) - 1, -1)

    def _means(self, problem: ProblemInstance) -> np.ndarray:
        """The (N, q) means E_mu_i[g_i], each summed over its atoms in order."""
        terms = np.take(*self._atom_rows(problem), axis=0)  # (N, S, q), zero past each support
        terms *= self.weights[:, :, None]
        # After the first atom's ``+ 0.0`` no partial sum is -0.0, so padding adds nothing.
        return sequential_sum(terms.swapaxes(0, 1))

    def mean_aggregate(self, problem: ProblemInstance) -> Aggregate:
        """(1/N) sum_i E_mu_i[g_i]."""
        return Aggregate(sequential_sum(self._means(problem)) / self.n_agents, problem.block_dims)

    def _sampling_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Each row's ``np.cumsum`` of weights but its last atom, +inf past its
        support, as an (N, S - 1) array built on first use; and the tokens."""
        if self._table is None:
            cdf = np.cumsum(self.weights[:, :-1], axis=1)
            cdf[np.arange(cdf.shape[1]) >= self.sizes[:, None] - 1] = np.inf
            self._table = cdf
        return self._table, self.tokens

    def __getitem__(self, i: int) -> DiscreteMeasure:
        agent = range(self.n_agents)[i]
        measure, size = DiscreteMeasure.__new__(DiscreteMeasure), self.sizes[agent]
        measure.agent = agent
        measure.atoms = tuple(zip(self.weights[agent, :size].tolist(), self.tokens[agent, :size]))
        return measure

    def __eq__(self, other) -> bool:
        if not isinstance(other, MeasureProfile):
            return NotImplemented
        return self.measures == other.measures


def relaxed_objective(problem: ProblemInstance, profile: MeasureProfile) -> float:
    """Relaxed objective: f evaluated at the mean aggregate of the profile."""
    return rows_objective(problem, profile._means(problem))


def mix(profile_a: MeasureProfile, profile_b: MeasureProfile, omega: float) -> MeasureProfile:
    """Convex combination (1 - omega) * a + omega * b, agent by agent.

    Atom lists are merged by token, keeping the order of ``profile_a``
    first; the mean contributions of the result equal the convex
    combination of the inputs' means up to the pruning threshold.
    """
    if not 0.0 <= omega <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {omega}")
    if profile_a.n_agents != profile_b.n_agents:
        raise ValueError("cannot mix profiles with different agent counts")
    base = (profile_a.weights * (1.0 - omega), profile_a.tokens, profile_a.sizes)
    extra = (profile_b.weights * omega, profile_b.tokens)
    return MeasureProfile._of(*_combine(base, extra, range(profile_a.n_agents)))


def _variance(problem: ProblemInstance, measure: DiscreteMeasure, columns: slice) -> float:
    rows, mean = measure._rows(problem)
    diffs = rows[:, columns] - mean.values[columns]
    total = 0.0
    for (weight, _), diff in zip(measure.atoms, diffs):
        total += weight * float(diff @ diff)
    return total


def contribution_variance(problem: ProblemInstance, measure: DiscreteMeasure, block: int) -> float:
    """Variance of the block-j contribution under the measure."""
    start = sum(problem.block_dims[:block])
    return _variance(problem, measure, slice(start, start + problem.block_dims[block]))


def total_contribution_variance(problem: ProblemInstance, measure: DiscreteMeasure) -> float:
    """Variance of the full contribution map, summed over blocks."""
    return _variance(problem, measure, slice(None))


def sample_profile(profile: MeasureProfile, rng: np.random.Generator) -> DecisionProfile:
    """Draw one decision per agent, independently, in agent order.

    Agent i takes the first atom whose CDF value exceeds its uniform, or
    the last atom when rounding leaves the CDF below the uniform: the
    table leaves the last CDF entry out.
    """
    columns = _sample_columns(profile, rng)
    return DecisionProfile(profile.tokens[np.arange(profile.n_agents), columns])


def _sample_columns(profile: MeasureProfile, rng: np.random.Generator) -> np.ndarray:
    """Each agent's sampled atom column, from one ``rng.random(N)`` call."""
    cdf, _ = profile._sampling_table()
    return (cdf <= rng.random(profile.n_agents)[:, None]).sum(axis=1)


def select_best(
    problem: ProblemInstance,
    profile: MeasureProfile,
    n_draws: int,
    rng: np.random.Generator,
) -> tuple[DecisionProfile, float]:
    """Selection method: sample ``n_draws`` profiles, keep the lowest objective.

    Ties are broken by first occurrence, so the result is a deterministic
    function of the stream state.  The draws are ``sample_profile``'s; each
    atom is checked and its contribution row built once, up front.
    """
    n_draws = _count(n_draws, "n_draws")
    (atom_rows, index), agents = profile._atom_rows(problem), np.arange(profile.n_agents)
    best_columns, best_value = None, np.inf
    for _ in range(n_draws):
        columns = _sample_columns(profile, rng)
        value = rows_objective(problem, atom_rows[index[agents, columns]])
        if value < best_value:
            best_columns, best_value = columns, value
    return DecisionProfile(profile.tokens[agents, best_columns]), best_value
