"""Finitely supported measure profiles and the selection method.

The relaxed problem replaces each agent's decision by a finitely
supported probability distribution over its decision set; the
contribution maps enter only through their means, which makes the
relaxed objective convex whenever the outer function is.  This module
holds the measure containers, mixing (the Frank-Wolfe update), the
per-block variances, and sampling.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problems import Aggregate, Decision, DecisionProfile, ProblemInstance, _count
from .problems import contribution_rows, rows_aggregate, rows_objective, sequential_sum

# Atoms below this weight are dropped and the rest renormalized.  With
# the canonical step sizes an atom added at iteration s still has weight
# about 2(s+1)/(k(k+1)) at iteration k, so the threshold only fires for
# runs far longer than the support can usefully grow.
PRUNE_WEIGHT = 1e-12

_WEIGHT_SUM_TOL = 1e-12


class _Atoms:
    """A profile's atoms on (S, N) arrays, which ``mix`` merges with others' as the dict merge
    by token in atom order would, for all agents at once and with its float operations.
    Agent i's ``sizes[i]`` atoms lead column i and later rows hold 0.0 and None, which add
    0.0; errors name agent i ``names[i]``.  Only the agents said to have moved are matched
    (all while ``stale``, after a compaction); the others add at ``slots[i]``, their last hit."""

    def __init__(self, profile: MeasureProfile, agents=None):
        self.weights, self.tokens = profile.weights.T.copy(), profile.tokens.T.copy()
        self.sizes, self.support_sizes = profile.sizes.copy(), profile.support_sizes
        self.columns, self.slots = np.arange(len(self.sizes)), np.zeros_like(self.sizes)
        self.names, self.stale = self.columns if agents is None else agents, True

    def mix(self, weights, tokens, omega: float, moved=None) -> MeasureProfile:
        """These atoms times 1 - omega merged with the (N, S) atoms ``weights``, ``tokens``
        times omega; ``tokens`` differs from the last ones only for agents ``moved``."""
        if not 0.0 <= omega <= 1.0:
            raise ValueError(f"mixing weight must lie in [0, 1], got {omega}")
        self.weights *= 1.0 - omega
        for column_weights, column_tokens in zip(weights.T, tokens.T):
            self.add(column_tokens, column_weights * omega, moved)
        return self.settle()

    def add(self, tokens, weights, moved) -> None:
        """Add ``weights[i]`` to agent i's atom ``==`` to ``tokens[i]``, appended if none."""
        depth = int(self.sizes.max(initial=0)) + 1  # the rows an atom can be in after this add
        if depth > len(self.weights):
            self.weights = np.vstack([self.weights, np.zeros_like(self.weights)])
            self.tokens = np.vstack([self.tokens, np.empty_like(self.tokens)])
        agents = self.columns if self.stale or moved is None else moved
        held, self.stale = self.sizes[agents], False
        same = (self.tokens[:depth, agents] == tokens[agents]) & (np.arange(depth)[:, None] < held)
        hit = same.any(axis=0)
        self.slots[agents] = np.where(hit, same.argmax(axis=0), held)
        if len(new := agents[~hit]):
            self.tokens[held[~hit], new], self.support_sizes = tokens[new], None
            self.sizes[new] += 1
        self.weights[self.slots, self.columns] += weights

    def settle(self) -> MeasureProfile:
        """Check that each agent's weights sum to 1, drop the atoms below ``PRUNE_WEIGHT``,
        divide the rest by their sum; and the profile."""
        total = sequential_sum(self.weights)
        if (bad := ~(np.abs(total - 1.0) <= _WEIGHT_SUM_TOL)).any():  # NaN weights fail too
            i = int(bad.argmax())
            raise ValueError(f"atom weights for agent {self.names[i]} sum to {total[i]}, "
                             "expected 1")
        # A checked row of S slots has an atom of weight >= (1 - 1e-12)/S: kept for S < 1e11.
        keep = self.weights >= PRUNE_WEIGHT
        kept_sizes = keep.sum(axis=0)
        if (kept_sizes == self.sizes).all():  # nothing pruned: each column's atoms lead it
            self.weights /= total
        else:  # compact: each column's kept atoms first, in order
            order = np.argsort(~keep, axis=0, kind="stable")[: kept_sizes.max()]
            self.weights = np.take_along_axis(np.where(keep, self.weights, 0.0), order, axis=0)
            self.weights /= sequential_sum(self.weights)
            self.tokens = np.take_along_axis(self.tokens, order, axis=0)
            self.sizes, self.support_sizes, self.stale = kept_sizes, None, True
        if self.support_sizes is None:
            self.support_sizes = tuple(self.sizes.tolist())
        width = int(self.sizes.max(initial=0))
        return MeasureProfile._of(self.weights[:width].T, self.tokens[:width].T, self.sizes)


@dataclass(slots=True)
class DiscreteMeasure:
    """Finitely supported probability distribution for one agent.

    Atoms are (weight, decision) pairs in a stable order: duplicates are
    merged by weight addition, weights below ``PRUNE_WEIGHT`` are dropped
    and the remainder renormalized.  Weights are summed left to right, so
    the renormalized weights do not depend on the interpreter's ``sum``.
    Its fields are plain slots; assigning one skips every check, so build a new measure instead.
    """

    agent: int
    atoms: tuple

    def __post_init__(self):
        self.agent, atoms = _count(self.agent, "agent", 0), list(self.atoms)
        # fromiter keeps each token whole: a tuple decision is one token.
        tokens = np.fromiter((d for _, d in atoms), dtype=object, count=len(atoms))[None]
        weights = np.array([[float(w) for w, _ in atoms]])
        self.atoms = MeasureProfile.from_atoms(weights, tokens, (self.agent,))[0].atoms

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


class MeasureProfile:
    """One finitely supported distribution per agent.  Row i of the (N, S) arrays
    ``weights`` and ``tokens`` holds agent i's ``sizes[i]`` atoms in order, then zero
    weights; ``profile[i]`` builds agent i's ``DiscreteMeasure`` on demand.  The arrays are
    (N, S) views of (S, N) storage, so an atom slot is one contiguous row over the agents.
    Weights are summed in atom order by ``sequential_sum``, the aggregates' row-order sum,
    and the arrays are compacted only when an atom falls below ``PRUNE_WEIGHT``."""

    __slots__ = ("weights", "tokens", "sizes", "_table")

    def __init__(self, measures):
        measures = tuple(measures)
        self.sizes = np.array([m.support_size for m in measures], dtype=np.intp)
        self.weights = np.zeros((self.sizes.max(initial=0), len(measures))).T
        self.tokens = np.empty_like(self.weights, dtype=object)  # keeps the (S, N) storage
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
        ``mix`` does; ``agents[i]`` (default i), one per row, names row i in errors."""
        if np.ndim(weights) != 2 or np.shape(weights) != np.shape(tokens):
            raise ValueError(f"weights {np.shape(weights)} and tokens {np.shape(tokens)} "
                             "must be (N, S) arrays of the same shape")
        agents = range(len(weights)) if agents is None else agents
        if len(agents) != len(weights):
            raise ValueError(f"{len(agents)} agents for {len(weights)} rows: need one per row")
        if (weights < 0).any():
            agent = agents[int((weights < 0).any(axis=1).argmax())]
            raise ValueError(f"negative atom weight {weights[weights < 0][0]} for agent {agent}")
        zeros = np.zeros((len(weights), 1))  # an empty store: one slot of 0.0 and None per agent
        empty = cls._of(zeros, np.empty(zeros.shape, object), zeros[:, 0].astype(np.intp))
        return _Atoms(empty, agents).mix(weights, tokens, 1.0)

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
        return rows_aggregate(problem, self._means(problem))

    def _sampling_table(self) -> np.ndarray:
        """Each row's ``np.cumsum`` of weights but its last atom, +inf past its
        support, as an (N, S - 1) array built on first use."""
        if self._table is None:
            cdf = np.cumsum(self.weights[:, :-1], axis=1)
            cdf[np.arange(cdf.shape[1]) >= self.sizes[:, None] - 1] = np.inf
            self._table = cdf
        return self._table

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
    if profile_a.n_agents != profile_b.n_agents:
        raise ValueError("cannot mix profiles with different agent counts")
    return _Atoms(profile_a).mix(profile_b.weights, profile_b.tokens, omega)


def _variance(problem: ProblemInstance, measure: DiscreteMeasure, columns: slice) -> float:
    rows, mean = measure._rows(problem)
    diffs = rows[:, columns] - mean.values[columns]
    total = 0.0
    for (weight, _), diff in zip(measure.atoms, diffs):
        total += weight * float(diff @ diff)
    return total


def contribution_variance(problem: ProblemInstance, measure: DiscreteMeasure, block: int) -> float:
    """Variance of the block-j contribution under the measure."""
    if (block := _count(block, "block", 0)) >= problem.n_blocks:
        raise ValueError(f"block {block} out of range for {problem.n_blocks} blocks")
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
    cdf = profile._sampling_table()
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

    A draw equal to an earlier one cannot replace the best, so once C(n_draws, 2)
    prod_i sum_s w_is^2 >= 1 coinciding pairs are expected it is not scored again (it still
    reads its uniforms).  Its key, the agents it takes off their highest-weight atom and
    their columns, holds at most 2 ln(n_draws) agents on average: 1 - w_mode <= -log sum w^2.
    """
    n_draws, weights = _count(n_draws, "n_draws"), profile.weights
    (atom_rows, index), agents = profile._atom_rows(problem), np.arange(profile.n_agents)
    seen = None
    if n_draws * (n_draws - 1) / 2 * np.prod(np.square(weights).sum(axis=1)) >= 1:
        seen, modes = set(), weights.argmax(axis=1)
    best_columns, best_value = None, np.inf
    for _ in range(n_draws):
        columns = _sample_columns(profile, rng)
        if seen is not None:
            off = np.flatnonzero(columns != modes)
            if (key := off.tobytes() + columns[off].tobytes()) in seen:
                continue
            seen.add(key)
        value = rows_objective(problem, atom_rows[index[agents, columns]])
        if value < best_value:
            best_columns, best_value = columns, value
    return DecisionProfile(profile.tokens[agents, best_columns]), best_value
