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

from .problems import Aggregate, Decision, DecisionProfile, ProblemInstance, objective
from .problems import contribution_rows, sequential_sum

# Atoms below this weight are dropped and the rest renormalized.  With
# the canonical step sizes an atom added at iteration s still has weight
# about 2(s+1)/(k(k+1)) at iteration k, so the threshold only fires for
# runs far longer than the support can usefully grow.
PRUNE_WEIGHT = 1e-12

_WEIGHT_SUM_TOL = 1e-12


def _left_sum(values) -> float:
    """``0.0 + v0 + v1 + ...`` in order; builtin ``sum`` compensates since Python 3.12."""
    total = 0.0
    for value in values:
        total += value
    return total


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
        merged: dict = {}
        for weight, decision in atoms:
            weight = float(weight)
            if weight < 0:
                raise ValueError(f"negative atom weight {weight} for agent {agent}")
            merged[decision] = merged.get(decision, 0.0) + weight
        total = _left_sum(merged.values())
        if not abs(total - 1.0) <= _WEIGHT_SUM_TOL:  # a NaN weight fails here too
            raise ValueError(f"atom weights for agent {agent} sum to {total}, expected 1")
        kept = [(w, d) for d, w in merged.items() if w >= PRUNE_WEIGHT]
        if not kept:
            raise ValueError(f"all atoms of agent {agent} fell below the prune threshold")
        norm = _left_sum(w for w, _ in kept)
        self.agent = int(agent)
        self.atoms = tuple((w / norm, d) for w, d in kept)

    @classmethod
    def dirac(cls, agent: int, decision: Decision) -> "DiscreteMeasure":
        """The point mass at ``decision``: one atom of weight 1, nothing to merge."""
        measure = cls.__new__(cls)
        measure.agent, measure.atoms = int(agent), ((1.0, decision),)
        return measure

    @property
    def support_size(self) -> int:
        return len(self.atoms)

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for w, _ in self.atoms])

    @property
    def decisions(self) -> tuple:
        return tuple(d for _, d in self.atoms)

    def mean_contribution(self, problem: ProblemInstance) -> Aggregate:
        """E_mu[g_i]."""
        rows = contribution_rows(problem, [self.agent] * self.support_size, self.decisions)
        rows *= self.weights[:, None]
        return Aggregate(sequential_sum(rows), problem.block_dims)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DiscreteMeasure):
            return NotImplemented
        return self.agent == other.agent and self.atoms == other.atoms

    def __repr__(self) -> str:
        return f"DiscreteMeasure(agent={self.agent}, atoms={self.atoms!r})"


class MeasureProfile:
    """One finitely supported distribution per agent."""

    __slots__ = ("measures", "_table")

    def __init__(self, measures):
        measures = tuple(measures)
        for i, measure in enumerate(measures):
            if measure.agent != i:
                raise ValueError(f"measure at position {i} is owned by agent {measure.agent}")
        self.measures = measures
        self._table = None

    @classmethod
    def dirac(cls, profile: DecisionProfile) -> "MeasureProfile":
        return cls(DiscreteMeasure.dirac(i, d) for i, d in enumerate(profile.decisions))

    @property
    def n_agents(self) -> int:
        return len(self.measures)

    @property
    def support_sizes(self) -> tuple[int, ...]:
        return tuple(m.support_size for m in self.measures)

    def mean_aggregate(self, problem: ProblemInstance) -> Aggregate:
        """(1/N) sum_i E_mu_i[g_i]."""
        rows = np.array([measure.mean_contribution(problem).values for measure in self.measures])
        return Aggregate(sequential_sum(rows) / self.n_agents, problem.block_dims)

    def _sampling_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Each measure's ``np.cumsum(weights)`` but its last entry, padded with +inf
        to an (N, S - 1) array, and the (N, S) atom tokens; built on first use."""
        if self._table is None:
            width = max(self.support_sizes)
            cdf = np.full((self.n_agents, width - 1), np.inf)
            tokens = np.empty((self.n_agents, width), dtype=object)
            for i, measure in enumerate(self.measures):
                cdf[i, : measure.support_size - 1] = np.cumsum(measure.weights)[:-1]
                for j, decision in enumerate(measure.decisions):
                    tokens[i, j] = decision
            self._table = cdf, tokens
        return self._table

    def __getitem__(self, i: int) -> DiscreteMeasure:
        return self.measures[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, MeasureProfile):
            return NotImplemented
        return self.measures == other.measures


def relaxed_objective(problem: ProblemInstance, profile: MeasureProfile) -> float:
    """Relaxed objective: f evaluated at the mean aggregate of the profile."""
    if profile.n_agents != problem.n_agents:
        raise ValueError(
            f"profile has {profile.n_agents} measures, problem has {problem.n_agents} agents"
        )
    values = problem.f_block_values(profile.mean_aggregate(problem))
    if not np.isfinite(values).all():
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise ValueError(f"non-finite relaxed objective value in block {bad}")
    return float(values.sum())


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
    mixed = []
    for ma, mb in zip(profile_a.measures, profile_b.measures):
        atoms = [(w * (1.0 - omega), d) for w, d in ma.atoms]
        atoms += [(w * omega, d) for w, d in mb.atoms]
        mixed.append(DiscreteMeasure(ma.agent, atoms))
    return MeasureProfile(mixed)


def _variance(problem: ProblemInstance, measure: DiscreteMeasure, columns: slice) -> float:
    mean = measure.mean_contribution(problem).values[columns]
    rows = contribution_rows(problem, [measure.agent] * measure.support_size, measure.decisions)
    diffs = rows[:, columns] - mean
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
    cdf, tokens = profile._sampling_table()
    uniforms = rng.random(profile.n_agents)
    index = (cdf <= uniforms[:, None]).sum(axis=1)
    return DecisionProfile(tuple(tokens[np.arange(profile.n_agents), index]))


def select_best(
    problem: ProblemInstance,
    profile: MeasureProfile,
    n_draws: int,
    rng: np.random.Generator,
) -> tuple[DecisionProfile, float]:
    """Selection method: sample ``n_draws`` profiles, keep the lowest objective.

    Ties are broken by first occurrence, so the result is a deterministic
    function of the stream state.
    """
    if n_draws < 1:
        raise ValueError(f"selection needs at least one draw, got {n_draws}")
    best_profile = None
    best_value = np.inf
    for _ in range(n_draws):
        candidate = sample_profile(profile, rng)
        value = objective(problem, candidate)
        if value < best_value:
            best_profile, best_value = candidate, value
    return best_profile, best_value
