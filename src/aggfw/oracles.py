"""Independent verification oracles used by the test suite.

These deliberately avoid the solver code paths: the brute-force optimum
enumerates every profile, the recursion checker replays the canonical-step
recursion bound on raw sequences, and the Bernoulli-increment checker estimates
the martingale moment bounds by plain Monte Carlo.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .problems import DecisionProfile, ProblemInstance, _count, objective

_ENUMERATION_CAP = 2**20


class RecursionHypothesisError(ValueError):
    """The input sequences do not satisfy the recursion hypothesis."""

    def __init__(self, index: int, lhs: float, rhs: float):
        super().__init__(
            f"recursion hypothesis fails at step {index}: {lhs!r} > {rhs!r}"
        )
        self.index = index


@dataclass(frozen=True)
class BruteForceResult:
    """Exact optimum of a finite-universe instance by exhaustive enumeration."""

    value: float
    optimizers: tuple[DecisionProfile, ...]
    count: int


def brute_force_optimum(problem: ProblemInstance) -> BruteForceResult:
    """Enumerate every decision profile, at most 2**20, and return the exact minimum.

    All profiles attaining the minimum (by exact float equality) are
    collected in enumeration order.
    """
    universes = [tuple(problem.decision_universe(i)) for i in range(problem.n_agents)]
    count = math.prod(len(u) for u in universes)
    if count > _ENUMERATION_CAP:
        raise ValueError(f"enumeration of {count} profiles exceeds the cap of {_ENUMERATION_CAP}")
    best = np.inf
    optimizers: list[DecisionProfile] = []
    for decisions in itertools.product(*universes):
        profile = DecisionProfile(decisions)
        value = objective(problem, profile)
        if value < best:
            best = value
            optimizers = [profile]
        elif value == best:
            optimizers.append(profile)
    return BruteForceResult(value=best, optimizers=tuple(optimizers), count=count)


def check_recursion_bound(c: float, u, gamma) -> bool:
    """Verify the canonical-step recursion bound on explicit sequences.

    First checks the hypothesis
    ``gamma_{k+1} <= (1 - 2/(k+2)) gamma_k + C (2/(k+2))^2 + u_k``
    for every consecutive pair (raising ``RecursionHypothesisError`` at
    the first violated step), then checks the conclusion
    ``gamma_k <= 4C/k + sum_{k'<k} (k'+1)(k'+2)/(k(k+1)) u_{k'}``
    for all k >= 1.  Comparisons carry a relative slack of 1e-9 to absorb
    floating-point noise on sequences built at exact equality.
    """
    u = np.asarray(u, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    if gamma.size != u.size + 1:
        raise ValueError(
            f"need one more gamma than u terms, got {gamma.size} gammas and {u.size} u's"
        )
    slack = 1e-9 * max(1.0, abs(c), float(np.abs(gamma).max(initial=0.0)))
    for k in range(u.size):
        omega = 2.0 / (k + 2.0)
        rhs = (1.0 - omega) * gamma[k] + c * omega**2 + u[k]
        if gamma[k + 1] > rhs + slack:
            raise RecursionHypothesisError(k, float(gamma[k + 1]), float(rhs))
    weighted = u * (np.arange(u.size) + 1.0) * (np.arange(u.size) + 2.0)
    prefix = np.concatenate(([0.0], np.cumsum(weighted)))
    for k in range(1, gamma.size):
        bound = 4.0 * c / k + prefix[k] / (k * (k + 1.0))
        if gamma[k] > bound + slack:
            return False
    return True


@dataclass(frozen=True)
class BernoulliIncrementReport:
    """Monte Carlo estimates for the Bernoulli martingale-increment checks."""

    mean_u: float
    mean_u_stderr: float
    max_u: float
    mean_u2: float
    mean_u2_stderr: float
    u2_bound: float
    mean_ok: bool
    max_ok: bool
    second_moment_ok: bool

    @property
    def ok(self) -> bool:
        return self.mean_ok and self.max_ok and self.second_moment_ok


def mc_check_bernoulli_increment(
    omega: float,
    delta: float,
    f,
    sample_a,
    sample_c,
    rng: np.random.Generator,
    n_samples: int = 20_000,
    n_inner: int = 64,
) -> BernoulliIncrementReport:
    """Estimate the moments of U = E[F | A, B] - E[F | A] by Monte Carlo.

    ``f(a, b, c)`` is the test function with ``|f(a,1,c) - f(a,0,c)| <= delta``;
    ``sample_a(rng)`` and ``sample_c(rng)`` draw the outer and inner
    variables (taken independent here).  The report asserts the three
    increment properties: the mean vanishes within 3 standard errors, U
    never exceeds delta, and the second moment stays below
    ``omega (1-omega) delta^2`` within 3 standard errors.
    """
    if not 0.0 <= omega <= 1.0:
        raise ValueError(f"omega must lie in [0, 1], got {omega}")
    n_samples, n_inner = _count(n_samples, "n_samples"), _count(n_inner, "n_inner")
    us = np.empty(n_samples)
    for s in range(n_samples):
        a = sample_a(rng)
        # E[F | A, B] integrates C out; with B Bernoulli the conditional
        # increment is (B - omega) * (E_C F(a,1,C) - E_C F(a,0,C)).
        gap = 0.0
        for _ in range(n_inner):
            c = sample_c(rng)
            gap += f(a, 1, c) - f(a, 0, c)
        gap /= n_inner
        if abs(gap) > delta * (1.0 + 1e-12):
            raise ValueError(
                f"test function violates the bounded-increment premise: |gap|={abs(gap)} > {delta}"
            )
        b = 1.0 if rng.random() < omega else 0.0
        us[s] = (b - omega) * gap

    mean_u = float(us.mean())
    mean_stderr = float(us.std(ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else 0.0
    u2 = us**2
    mean_u2 = float(u2.mean())
    u2_stderr = float(u2.std(ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else 0.0
    bound = omega * (1.0 - omega) * delta**2
    return BernoulliIncrementReport(
        mean_u=mean_u,
        mean_u_stderr=mean_stderr,
        max_u=float(us.max()),
        mean_u2=mean_u2,
        mean_u2_stderr=u2_stderr,
        u2_bound=bound,
        mean_ok=abs(mean_u) <= 3.0 * mean_stderr + 1e-15,
        max_ok=float(us.max()) <= delta * (1.0 + 1e-12),
        second_moment_ok=mean_u2 <= bound + 3.0 * u2_stderr + 1e-15,
    )
