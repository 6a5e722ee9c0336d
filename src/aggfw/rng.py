"""Counter-based random streams for reproducible simulation.

All randomness in this package flows through Philox4x64 bit generators.
A stream is addressed by ``(seed, tag, block, step)``: the seed is the
Philox key and the remaining three words fill the upper 192 bits of the
256-bit counter, so distinct addresses yield independent streams and the
values drawn from one stream never depend on what was drawn from
another.  Replays are therefore insensitive to the execution schedule:
any consumer that draws the same shapes from the same address sees the
same values, whether it runs alone, in parallel, or out of order.

Concrete addressing used by the solvers:

* ``stream(seed, BERNOULLI, 0, k)`` -- the per-agent mixing draws of
  stochastic Frank-Wolfe at iteration ``k``.  The uniform matrix of
  shape ``(n_k, N)`` is drawn row-major, so entry ``(j, i)`` is a pure
  function of ``(seed, k, j, i)`` and the consumption order coincides
  with the lexicographic order of the triples ``(k, j, i)``.
* ``stream(seed, SELECTION, 0, k)`` -- profile sampling when the
  selection method runs after ``k`` solver iterations.  One profile
  consumes ``N`` uniforms, one per agent in agent order.
* ``stream(seed, INSTANCE)`` -- benchmark instance generation.
"""
from __future__ import annotations

import numpy as np

from .problems import _count

# Counter-word tags, one per solver phase.
BERNOULLI = 1
SELECTION = 2
INSTANCE = 3

_WORD = 2**64


def stream(seed: int, tag: int = 0, block: int = 0, step: int = 0) -> np.random.Generator:
    """Generator over the Philox stream addressed by (seed, tag, block, step)."""
    seed = _count(seed, "seed", 0)
    words = (_count(tag, "tag", 0), _count(block, "block", 0), _count(step, "step", 0))
    if any(w >= _WORD for w in words):
        raise ValueError(f"stream address words out of range: {words}")
    bitgen = np.random.Philox(key=seed, counter=[0, *words])
    return np.random.Generator(bitgen)
