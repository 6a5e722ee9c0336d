"""Every count and seed the library takes goes through one integer check."""
import dataclasses
import math
import re

import numpy as np
import pytest

import aggfw
from aggfw import rng as _rng
from aggfw.bounds import compute_constants, sample_size_for_confidence, sfw_tail_constants
from aggfw.frank_wolfe import fw_run, fw_with_selection
from aggfw.measures import MeasureProfile, select_best
from aggfw.problems import zero_gradient_profile
from aggfw.stochastic_fw import (
    ConstantSchedule,
    sfw_run,
    sfw_step,
    stopping_time_run,
    stopping_time_step,
)


class Sizes:
    """A schedule whose every size is ``n``."""

    def __init__(self, n):
        self.n = n

    def size(self, k, n_agents):
        return self.n


# (argument name, minimum, call(problem, value)), one row per entry point.
SITES = {
    "ConstantSchedule": ("draw count", 1, lambda p, v: ConstantSchedule(v)),
    "sfw_run.schedule": (
        "schedule size at iteration 0", 1, lambda p, v: sfw_run(p, 2, Sizes(v), 0),
    ),
    "sfw_step.n_draws": (
        "n_draws", 1,
        lambda p, v: sfw_step(p, zero_gradient_profile(p), 0, 0.5, v, _rng.stream(0)),
    ),
    "stopping_time_step.max_draws": (
        "max_draws", 1,
        lambda p, v: stopping_time_step(
            p, zero_gradient_profile(p), 4, 1 / 3, _rng.stream(0), max_draws=v
        ),
    ),
    "fw_run.n_iters": ("n_iters", 1, lambda p, v: fw_run(p, v)),
    "sfw_run.n_iters": ("n_iters", 1, lambda p, v: sfw_run(p, v, ConstantSchedule(2), 0)),
    "stopping_time_run.n_iters": ("n_iters", 1, lambda p, v: stopping_time_run(p, v, 0)),
    "sfw_tail_constants.n_iters": (
        "n_iters", 1, lambda p, v: sfw_tail_constants(v, 1.0, ConstantSchedule(2), 10),
    ),
    "select_best.n_draws": (
        "n_draws", 1,
        lambda p, v: select_best(
            p, MeasureProfile.dirac(zero_gradient_profile(p)), v, _rng.stream(0)
        ),
    ),
    "fw_with_selection.n_select": ("n_draws", 1, lambda p, v: fw_with_selection(p, 2, v, 0)),
    "d_of_k.k": ("k", 1, lambda p, v: compute_constants(p).d_of_k(v)),
    "sample_size_for_confidence.k": (
        "k", 1, lambda p, v: sample_size_for_confidence(v, 10, 0.1, 1.0, 1.0),
    ),
    "generate.m": ("m", 1, lambda p, v: aggfw.generate(v, 4, 1)),
    "generate.n": ("n", 1, lambda p, v: aggfw.generate(3, v, 1)),
    "BalancedSignsInstance": ("n_agents", 1, lambda p, v: aggfw.BalancedSignsInstance(v)),
    "stream.seed": ("seed", 0, lambda p, v: _rng.stream(v)),
    "stream.tag": ("tag", 0, lambda p, v: _rng.stream(0, v)),
    "stream.block": ("block", 0, lambda p, v: _rng.stream(0, 0, v)),
    "stream.step": ("step", 0, lambda p, v: _rng.stream(0, 0, 0, v)),
    "generate.seed": ("seed", 0, lambda p, v: aggfw.generate(3, 4, v)),
    "sfw_run.seed": ("seed", 0, lambda p, v: sfw_run(p, 2, ConstantSchedule(2), v)),
    "stopping_time_run.seed": ("seed", 0, lambda p, v: stopping_time_run(p, 2, v)),
    "fw_with_selection.seed": ("seed", 0, lambda p, v: fw_with_selection(p, 2, 2, v)),
}

BAD = {"True": True, "np.True_": np.True_, "2.0": 2.0, "2.5": 2.5, '"3"': "3", "nan": math.nan,
       "0.9": 0.9, "1.7": 1.7, "below": None}


@pytest.mark.parametrize("bad", list(BAD))
@pytest.mark.parametrize("site", list(SITES))
def test_every_entry_point_rejects_the_same_bad_integers(miqp_small, site, bad):
    name, minimum, call = SITES[site]
    value = minimum - 1 if BAD[bad] is None else BAD[bad]
    message = f"{name} must be an integer of at least {minimum}, got {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        call(miqp_small, value)


def replay(records):
    """The records as text, ``wall_ms`` aside; ``repr`` tells np.int64(3) from 3."""
    return [repr(dataclasses.replace(r, wall_ms=0.0)) for r in records]


@pytest.mark.parametrize("solver", [
    lambda p, i: fw_run(p, i(5)),
    lambda p, i: sfw_run(p, i(5), ConstantSchedule(i(3)), i(7)),
    lambda p, i: stopping_time_run(p, i(5), i(7), max_draws=i(2)),
], ids=["fw_run", "sfw_run", "stopping_time_run"])
def test_numpy_integers_run_like_python_ints(miqp_small, solver):
    final, records = solver(miqp_small, int)
    numpy_final, numpy_records = solver(miqp_small, np.int64)
    assert numpy_final == final
    assert replay(numpy_records) == replay(records)
    assert all(type(r.k) is int for r in numpy_records)
    if hasattr(records[0], "n_draws"):
        assert all(type(r.n_draws) is int for r in numpy_records)


def test_a_numpy_seed_instance_saves_and_reloads(tmp_path):
    path = str(tmp_path / "inst.json")
    aggfw.save_instance(aggfw.generate(3, 4, np.int64(1)), path)
    loaded = aggfw.load_instance(path)
    assert type(loaded.seed) is int and loaded.seed == 1
    assert loaded.matrix.tobytes() == aggfw.generate(3, 4, 1).matrix.tobytes()
