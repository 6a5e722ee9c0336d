"""The solvers on instances that rely on the generic ``ProblemInstance`` hooks.

``BalancedSignsInstance`` and the test-only ``TableInstance`` keep the
default ``f_value`` and ``f_value_batch``, which the MIQP benchmark
overrides; these runs are the only tier-1 coverage of those defaults.
"""
import numpy as np
import pytest

import aggfw
from aggfw.bounds import compute_constants
from aggfw.frank_wolfe import LineSearchSfwStep, fw_run
from aggfw.measures import relaxed_objective
from aggfw.problems import Aggregate, objective
from aggfw.stochastic_fw import ConstantSchedule, sfw_run, stopping_time_run


@pytest.fixture(params=["balanced", "table"])
def generic(request, balanced_ten, table_instance):
    return balanced_ten if request.param == "balanced" else table_instance


def test_default_batch_equals_row_by_row(generic):
    points = np.random.default_rng(1).normal(size=(7, generic.total_dim))
    batch = generic.f_value_batch(points)
    rows = [generic.f_value(Aggregate(row, generic.block_dims)) for row in points]
    assert batch.tolist() == rows


def test_fw_run_certifies_its_iterate(generic):
    seen = []
    profile, records = fw_run(generic, 30, callback=seen.append)
    assert seen == records[:-1]
    assert all(r.beta >= -1e-9 for r in records)
    assert records[-1].objective == pytest.approx(relaxed_objective(generic, profile), abs=1e-12)
    if isinstance(generic, aggfw.BalancedSignsInstance):
        optimum = generic.relaxed_optimum().value
        assert all(r.objective - optimum <= r.beta + 1e-12 for r in records)


@pytest.mark.parametrize("line_search", [False, True])
def test_sfw_run_never_gets_worse(generic, line_search):
    rule = LineSearchSfwStep.from_constants(compute_constants(generic)) if line_search else None
    seen = []
    x, records = sfw_run(generic, 2 * generic.n_agents, ConstantSchedule(5), seed=3,
                         rule=rule, callback=seen.append)
    assert seen == records[:-1]
    values = [r.objective for r in records]
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    assert records[-1].objective == objective(generic, x)
    if line_search:
        assert all(r.beta >= -1e-9 for r in records[:-1])


def test_sfw_active_set_changes_nothing(generic):
    runs = [
        sfw_run(generic, 8, ConstantSchedule(4), seed=5, use_active_set=flag)
        for flag in (True, False)
    ]
    (xa, ra), (xb, rb) = runs
    assert xa == xb
    assert [(r.objective, r.active_count) for r in ra] == [(r.objective, r.active_count) for r in rb]


def test_stopping_time_run(generic):
    seen = []
    x, records = stopping_time_run(generic, 8, seed=2, max_draws=500, callback=seen.append)
    assert seen == records[:-1]
    assert all(1 <= r.n_draws <= 500 and r.beta >= -1e-9 for r in records[:-1])
    assert records[-1].objective == objective(generic, x)
