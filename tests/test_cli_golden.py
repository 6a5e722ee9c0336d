"""Byte-level goldens for the command line.

Every chart and every stdout is pinned by a committed file under
``tests/golden``.  Both print rounded numbers (two decimals for chart
coordinates, six significant digits for stdout), so they do not follow the
BLAS kernel.  Run CSVs and ``summary.csv`` hold ``repr`` floats, which do;
each is rebuilt here from the public solver calls on the running machine
and must equal the command's file byte for byte.  The ``bounds`` JSON is
pinned only on ``dyadic.json``, whose entries are multiples of 1/4, so its
constants are exact under any kernel.

``tiny.json`` is the output of ``aggfw generate --m 3 --n 12 --seed 3``.
The solvers' clocks are stopped, so every ``wall_ms`` reads ``0.0``.
"""
import json
import math
import types
from pathlib import Path

import numpy as np
import pytest

import aggfw.frank_wolfe
import aggfw.stochastic_fw
from aggfw import rng
from aggfw.bounds import compute_constants
from aggfw.cli import EXIT_OK, main
from aggfw.frank_wolfe import CanonicalStep, LineSearchFwStep, LineSearchSfwStep, fw_run
from aggfw.measures import select_best
from aggfw.miqp import load_instance
from aggfw.stochastic_fw import ConstantSchedule, QuadraticSchedule, sfw_run, stopping_time_run

GOLDEN = Path(__file__).parent / "golden"
TINY = GOLDEN / "tiny.json"
DYADIC = GOLDEN / "dyadic.json"

RUN_HEADER = ("k", "value", "beta", "omega", "n_k", "active_count", "wall_ms")


def ls_sfw(problem):
    return LineSearchSfwStep.from_constants(compute_constants(problem))


# golden name -> (arguments after --instance and --out, seed -> records of that run)
RUNS = {
    "run_fw": (
        ["run-fw", "--iters", "12", "--rule", "ls-fw", "--seeds", "0", "--select-n", "20",
         "--svg"],
        lambda p, seed: fw_run(p, 12, rule=LineSearchFwStep())[1],
    ),
    "run_fw_canonical": (
        ["run-fw", "--iters", "5"],
        lambda p, seed: fw_run(p, 5, rule=CanonicalStep())[1],
    ),
    "run_sfw": (
        ["run-sfw", "--iters", "10", "--schedule", "const:4", "--seeds", "1", "--svg"],
        lambda p, seed: sfw_run(p, 10, ConstantSchedule(4), seed, rule=CanonicalStep())[1],
    ),
    "run_sfw_ls": (
        ["run-sfw", "--iters", "6", "--rule", "ls-sfw", "--schedule", "quad:24", "--seeds",
         "7", "--no-keep-if-worse"],
        lambda p, seed: sfw_run(p, 6, QuadraticSchedule(24.0), seed, rule=ls_sfw(p),
                                keep_if_worse=False)[1],
    ),
    "run_sfw_stopping": (
        ["run-sfw", "--iters", "8", "--stopping-time", "--seeds", "2", "--svg"],
        lambda p, seed: stopping_time_run(p, 8, seed)[1],
    ),
}

# golden name -> (arguments after --instance and --out, seeds, seed -> records of that seed)
SWEEPS = {
    "sweep_sfw": (
        ["sweep", "--iters", "6", "--schedule", "const:2", "--seeds", "0,1,2", "--svg"],
        (0, 1, 2),
        lambda p, seed: sfw_run(p, 6, ConstantSchedule(2), seed, rule=CanonicalStep())[1],
    ),
    "sweep_fw": (
        ["sweep", "--algorithm", "fw", "--rule", "ls-fw", "--iters", "7", "--seeds", "4,3",
         "--svg"],
        (4, 3),
        lambda p, seed: fw_run(p, 7, rule=LineSearchFwStep())[1],
    ),
    "sweep_one_seed": (
        ["sweep", "--iters", "3", "--schedule", "quad:6", "--seeds", "5"],
        (5,),
        lambda p, seed: sfw_run(p, 3, QuadraticSchedule(6.0), seed, rule=CanonicalStep())[1],
    ),
}

# golden name -> (instance, arguments after --instance); each writes report.json
BOUNDS = {
    "bounds_tiny": (TINY, ["--iters", "20", "--schedule", "quad:24", "--eps", "0.5,1.0",
                           "--zeta", "0.1,0.05"]),
    "bounds_tiny_default": (TINY, []),
    "bounds_dyadic": (DYADIC, ["--iters", "8", "--schedule", "const:3", "--eps", "0.25,2",
                               "--zeta", "0.5"]),
    "bounds_dyadic_quad": (DYADIC, ["--schedule", "quad:12", "--zeta", "0.25"]),
}


@pytest.fixture()
def cli(tmp_path, monkeypatch, capsys):
    """Run the command line in ``tmp_path`` with stopped clocks; return its stdout."""
    stopped = types.SimpleNamespace(perf_counter=lambda: 0.0)
    monkeypatch.setattr(aggfw.frank_wolfe, "time", stopped)
    monkeypatch.setattr(aggfw.stochastic_fw, "time", stopped)
    monkeypatch.chdir(tmp_path)

    def run(*argv):
        capsys.readouterr()
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == EXIT_OK, captured.err
        assert captured.err == ""
        return captured.out

    return run


def golden(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


def cell(value) -> str:
    """One CSV field: empty for None and NaN, ``repr`` for floats."""
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def csv_text(header, rows) -> str:
    return "".join(",".join(cell(v) for v in row) + "\n" for row in [header, *rows])


def run_csv(records) -> str:
    """A run CSV: draw columns stay empty on FW records and on the SFW terminal one."""
    rows = []
    for rec in records:
        draws = getattr(rec, "n_draws", 0)
        rows.append((rec.k, rec.objective, rec.beta, rec.omega, draws or None,
                     rec.active_count if draws else None, rec.wall_ms))
    return csv_text(RUN_HEADER, rows)


def test_generate(cli, tmp_path):
    assert cli("generate", "--m", "3", "--n", "12", "--seed", "3", "--out", "inst/tiny.json") \
        == golden("generate.txt")
    assert (tmp_path / "inst" / "tiny.json").read_bytes() == TINY.read_bytes()


@pytest.mark.parametrize("name", RUNS)
def test_run(cli, tmp_path, name):
    argv, records = RUNS[name]
    assert cli(*argv, "--instance", str(TINY), "--out", name) == golden(f"{name}.txt")
    out = tmp_path / name
    csv_name = f"{argv[0][4:]}.csv"
    charts = sorted(p.name for p in out.glob("*.svg"))
    assert sorted(p.name for p in out.iterdir()) == sorted([csv_name, *charts])
    assert charts == ([f"{argv[0][4:]}.svg"] if "--svg" in argv else [])
    for chart in charts:
        assert (out / chart).read_text(encoding="utf-8") == golden(f"{name}.svg")
    seed = int(argv[argv.index("--seeds") + 1]) if "--seeds" in argv else 0
    expected = run_csv(records(load_instance(str(TINY)), seed))
    assert (out / csv_name).read_text(encoding="utf-8") == expected


def test_empty_run(cli, tmp_path):
    assert cli("run-sfw", "--iters", "0", "--instance", str(TINY), "--out", "empty") \
        == golden("run_sfw_empty.txt")
    assert (tmp_path / "empty" / "sfw.csv").read_text(encoding="utf-8") \
        == csv_text(RUN_HEADER, [])


def test_selection_line_reports_select_best(cli):
    problem = load_instance(str(TINY))
    profile, _ = fw_run(problem, 12, rule=LineSearchFwStep())
    _, value = select_best(problem, profile, 20, rng.stream(0, rng.SELECTION, 0, 12))
    argv, _ = RUNS["run_fw"]
    assert f"selection over 20 draws: J = {value:.6g}\n" in cli(
        *argv, "--instance", str(TINY), "--out", "run_fw"
    )


@pytest.mark.parametrize("name", SWEEPS)
def test_sweep(cli, tmp_path, name):
    argv, seeds, records = SWEEPS[name]
    assert cli(*argv, "--instance", str(TINY), "--out", name) == golden(f"{name}.txt")
    out = tmp_path / name
    problem = load_instance(str(TINY))
    reference = problem.relaxed_optimum(tol=1e-9).value
    gaps = []
    for seed in seeds:
        recs = records(problem, seed)
        assert (out / f"seed_{seed}.csv").read_text(encoding="utf-8") == run_csv(recs)
        gaps.append([rec.objective - reference for rec in recs])
    gaps = np.array(gaps)
    summary = []
    for k in range(gaps.shape[1]):
        column = gaps[:, k]
        std = float(column.std(ddof=1)) if len(seeds) > 1 else 0.0
        summary.append((k, float(column.mean()), std, float(column.min()),
                        float(column.max()), len(seeds)))
    assert (out / "summary.csv").read_text(encoding="utf-8") \
        == csv_text(("k", "mean", "std", "min", "max", "count"), summary)
    charts = ["sweep.svg"] if "--svg" in argv else []
    expected = sorted(["summary.csv", *charts, *(f"seed_{seed}.csv" for seed in seeds)])
    assert sorted(p.name for p in out.iterdir()) == expected
    for chart in charts:
        assert (out / chart).read_text(encoding="utf-8") == golden(f"{name}.svg")


@pytest.mark.parametrize("name", BOUNDS)
def test_bounds(cli, tmp_path, name):
    instance, argv = BOUNDS[name]
    stdout = cli("bounds", "--instance", str(instance), *argv, "--out", "report.json")
    assert stdout == golden(f"{name}.txt")
    report = (tmp_path / "report.json").read_text(encoding="utf-8")
    if instance == DYADIC:
        assert report == golden(f"{name}.json")
    else:  # repr floats from a generated instance follow the BLAS kernel; pin the layout
        assert json.loads(report).keys() == json.loads(golden("bounds_dyadic.json")).keys()


def test_dyadic_instance_is_dyadic():
    data = json.loads(DYADIC.read_text(encoding="utf-8"))
    for value in data["A"] + data["ybar"]:
        assert (4 * value).is_integer()
