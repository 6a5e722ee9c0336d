"""Batch experiment front end.

Subcommands: ``generate`` (benchmark instances), ``run-fw`` / ``run-sfw``
(single runs with CSV and optional SVG emission), ``sweep`` (multi-seed
aggregation) and ``bounds`` (certificate report).  The CSV files are the
source of truth; charts are a convenience render.  Exit codes: 0 on
success, 2 on configuration errors, 3 on numerical failures.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .bounds import (
    compute_constants,
    gap_bound_basic,
    gap_bound_refined,
    mcdiarmid_tail,
    sample_size_for_confidence,
    sfw_tail,
    sfw_tail_constants,
)
from .frank_wolfe import CanonicalStep, LineSearchFwStep, LineSearchSfwStep, fw_run
from .measures import select_best
from .miqp import (
    MiqpInstance,
    ReferenceSolverError,
    generate,
    load_instance,
    save_instance,
    write_atomic,
)
from .problems import _count
from .stochastic_fw import ConstantSchedule, QuadraticSchedule, sfw_run, stopping_time_run

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

CSV_COLUMNS = ("k", "value", "beta", "omega", "n_k", "active_count", "wall_ms")
SUMMARY_COLUMNS = ("k", "mean", "std", "min", "max", "count")

_PALETTE = ("#1b9e77", "#d95f02", "#7570b3", "#e7298a", "#66a61e", "#e6ab02")


class ConfigError(Exception):
    """Inconsistent or unusable experiment configuration."""


# --- formatting & atomic output ---------------------------------------


def _fmt(value) -> str:
    """A CSV field: empty for None and NaN; ``str`` of a float is its shortest repr."""
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return ""
    return str(value)


def write_csv(path: str, rows: list[dict], columns: tuple[str, ...] = CSV_COLUMNS) -> None:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(col)) for col in columns))
    write_atomic(path, "\n".join(lines) + "\n")


def _rows(records) -> list[dict]:
    """CSV rows of FW or SFW records, keyed by ``CSV_COLUMNS``.

    The draw columns stay empty for FW records, which have no draws, and
    for the SFW terminal record, the only one with zero draws.
    """
    rows = []
    for rec in records:
        n_draws = getattr(rec, "n_draws", 0)
        values = (rec.k, rec.objective, rec.beta, rec.omega, n_draws or None,
                  rec.active_count if n_draws else None, rec.wall_ms)
        rows.append(dict(zip(CSV_COLUMNS, values, strict=True)))
    return rows


# --- SVG rendering -----------------------------------------------------


def _axis(values: list[float], log_log: bool, start: float, span: float):
    """One chart axis: the map from data to pixels, with the low end at ``start``
    and the high end at ``start + span``, and the (value, label) ticks."""
    scale = math.log10 if log_log else float
    lo, hi = scale(min(values)), scale(max(values))
    if hi - lo < 1e-12:
        lo, hi = lo - 0.5, hi + 0.5
    if log_log:
        decades = range(math.ceil(lo - 1e-9), math.floor(hi + 1e-9) + 1)
        ticks = [(10.0**e, f"1e{e}") for e in decades]
    else:
        step = (hi - lo) / 5.0
        ticks = [(t, f"{t:.3g}") for t in (lo + i * step for i in range(6))]
    return (lambda v: start + (scale(v) - lo) / (hi - lo) * span), ticks


def render_line_chart(
    path: str,
    series: list[tuple[str, list[float], list[float]]],
    title: str,
) -> None:
    """Deterministic SVG chart of gap against iteration k, then ``wrote <path>`` on stdout.

    The viewBox is a fixed 800x600; the plot frame spans x 80..780 and y 50..540.
    """
    for log_log in (True, False):  # with no positive point, the axes fall back to linear
        cleaned = []
        for label, xs, ys in series:
            pts = [(float(x), float(y)) for x, y in zip(xs, ys) if math.isfinite(x)
                   and math.isfinite(y) and (not log_log or (x > 0 and y > 0))]
            if pts:
                cleaned.append((label, pts))
        if cleaned:
            break

    px, x_ticks = _axis([x for _, pts in cleaned for x, _ in pts] or [1.0], log_log, 80.0, 700.0)
    py, y_ticks = _axis([y for _, pts in cleaned for _, y in pts] or [1.0], log_log, 540.0, -490.0)
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 800 600">',
        '<rect width="800" height="600" fill="white"/>',
        f'<text x="400.0" y="24" text-anchor="middle" font-size="18">{title}</text>',
        '<rect x="80" y="50" width="700" height="490" fill="none" stroke="black"/>',
        '<text x="400.0" y="588.0" text-anchor="middle" font-size="14">iteration k</text>',
        '<text x="20" y="300.0" text-anchor="middle" font-size="14" '
        'transform="rotate(-90 20 300.0)">gap</text>',
    ]
    for tick, label in x_ticks:
        x = px(tick)
        parts += [f'<line x1="{x:.2f}" y1="540.0" x2="{x:.2f}" y2="545.0" stroke="black"/>',
                  f'<text x="{x:.2f}" y="560.0" text-anchor="middle" font-size="12">{label}</text>']
    for tick, label in y_ticks:
        y = py(tick)
        parts += [f'<line x1="75.0" y1="{y:.2f}" x2="80.0" y2="{y:.2f}" stroke="black"/>',
                  f'<text x="72.0" y="{y + 4:.2f}" text-anchor="end" font-size="12">{label}</text>']
    for idx, (label, pts) in enumerate(cleaned):
        color = _PALETTE[idx % len(_PALETTE)]
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        parts += [f'<polyline points="{coords}" fill="none" stroke="{color}" '
                  'stroke-width="1.5"/>',
                  f'<text x="770.0" y="{68 + 16 * idx:.1f}" text-anchor="end" font-size="12" '
                  f'fill="{color}">{label}</text>']
    parts.append("</svg>")
    write_atomic(path, "\n".join(parts) + "\n")
    print(f"wrote {path}")


# --- configuration helpers ----------------------------------------------


def parse_rule(name: str, problem) -> CanonicalStep | LineSearchFwStep | LineSearchSfwStep:
    if name == "canonical":
        return CanonicalStep()
    if name == "ls-fw":
        return LineSearchFwStep()
    if name == "ls-sfw":
        return LineSearchSfwStep.from_constants(compute_constants(problem))
    raise ConfigError(f"unknown step rule {name!r} (expected canonical, ls-fw or ls-sfw)")


def parse_schedule(text: str):
    kind, _, arg = text.partition(":")
    try:
        if kind == "const":
            return ConstantSchedule(int(arg))
        if kind == "quad":
            return QuadraticSchedule(float(arg))
    except ValueError as exc:
        raise ConfigError(f"bad schedule parameter in {text!r}: {exc}") from exc
    raise ConfigError(f"unknown schedule {text!r} (expected const:n or quad:A)")


def _split_list(value) -> list:
    """A JSON list as given, or text split at its commas with the empty parts dropped."""
    if isinstance(value, (list, tuple)):
        return list(value)
    return [part for part in str(value).split(",") if part]


def parse_seeds(value) -> list[int]:
    seeds = [_as_int(part, "a seed", 0) for part in _split_list(value)]
    if not seeds:
        raise ConfigError("at least one seed is required")
    if len(set(seeds)) < len(seeds):
        raise ConfigError(f"seeds must be distinct, got {seeds}")
    return seeds


def _merge_config(args: argparse.Namespace) -> dict:
    """Resolve option values: command line wins over the JSON config file."""
    config = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as handle:
                config = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(config, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object")
    merged = dict(config)
    for key, value in vars(args).items():
        if key in ("command", "config"):
            continue
        if value is not None:
            merged[key] = value
    return merged


def _require(merged: dict, key: str):
    if merged.get(key) is None:
        raise ConfigError(f"missing required option --{key.replace('_', '-')}")
    return merged[key]


def _text(merged: dict, key: str, required: bool = False) -> str | None:
    """A path or schedule option, or None when an optional one is not given."""
    value = _require(merged, key) if required else merged.get(key)
    if value is not None and not (isinstance(value, str) and value):
        raise ConfigError(f"--{key} must be a non-empty string, got {value!r}")
    return value


def _load_problem(merged: dict) -> MiqpInstance:
    path = _text(merged, "instance", required=True)
    try:
        return load_instance(path)
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot load instance from {path}: {exc}") from exc


def _as_int(value, name: str, minimum: int) -> int:
    """``value`` as an integer >= ``minimum``: ``5``, ``5.0`` and ``"5"`` pass; ``true``,
    ``3.9`` and ``"x"`` are config errors."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    elif isinstance(value, str):
        with contextlib.suppress(ValueError):
            value = int(value)
    try:
        return _count(value, name, minimum)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _int_option(merged: dict, key: str, minimum: int, default: int | None = None) -> int:
    """An integer option; without a ``default`` it is required."""
    if default is not None and merged.get(key) is None:
        return default
    return _as_int(_require(merged, key), f"--{key.replace('_', '-')}", minimum)


def _switch(merged: dict, key: str, default: bool) -> bool:
    """A boolean option: the flag, or a JSON ``true``/``false`` in the config."""
    value = merged.get(key)
    if value is None:
        return default
    if not isinstance(value, bool):
        raise ConfigError(f"--{key.replace('_', '-')} must be true or false, got {value!r}")
    return value


def _reference_value(problem: MiqpInstance) -> float:
    tol = 1e-7 if problem.n_agents >= 100 else 1e-9
    return problem.relaxed_optimum(tol=tol).value


@dataclass(frozen=True)
class _RunSpec:
    """A validated run; ``solve(seed)`` returns its final iterate and CSV rows."""

    problem: MiqpInstance
    n_iters: int
    algorithm: str  # "fw" or "sfw"
    svg: bool
    solve: Callable[[int], tuple]


def _parse_run(merged: dict, command: str) -> _RunSpec:
    """Validate the options of ``run-fw``, ``run-sfw`` and ``sweep``."""
    problem = _load_problem(merged)
    n_iters = _int_option(merged, "iters", 1 if command == "sweep" else 0)
    algorithm = {"run-fw": "fw", "run-sfw": "sfw"}.get(command) or merged.get("algorithm", "sfw")
    if algorithm not in ("fw", "sfw"):
        raise ConfigError(f"unknown algorithm {algorithm!r} (expected fw or sfw)")
    stopping = _switch(merged, "stopping_time", False)
    schedule = _text(merged, "schedule")
    if stopping and algorithm != "sfw":
        raise ConfigError("--stopping-time implies the sfw algorithm")
    if schedule is not None and algorithm != "sfw":
        raise ConfigError("--schedule implies the sfw algorithm")
    if stopping and schedule is not None:
        raise ConfigError("--stopping-time chooses its own draw counts; drop --schedule")
    rule_name = merged.get("rule", "canonical")
    foreign, solver = ("ls-sfw", "stochastic") if algorithm == "fw" else ("ls-fw", "deterministic")
    if rule_name == foreign:
        where = "" if command == "sweep" else f", not {command}"
        raise ConfigError(f"the {foreign} rule drives the {solver} solver{where}")
    rule = parse_rule(rule_name, problem)
    schedule = parse_schedule(schedule or "const:1")
    keep_if_worse = _switch(merged, "keep_if_worse", True)

    def solve(seed: int):
        if algorithm == "fw":
            profile, records = fw_run(problem, n_iters, rule=rule)
        elif stopping:
            profile, records = stopping_time_run(problem, n_iters, seed)
        else:
            profile, records = sfw_run(problem, n_iters, schedule, seed, rule=rule,
                                       keep_if_worse=keep_if_worse)
        return profile, _rows(records)

    return _RunSpec(problem, n_iters, algorithm, _switch(merged, "svg", False), solve)


# --- subcommands ----------------------------------------------------------


def cmd_generate(merged: dict) -> int:
    m = _int_option(merged, "m", 1)
    n = _int_option(merged, "n", 1)
    seed = _int_option(merged, "seed", 0)
    out = _text(merged, "out", required=True)
    instance = generate(m, n, seed)
    save_instance(instance, out)
    constants = compute_constants(instance)
    print(f"instance written to {out}")
    print(f"M={m} N={n} seed={seed}")
    print(f"C0 = {constants.c0:.6g}")
    print(f"C1 = {constants.c1:.6g}")
    print(f"basic gap bound C1/(2N) = {gap_bound_basic(constants):.6g}")
    print(f"refined gap bound D[q^N]/(2N^2) = {gap_bound_refined(constants):.6g}")
    return EXIT_OK


_CHARTS = {  # algorithm -> (series label, title)
    "fw": ("relaxed gap", "Frank-Wolfe convergence"),
    "sfw": ("objective gap", "Stochastic Frank-Wolfe convergence"),
}


def cmd_run(merged: dict, command: str) -> int:
    """``run-fw`` and ``run-sfw``: one seed, one CSV, an optional chart."""
    spec = _parse_run(merged, command)
    seeds = parse_seeds(merged.get("seeds", "0"))
    if len(seeds) != 1:
        raise ConfigError(f"{command} takes exactly one seed")
    name = spec.algorithm
    select_n = _int_option(merged, "select_n", 0, default=0) if name == "fw" else 0
    out_dir = _text(merged, "out", required=True)
    csv_path = os.path.join(out_dir, f"{name}.csv")
    if spec.n_iters == 0:
        write_csv(csv_path, [])
        print(f"empty run: wrote header-only {csv_path}")
        return EXIT_OK
    profile, rows = spec.solve(seeds[0])
    write_csv(csv_path, rows)
    final = rows[-1]
    if name == "fw":
        print(f"fw: {spec.n_iters} iterations, final relaxed objective {final['value']:.6g}, "
              f"final dual gap {final['beta']:.3g}")
    else:
        print(f"sfw: {spec.n_iters} iterations, final objective {final['value']:.6g}")
    print(f"wrote {csv_path}")

    if select_n > 0:
        decisions, value = select_best(
            spec.problem, profile, select_n,
            _rng.stream(seeds[0], _rng.SELECTION, 0, spec.n_iters),
        )
        print(f"selection over {select_n} draws: J = {value:.6g}")
    if spec.svg:
        reference = _reference_value(spec.problem)
        label, title = _CHARTS[name]
        gaps = [row["value"] - reference for row in rows]
        render_line_chart(os.path.join(out_dir, f"{name}.svg"),
                          [(label, [row["k"] for row in rows], gaps)], title)
    return EXIT_OK


def cmd_sweep(merged: dict) -> int:
    spec = _parse_run(merged, "sweep")
    seeds = parse_seeds(_require(merged, "seeds"))
    out_dir = _text(merged, "out", required=True)
    reference = _reference_value(spec.problem)

    fw_rows = spec.solve(seeds[0])[1] if spec.algorithm == "fw" else None  # FW reads no seed
    per_seed = []
    for seed in seeds:
        rows = fw_rows if fw_rows is not None else spec.solve(seed)[1]
        write_csv(os.path.join(out_dir, f"seed_{seed}.csv"), rows)
        per_seed.append(np.array([row["value"] - reference for row in rows]))

    summary = [  # one row per iteration k, over the (seeds, iterations + 1) gaps
        {"k": k, "mean": float(column.mean()),
         "std": float(column.std(ddof=1)) if len(seeds) > 1 else 0.0,
         "min": float(column.min()), "max": float(column.max()), "count": len(seeds)}
        for k, column in enumerate(np.stack(per_seed).T)
    ]
    summary_path = os.path.join(out_dir, "summary.csv")
    write_csv(summary_path, summary, SUMMARY_COLUMNS)
    print(f"swept {len(seeds)} seeds; wrote {summary_path}")
    if spec.svg:
        ks = [row["k"] for row in summary]
        render_line_chart(
            os.path.join(out_dir, "sweep.svg"),
            [(f"{stat} gap", ks, [row[stat] for row in summary]) for stat in ("mean", "max")],
            f"{spec.algorithm} sweep over {len(seeds)} seeds",
        )
    return EXIT_OK


def _parse_float_list(value, fallback: list[float]) -> list[float]:
    if value is None:
        return fallback
    parts = _split_list(value)
    if any(isinstance(v, bool) for v in parts):
        raise ConfigError(f"bad number list {value!r}: true and false are not numbers")
    try:
        return [float(v) for v in parts] or fallback
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad number list {value!r}: {exc}") from exc


def cmd_bounds(merged: dict) -> int:
    problem = _load_problem(merged)
    constants = compute_constants(problem)
    n, c0, c1 = constants.n_agents, constants.c0, constants.c1
    n_iters = _int_option(merged, "iters", 1, default=min(2 * n, 200))
    schedule_text = _text(merged, "schedule") or "const:1"
    out = _text(merged, "out")
    schedule = parse_schedule(schedule_text)
    basic = gap_bound_basic(constants)
    eps_list = _parse_float_list(merged.get("eps"), [basic])
    if any(not 0 <= eps < math.inf for eps in eps_list):
        raise ConfigError(f"epsilons must be finite and nonnegative, got {eps_list}")
    zeta_list = _parse_float_list(merged.get("zeta"), [0.1])
    if any(not 0 < z < 1 for z in zeta_list):
        raise ConfigError(f"confidence levels must lie in (0, 1), got {zeta_list}")

    v_k, m_k = sfw_tail_constants(n_iters, c0, schedule, n)
    refined = gap_bound_refined(constants)
    k = min(n_iters, n)
    selection_tails = [mcdiarmid_tail(n, eps, c0) for eps in eps_list]
    draws = [sample_size_for_confidence(k, n, zeta, c0, c1) for zeta in zeta_list]
    expectation = 4.0 * c1 / n_iters
    sfw_tails = [sfw_tail(n_iters, eps, n, c0, schedule) for eps in eps_list]
    quadratic = isinstance(schedule, QuadraticSchedule)
    success = 1.0 - math.exp(-schedule.a / 12.0) if quadratic else None

    print(f"constants: C0 = {c0:.6g}, C1 = {c1:.6g} "
          f"(N={n}, M={problem.n_blocks}, q={constants.total_dim})")
    print(f"randomization gap  C1/(2N)        = {basic:.6g}")
    print(f"randomization gap  D[q^N]/(2N^2)  = {refined:.6g}")
    for eps, tail in zip(eps_list, selection_tails):
        print(f"selection tail     exp(-2N eps^2/C0^2) @ eps={eps:g} = {tail:.6g}")
    for zeta, count in zip(zeta_list, draws):
        print(f"selection draws    n(zeta={zeta:g}, k={k}) = {count}")
    print(f"sfw expectation    4 C1/K @ K={n_iters} = {expectation:.6g}")
    print(f"sfw tail constants v_K = {v_k:.6g}, m_K = {m_k:.6g} (schedule {schedule_text})")
    for eps, tail in zip(eps_list, sfw_tails):
        print(f"sfw tail           @ eps={eps:g} = {tail:.6g}")
    if quadratic:
        print(f"sfw schedule success probability 1-exp(-A/12) = {success:.6g}")
    if out:
        report = {
            "n_agents": n,
            "n_blocks": problem.n_blocks,
            "total_dim": constants.total_dim,
            "c0": c0,
            "c1": c1,
            "gap_bound_basic": basic,
            "gap_bound_refined": refined,
            "selection_tail": dict(zip(map(str, eps_list), selection_tails)),
            "selection_sample_size": dict(zip(map(str, zeta_list), draws)),
            "sfw": {
                "iterations": n_iters,
                "schedule": schedule_text,
                "v_K": v_k,
                "m_K": m_k,
                "expectation_bound": expectation,
                "tail": dict(zip(map(str, eps_list), sfw_tails)),
                **({"success_probability": success} if quadratic else {}),
            },
        }
        write_atomic(out, json.dumps(report, indent=2) + "\n")
        print(f"wrote {out}")
    return EXIT_OK


# --- argument parsing -------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aggfw",
        description="Frank-Wolfe solvers for large-scale aggregative optimization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="draw and store a benchmark instance")
    gen.add_argument("--m", type=int, help="number of aggregate blocks M")
    gen.add_argument("--n", type=int, help="number of agents N")
    gen.add_argument("--seed", type=int, help="instance seed")
    gen.add_argument("--out", help="output JSON path")
    gen.add_argument("--config", help="JSON config file (command line wins)")

    def add_run_options(p):
        p.add_argument("--instance", help="instance JSON path")
        p.add_argument("--iters", type=int, help="iteration count K")
        p.add_argument("--seeds", help="comma-separated seed list")
        p.add_argument("--rule", choices=("canonical", "ls-fw", "ls-sfw"),
                       help="step-size rule")
        p.add_argument("--select-n", dest="select_n", type=int,
                       help="selection draws after the run (run-fw)")
        p.add_argument("--schedule", help="candidate draws: const:n or quad:A")
        p.add_argument("--keep-if-worse", dest="keep_if_worse",
                       action=argparse.BooleanOptionalAction,
                       help="keep the iterate when all candidates are worse")
        p.add_argument("--stopping-time", dest="stopping_time",
                       action=argparse.BooleanOptionalAction,
                       help="draw candidates until the acceptance inequality holds")
        p.add_argument("--out", help="output directory")
        p.add_argument("--svg", action=argparse.BooleanOptionalAction,
                       help="also render an SVG chart")
        p.add_argument("--config", help="JSON config file (command line wins)")

    add_run_options(sub.add_parser("run-fw", help="one deterministic Frank-Wolfe run"))
    add_run_options(sub.add_parser("run-sfw", help="one stochastic Frank-Wolfe run"))

    sweep = sub.add_parser("sweep", help="multi-seed runs with mean/std aggregation")
    add_run_options(sweep)
    sweep.add_argument("--algorithm", choices=("fw", "sfw"), help="solver to sweep")

    bounds = sub.add_parser("bounds", help="print the certificate report")
    bounds.add_argument("--instance", help="instance JSON path")
    bounds.add_argument("--iters", type=int, help="iteration count K for the bounds")
    bounds.add_argument("--schedule", help="candidate draws: const:n or quad:A")
    bounds.add_argument("--eps", help="comma-separated epsilon list")
    bounds.add_argument("--zeta", help="comma-separated confidence levels")
    bounds.add_argument("--out", help="JSON report path")
    bounds.add_argument("--config", help="JSON config file (command line wins)")

    return parser


_DISPATCH = {
    "generate": cmd_generate,
    "run-fw": functools.partial(cmd_run, command="run-fw"),
    "run-sfw": functools.partial(cmd_run, command="run-sfw"),
    "sweep": cmd_sweep,
    "bounds": cmd_bounds,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        merged = _merge_config(args)
        return _DISPATCH[args.command](merged)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:  # an output path that cannot be written
        print(f"config error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ReferenceSolverError, ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
