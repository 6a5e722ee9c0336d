"""Benchmark of the aggfw solvers: end-to-end timings or a traced per-module split.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload fw-select --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

With ``--trace 0`` the run sets the workload up several times, warms up,
then runs passes until ``--seconds`` have elapsed and reports the
end-to-end metrics.  With ``--trace 1`` it runs untraced and traced
passes in pairs on the same seeds and reports the per-module metrics and
the tracing overhead.  Every solver call is gated by its recorded
checksum and the paper's certificates; the last line of standard output
is a JSON object, and the exit code is 1 when any call failed a check.
"""
from __future__ import annotations

import os

# One BLAS thread: on two cores OpenBLAS otherwise spins a second thread
# and the timings of the numpy-heavy workloads follow the machine's load.
# Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NAMES = ("fw-select", "sfw-dense", "sfw-closed-loop", "sfw-generic")

# Set-up is timed in batches of at least SETUP_BATCH_S (the signs
# instance sets up in 0.1 ms, too short to time alone), at least
# SETUP_REPEATS times and for at least SETUP_MIN_S.
SETUP_BATCH_S = 0.02
SETUP_REPEATS = 5
SETUP_MIN_S = 1.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def environment() -> str:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = os.environ["OPENBLAS_NUM_THREADS"] + " (requested)"
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        try:
            get = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_int
        threads = str(get())
    return (
        f"python={platform.python_version()} numpy={np.__version__} "
        f"blas={blas.get('name')} {blas.get('version')} blas_threads={threads} "
        f"nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))}"
    )


def percentile(values, q: int) -> float:
    """The q-th percentile, by the inclusive method of ``statistics.quantiles``."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(wl, workload, seed: int, seconds: float, gate) -> dict:
    """End-to-end metrics of one workload, tracing off."""
    def set_up(times: int = 1):
        # One set-up alive at a time, so that peak RSS does not follow the batch size.
        for _ in range(times):
            setup = wl.prepare(wl.make_instance(workload))
        return setup

    setup = set_up()
    gate.check_setup(workload, setup)
    started = time.perf_counter()
    set_up()
    batch = math.ceil(SETUP_BATCH_S / (time.perf_counter() - started))
    setup_times = []
    started = time.perf_counter()
    while len(setup_times) < SETUP_REPEATS or time.perf_counter() - started < SETUP_MIN_S:
        _, seconds_at_ref, _ = wl.probed(set_up, batch)
        setup_times.append(seconds_at_ref / batch)

    wl.run_pass(workload.warmup(), setup, wl.pass_seed(seed, 0))

    results = []
    started = time.perf_counter()
    while not results or time.perf_counter() - started < seconds:
        pass_seed = wl.pass_seed(seed, len(results))
        try:
            result = wl.run_pass(workload, setup, pass_seed)
        except Exception as exc:  # a failing solver call fails the run, not the harness
            gate.fail_pass(workload, pass_seed, exc)
            break
        gate.check_pass(workload, result)
        results.append(result)
    if not results:
        return {}

    iter_ms = [[s * 1e3 for s in r.iter_s] for r in results]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "solve_s": (statistics.median(r.solve_s for r in results), "s"),
        "iter_ms.p50": (statistics.median(percentile(v, 50) for v in iter_ms), "ms"),
        "iter_ms.p95": (statistics.median(percentile(v, 95) for v in iter_ms), "ms"),
        "time_to_cert_s": (
            statistics.median(r.cert_s if r.cert_s is not None else r.solve_s for r in results),
            "s",
        ),
        "select_draws_per_s": (statistics.median(r.draws / r.draw_s for r in results), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    final_gap = statistics.median(r.final_gap for r in results)
    print(
        f"{workload.name}: passes={len(results)} seeds={[r.seed for r in results]} "
        f"setups={len(setup_times)}x{batch} iterations={len(iter_ms[0])}/pass "
        f"speed={statistics.median(x for r in results for x in r.speed):.3f} "
        f"final_gap={final_gap!r} fail_ratio={gate.failed}/{gate.attempted}"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:<20} {value:.6g} {unit}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def measure_traced(wl, workload, seed: int, seconds: float, gate) -> dict:
    """Per-layer metrics: untraced and traced passes in pairs on the same seed."""
    import tracing

    instance = wl.make_instance(workload)
    trace = tracing.Tracer()
    with tracing.installed(trace, instance):
        setup, _, scale = wl.probed(wl.prepare, instance)
    setup_trace = tracing.Tracer()
    setup_trace.merge(trace, scale)
    gate.check_setup(workload, setup)
    wl.run_pass(workload.warmup(), setup, wl.pass_seed(seed, 0))

    pass_trace = tracing.Tracer()
    overheads = []
    started = time.perf_counter()
    while not overheads or time.perf_counter() - started < seconds:
        pass_seed = wl.pass_seed(seed, len(overheads))
        trace = tracing.Tracer()
        try:
            plain = wl.run_pass(workload, setup, pass_seed)
            with tracing.installed(trace, instance):
                traced = wl.run_pass(
                    workload, setup, pass_seed,
                    wrap_callback=lambda cb: trace.span("bench.callback", cb),
                )
        except Exception as exc:  # a failing solver call fails the run, not the harness
            gate.fail_pass(workload, pass_seed, exc)
            break
        pass_trace.merge(trace, statistics.median(traced.speed))
        gate.check_pass(workload, plain)
        gate.check_pass(workload, traced)
        if traced.checksums != plain.checksums:
            gate.fail(f"{workload.name} seed {pass_seed}: traced checksums differ from untraced")
        overheads.append(traced.solve_s - plain.solve_s)
        print(
            f"{workload.name}: seed {pass_seed} solve_s untraced={plain.solve_s:.4f} "
            f"traced={traced.solve_s:.4f} checksums={'equal' if traced.checksums == plain.checksums else 'DIFFERENT'}"
        )
    if not overheads:
        return {}
    metrics = tracing.layer_metrics(
        setup_trace, pass_trace, len(overheads), statistics.median(overheads)
    )
    for name, entry in metrics.items():
        print(f"  {name:<42} {entry['value']:.6g} {entry['unit']}")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "aggfw" / "__init__.py").is_file():
        print(f"error: no aggfw package sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import aggfw
    import workloads as wl

    if not Path(aggfw.__file__).resolve().is_relative_to(SRC):
        print(f"error: aggfw was imported from {aggfw.__file__}, not {SRC}", file=sys.stderr)
        return 2
    expected = wl.load_expected()
    print(f"env: {environment()}")

    names = NAMES if args.workload == "all" else (args.workload,)
    gate = wl.Gate(expected)
    metrics = {}
    for name in names:
        run = measure_traced if args.trace else measure
        result = run(wl, wl.WORKLOADS[name], args.seed, args.seconds, gate)
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + key: entry for key, entry in result.items()})
    for message in gate.messages:
        print(f"FAIL {message}")
    print(f"fail_ratio={gate.failed}/{gate.attempted}")
    print(json.dumps({
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }))
    return 0 if gate.correct else 1


if __name__ == "__main__":
    sys.exit(main())
