"""Self-tests of the benchmark harness, on cut-down workloads.

    python3 -m pytest -q perfbench
"""
import dataclasses
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from aggfw import frank_wolfe, measures, problems  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str) -> wl.Workload:
    """The workload's call sequence, cut short, on a 20-agent instance."""
    workload = wl.WORKLOADS[name].warmup()
    problem = ("miqp", 5, 20) if workload.problem[0] == "miqp" else ("signs", 20)
    return dataclasses.replace(workload, problem=problem, accuracy=math.inf)


def set_up(workload):
    return wl.prepare(wl.make_instance(workload))


@pytest.mark.parametrize("name", run.NAMES)
def test_same_seed_gives_same_checksum(name):
    workload = tiny(name)
    first = wl.run_pass(workload, set_up(workload), 3)
    second = wl.run_pass(workload, set_up(workload), 3)
    assert first.checksums == second.checksums
    assert len(first.checksums) == len(workload.calls)
    assert first.errors == [[] for _ in workload.calls]


def test_wrong_expected_checksum_is_a_failure():
    workload = tiny("sfw-closed-loop")
    result = wl.run_pass(workload, set_up(workload), 1)
    good = wl.Gate({workload.name: {"1": list(result.checksums)}})
    good.check_pass(workload, result)
    assert (good.attempted, good.failed, good.correct) == (2, 0, True)

    wrong = list(result.checksums)
    wrong[1] = "0" * 16
    bad = wl.Gate({workload.name: {"1": wrong}})
    bad.check_pass(workload, result)
    assert (bad.attempted, bad.failed, bad.correct) == (2, 1, False)
    assert "call 1" in bad.messages[0]


def test_unrecorded_seed_is_a_failure():
    workload = tiny("sfw-dense")
    result = wl.run_pass(workload, set_up(workload), 2)
    gate = wl.Gate({})
    gate.check_pass(workload, result)
    assert gate.failed == 1 and not gate.correct


def test_certificate_violation_is_reported():
    record = frank_wolfe.FwRecord(3, objective=1.5, beta=0.1, omega=0.5, support_sizes=(1,), wall_ms=0.0)
    assert wl.certificate_errors([record], None, reference=1.0)
    assert wl.certificate_errors([record], None, reference=1.45) == []
    assert wl.certificate_errors([], 0.5, reference=1.0)


def _namespace_state():
    modules = [m for n, m in sys.modules.items() if n == "aggfw" or n.startswith("aggfw.")]
    state = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    state[("Aggregate", "__init__")] = problems.Aggregate.__init__
    state[("DiscreteMeasure", "__init__")] = measures.DiscreteMeasure.__init__
    state.update({("workloads", k): v for k, v in vars(wl).items()})
    return state


def test_wrappers_are_removed_after_the_traced_run():
    workload = tiny("fw-select")
    instance = wl.make_instance(workload)
    before = _namespace_state()
    instance_before = dict(vars(instance))
    tracer = tracing.Tracer()
    with tracing.installed(tracer, instance):
        assert frank_wolfe.mix is not before[("aggfw.frank_wolfe", "mix")]
        assert "contribution" in vars(instance)
        wl.run_pass(workload, wl.prepare(instance), 0)
    assert _namespace_state() == before
    assert vars(instance) == instance_before
    assert tracer.spans["miqp.contribution"][0] > 0


def test_wrappers_are_removed_when_the_traced_run_raises():
    workload = tiny("sfw-dense")
    instance = wl.make_instance(workload)
    before = _namespace_state()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer(), instance):
            raise RuntimeError("solver failed")
    assert _namespace_state() == before
    assert "contribution" not in vars(instance)


@pytest.mark.parametrize("name", run.NAMES)
def test_traced_checksums_equal_untraced(name):
    workload = tiny(name)
    instance = wl.make_instance(workload)
    setup = wl.prepare(instance)
    plain = wl.run_pass(workload, setup, 5)
    tracer = tracing.Tracer()
    with tracing.installed(tracer, instance):
        traced = wl.run_pass(workload, setup, 5)
    assert traced.checksums == plain.checksums
    if name == "sfw-dense":
        rows = tracer.counts["stochastic_fw.candidate_rows"]
        assert rows == traced.draws == tracer.counts["miqp.f_value_batch.rows"]
        assert tracer.counts["rng.uniforms"] == rows * instance.n_agents


def test_span_self_time_within_duration():
    tracer = tracing.Tracer()
    inner = tracer.span("inner", lambda: time.sleep(0.002))

    def body():
        inner()
        inner()
        time.sleep(0.002)

    outer = tracer.span("outer", body)
    outer()
    for calls, duration, self_s in tracer.spans.values():
        assert 0.0 <= self_s <= duration
    calls, duration, self_s = tracer.spans["outer"]
    assert calls == 1
    assert self_s == pytest.approx(duration - tracer.spans["inner"][1])
    assert tracer.spans["inner"][0] == 2


def test_metric_names_match_benchmark_json():
    assert [m["name"] for m in BENCHMARK["per_layer"]] == [m[0] for m in tracing.PER_LAYER]
    for entry, (name, unit, better) in zip(BENCHMARK["per_layer"], tracing.PER_LAYER):
        assert (entry["unit"], entry["better"]) == (unit, better)

    workload = tiny("sfw-generic")
    gate = wl.Gate({})
    metrics = run.measure(wl, workload, 0, 0.01, gate)
    assert list(metrics) == [m["name"] for m in BENCHMARK["end_to_end"]]
    for entry in BENCHMARK["end_to_end"]:
        assert metrics[entry["name"]]["unit"] == entry["unit"]
        assert metrics[entry["name"]]["value"] > 0
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.NAMES)

    traced = run.measure_traced(wl, workload, 0, 0.01, wl.Gate({}))
    assert list(traced) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert traced["miqp.contribution.calls"]["value"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sfw-dense", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
