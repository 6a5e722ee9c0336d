import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import aggfw
from aggfw.bounds import (
    compute_constants,
    gap_bound_basic,
    gap_bound_refined,
    mcdiarmid_tail,
    sfw_tail_constants,
)
from aggfw.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main, render_line_chart
from aggfw.miqp import ReferenceSolverError
from aggfw.stochastic_fw import QuadraticSchedule


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


@pytest.fixture()
def instance_path(tmp_path):
    path = tmp_path / "instance.json"
    assert main(["generate", "--m", "4", "--n", "12", "--seed", "3",
                 "--out", str(path)]) == EXIT_OK
    return path


class TestGenerate:
    def test_writes_loadable_instance(self, instance_path, capsys):
        instance = aggfw.load_instance(str(instance_path))
        expected = aggfw.generate(4, 12, seed=3)
        np.testing.assert_array_equal(instance.matrix, expected.matrix)
        np.testing.assert_array_equal(instance.target, expected.target)

    def test_prints_certificates(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        main(["generate", "--m", "3", "--n", "8", "--seed", "0", "--out", str(path)])
        out = capsys.readouterr().out
        assert "C0" in out and "C1" in out and "gap bound" in out

    def test_creates_the_output_directory(self, tmp_path):
        path = tmp_path / "new" / "dir" / "inst.json"
        assert main(["generate", "--m", "2", "--n", "5", "--seed", "1",
                     "--out", str(path)]) == EXIT_OK
        assert aggfw.load_instance(str(path)).n_agents == 5

    def test_missing_output_is_config_error(self, capsys):
        assert main(["generate", "--m", "3", "--n", "8", "--seed", "0"]) == EXIT_CONFIG

    def test_one_by_one_constants_match_hand_formula(self, tmp_path, capsys):
        path = tmp_path / "tiny.json"
        assert main(["generate", "--m", "1", "--n", "1", "--seed", "4",
                     "--out", str(path)]) == EXIT_OK
        instance = aggfw.load_instance(str(path))
        constants = compute_constants(instance)
        a = float(instance.matrix[0, 0])
        t = float(instance.target[0])
        assert constants.c1 == pytest.approx(2.0 * a * a, rel=1e-12)
        assert constants.c0 == pytest.approx(2.0 * max(abs(0.0 - t), abs(a - t)) * a, rel=1e-12)
        assert f"{constants.c1:.6g}" in capsys.readouterr().out


class TestRunFw:
    def test_csv_layout_and_reproducibility(self, tmp_path, instance_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["run-fw", "--instance", str(instance_path), "--iters", "30",
                "--rule", "ls-fw", "--seeds", "0"]
        assert main(args + ["--out", str(out_a)]) == EXIT_OK
        assert main(args + ["--out", str(out_b)]) == EXIT_OK
        header_a, rows_a = read_csv(out_a / "fw.csv")
        header_b, rows_b = read_csv(out_b / "fw.csv")
        assert header_a == ["k", "value", "beta", "omega", "n_k", "active_count", "wall_ms"]
        assert len(rows_a) == 31  # 30 iterations plus the terminal row
        for ra, rb in zip(rows_a, rows_b):
            for col in ("k", "value", "beta", "omega", "n_k", "active_count"):
                assert ra[col] == rb[col]
        assert rows_a[-1]["omega"] == ""  # terminal sentinel
        assert all(row["n_k"] == "" for row in rows_a)

    def test_zero_iterations_header_only(self, tmp_path, instance_path):
        out = tmp_path / "empty"
        assert main(["run-fw", "--instance", str(instance_path), "--iters", "0",
                     "--out", str(out)]) == EXIT_OK
        header, rows = read_csv(out / "fw.csv")
        assert rows == []

    def test_selection_report(self, tmp_path, instance_path, capsys):
        out = tmp_path / "sel"
        assert main(["run-fw", "--instance", str(instance_path), "--iters", "12",
                     "--seeds", "5", "--select-n", "50", "--out", str(out)]) == EXIT_OK
        assert "selection over 50 draws" in capsys.readouterr().out

    def test_svg_render(self, tmp_path, instance_path):
        out = tmp_path / "chart"
        assert main(["run-fw", "--instance", str(instance_path), "--iters", "12",
                     "--out", str(out), "--svg"]) == EXIT_OK
        svg = (out / "fw.svg").read_text()
        assert 'viewBox="0 0 800 600"' in svg and "<polyline" in svg

    def test_sfw_rule_is_rejected(self, tmp_path, instance_path):
        assert main(["run-fw", "--instance", str(instance_path), "--iters", "5",
                     "--rule", "ls-sfw", "--out", str(tmp_path / "x")]) == EXIT_CONFIG

    def test_multiple_seeds_rejected(self, tmp_path, instance_path):
        assert main(["run-fw", "--instance", str(instance_path), "--iters", "5",
                     "--seeds", "0,1", "--out", str(tmp_path / "x")]) == EXIT_CONFIG

    def test_fractional_instance_dimensions_are_config_errors(self, tmp_path, capsys):
        path = tmp_path / "fractional.json"
        path.write_text(json.dumps({"M": 2.9, "N": 3.5, "seed": 0, "A": [0.5] * 6,
                                    "ybar": [1.0, 1.0]}))
        assert main(["run-fw", "--instance", str(path), "--iters", "5",
                     "--out", str(tmp_path / "fw.csv")]) == EXIT_CONFIG
        assert "M must be an integer" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, tmp_path, instance_path, monkeypatch):
        monkeypatch.setattr(
            aggfw.MiqpInstance, "relaxed_optimum",
            lambda self, tol=1e-9: (_ for _ in ()).throw(
                ReferenceSolverError("stalled", residual=1.0)
            ),
        )
        assert main(["run-fw", "--instance", str(instance_path), "--iters", "5",
                     "--out", str(tmp_path / "x"), "--svg"]) == EXIT_NUMERICAL


class TestRunSfw:
    def test_csv_contains_draw_columns(self, tmp_path, instance_path):
        out = tmp_path / "sfw"
        assert main(["run-sfw", "--instance", str(instance_path), "--iters", "10",
                     "--schedule", "const:4", "--seeds", "1", "--out", str(out)]) == EXIT_OK
        _, rows = read_csv(out / "sfw.csv")
        assert len(rows) == 11
        assert all(row["n_k"] == "4" for row in rows[:-1])
        assert rows[-1]["n_k"] == ""

    def test_reruns_are_identical_outside_wall_ms(self, tmp_path, instance_path):
        args = ["run-sfw", "--instance", str(instance_path), "--iters", "15",
                "--schedule", "quad:24", "--seeds", "7"]
        assert main(args + ["--out", str(tmp_path / "a")]) == EXIT_OK
        assert main(args + ["--out", str(tmp_path / "b")]) == EXIT_OK
        _, rows_a = read_csv(tmp_path / "a" / "sfw.csv")
        _, rows_b = read_csv(tmp_path / "b" / "sfw.csv")
        for ra, rb in zip(rows_a, rows_b):
            for col in ("k", "value", "beta", "omega", "n_k", "active_count"):
                assert ra[col] == rb[col]

    def test_stopping_time_flag(self, tmp_path, instance_path):
        out = tmp_path / "stop"
        assert main(["run-sfw", "--instance", str(instance_path), "--iters", "8",
                     "--stopping-time", "--seeds", "2", "--out", str(out)]) == EXIT_OK
        _, rows = read_csv(out / "sfw.csv")
        assert all(int(row["n_k"]) >= 1 for row in rows[:-1])

    def test_stopping_time_with_schedule_is_config_error(self, tmp_path, instance_path):
        assert main(["run-sfw", "--instance", str(instance_path), "--iters", "8",
                     "--stopping-time", "--schedule", "const:2", "--seeds", "2",
                     "--out", str(tmp_path / "x")]) == EXIT_CONFIG

    def test_line_search_rule(self, tmp_path, instance_path):
        out = tmp_path / "ls"
        assert main(["run-sfw", "--instance", str(instance_path), "--iters", "6",
                     "--rule", "ls-sfw", "--schedule", "const:3", "--out", str(out)]) == EXIT_OK
        _, rows = read_csv(out / "sfw.csv")
        assert all(float(row["beta"]) >= -1e-9 for row in rows[:-1])  # a full solve each step

    def test_bad_schedule_is_config_error(self, tmp_path, instance_path):
        assert main(["run-sfw", "--instance", str(instance_path), "--iters", "8",
                     "--schedule", "cubic:3", "--seeds", "2",
                     "--out", str(tmp_path / "x")]) == EXIT_CONFIG


class TestSweep:
    def test_summary_matches_per_seed_files(self, tmp_path, instance_path):
        out = tmp_path / "sweep"
        assert main(["sweep", "--instance", str(instance_path), "--iters", "12",
                     "--schedule", "const:3", "--seeds", "0,1,2,3",
                     "--out", str(out)]) == EXIT_OK
        instance = aggfw.load_instance(str(instance_path))
        reference = instance.relaxed_optimum(tol=1e-9)
        per_seed = []
        for seed in (0, 1, 2, 3):
            _, rows = read_csv(out / f"seed_{seed}.csv")
            per_seed.append([float(row["value"]) - reference.value for row in rows])
        gaps = np.array(per_seed)
        _, summary = read_csv(out / "summary.csv")
        # summary.csv has its own header: k, mean, std, min, max, count
        lines = (out / "summary.csv").read_text().strip().split("\n")
        assert lines[0] == "k,mean,std,min,max,count"
        for k, line in enumerate(lines[1:]):
            fields = line.split(",")
            assert abs(float(fields[1]) - gaps[:, k].mean()) <= 1e-12
            assert abs(float(fields[2]) - gaps[:, k].std(ddof=1)) <= 1e-12
            assert abs(float(fields[3]) - gaps[:, k].min()) <= 1e-12
            assert abs(float(fields[4]) - gaps[:, k].max()) <= 1e-12
            assert fields[5] == "4"

    def test_fw_sweep_runs(self, tmp_path, instance_path):
        out = tmp_path / "fwsweep"
        assert main(["sweep", "--instance", str(instance_path), "--algorithm", "fw",
                     "--iters", "10", "--seeds", "0,1", "--out", str(out)]) == EXIT_OK
        assert (out / "summary.csv").exists()

    def test_fw_sweep_runs_fw_once_for_every_seed(self, tmp_path, instance_path, monkeypatch):
        calls, fw_run = [], aggfw.cli.fw_run

        def counted(*args, **kwargs):
            calls.append(args)
            return fw_run(*args, **kwargs)

        monkeypatch.setattr(aggfw.cli, "fw_run", counted)
        out = tmp_path / "fwsweep"
        assert main(["sweep", "--instance", str(instance_path), "--algorithm", "fw",
                     "--iters", "6", "--seeds", "0,1,2", "--out", str(out)]) == EXIT_OK
        assert len(calls) == 1
        first = (out / "seed_0.csv").read_bytes()
        assert (out / "seed_1.csv").read_bytes() == first == (out / "seed_2.csv").read_bytes()

    def test_svg_render(self, tmp_path, instance_path):
        out = tmp_path / "svgsweep"
        assert main(["sweep", "--instance", str(instance_path), "--iters", "6",
                     "--schedule", "const:2", "--seeds", "0,1", "--svg",
                     "--out", str(out)]) == EXIT_OK
        svg = (out / "sweep.svg").read_text()
        assert svg.count("<polyline") == 2  # mean and max gap

    def test_stopping_time_requires_sfw(self, tmp_path, instance_path):
        assert main(["sweep", "--instance", str(instance_path), "--algorithm", "fw",
                     "--iters", "10", "--seeds", "0", "--stopping-time",
                     "--out", str(tmp_path / "x")]) == EXIT_CONFIG


class TestBounds:
    def test_report_values_match_module_functions(self, tmp_path, instance_path, capsys):
        report_path = tmp_path / "report.json"
        assert main(["bounds", "--instance", str(instance_path), "--iters", "20",
                     "--schedule", "quad:24", "--eps", "0.5,1.0", "--zeta", "0.1",
                     "--out", str(report_path)]) == EXIT_OK
        report = json.loads(report_path.read_text())
        instance = aggfw.load_instance(str(instance_path))
        constants = compute_constants(instance)
        assert report["c0"] == pytest.approx(constants.c0, rel=1e-12)
        assert report["gap_bound_basic"] == pytest.approx(gap_bound_basic(constants), rel=1e-12)
        assert report["gap_bound_refined"] == pytest.approx(
            gap_bound_refined(constants), rel=1e-12
        )
        assert report["gap_bound_refined"] <= report["gap_bound_basic"]
        assert report["selection_tail"]["0.5"] == pytest.approx(
            mcdiarmid_tail(12, 0.5, constants.c0), rel=1e-12
        )
        v_k, m_k = sfw_tail_constants(20, constants.c0, QuadraticSchedule(24.0), 12)
        assert report["sfw"]["v_K"] == pytest.approx(v_k, rel=1e-12)
        assert report["sfw"]["m_K"] == pytest.approx(m_k, rel=1e-12)
        assert report["sfw"]["success_probability"] == pytest.approx(
            1.0 - math.exp(-2.0), rel=1e-12
        )
        out = capsys.readouterr().out
        assert "C0" in out and "v_K" in out

    def test_repeated_entries_print_each_and_store_one_key(self, tmp_path, instance_path, capsys):
        report_path = tmp_path / "r.json"
        assert main(["bounds", "--instance", str(instance_path), "--eps", "0.5,0.5",
                     "--zeta", "0.1,0.1", "--out", str(report_path)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        report = json.loads(report_path.read_text())
        for prefix, values in [("selection tail ", report["selection_tail"]),
                               ("selection draws ", report["selection_sample_size"]),
                               ("sfw tail  ", report["sfw"]["tail"])]:
            printed = [line.rsplit(" = ", 1)[1] for line in lines if line.startswith(prefix)]
            assert len(printed) == 2 and len(values) == 1
            value = next(iter(values.values()))
            assert printed == [str(value) if isinstance(value, int) else f"{value:.6g}"] * 2
        assert list(report["selection_tail"]) == list(report["sfw"]["tail"]) == ["0.5"]
        assert list(report["selection_sample_size"]) == ["0.1"]

    def test_missing_instance_is_config_error(self, tmp_path):
        assert main(["bounds", "--instance", str(tmp_path / "nope.json")]) == EXIT_CONFIG


class TestMisuse:
    """Every misuse exits 2, whichever subcommand it reaches."""

    @pytest.mark.parametrize(
        "args",
        [
            ["run-fw", "--iters", "-1"],
            ["run-sfw", "--iters", "-1"],
            ["sweep", "--iters", "0", "--seeds", "0"],
            ["bounds", "--iters", "-3"],
            ["bounds", "--iters", "0"],
            ["run-fw", "--iters", "5", "--stopping-time"],
            ["run-fw", "--iters", "5", "--schedule", "const:3"],
            ["sweep", "--iters", "5", "--seeds", "0", "--stopping-time",
             "--schedule", "const:3"],
            ["run-sfw", "--iters", "5", "--rule", "ls-fw"],
            ["sweep", "--iters", "5", "--seeds", "0", "--algorithm", "fw",
             "--rule", "ls-sfw"],
            ["run-sfw", "--iters", "5", "--seeds", "-1"],
            ["sweep", "--iters", "5", "--seeds", "1,1,1"],
            ["sweep", "--iters", "5", "--seeds", "0,2,0"],
            ["run-sfw", "--iters", "5", "--schedule", "quad:nan"],
            ["run-sfw", "--iters", "5", "--schedule", "quad:inf"],
            ["bounds", "--schedule", "quad:nan"],
            ["bounds", "--eps", "-1"],
            ["bounds", "--eps", "nan"],
            ["bounds", "--eps", "0.5,inf"],
            ["bounds", "--eps", "x"],
            ["bounds", "--zeta", "2"],
            ["run-sfw", "--iters", "5", "--seeds", ","],
            ["run-fw", "--iters", "5", "--select-n", "-3"],
        ],
    )
    def test_bad_options_are_config_errors(self, tmp_path, instance_path, args, capsys):
        args = args + ["--instance", str(instance_path)]
        if args[0] != "bounds":
            args += ["--out", str(tmp_path / "x")]
        assert main(args) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--m", "0"), ("--n", "0"), ("--seed", "-2")])
    def test_bad_generate_options_are_config_errors(self, tmp_path, flag, value, capsys):
        args = {"--m": "3", "--n": "5", "--seed": "0"}
        args[flag] = value
        argv = ["generate", "--out", str(tmp_path / "inst.json")]
        argv += [part for item in args.items() for part in item]
        assert main(argv) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "inst.json").exists()

    @pytest.mark.parametrize(
        "command, entry",
        [
            ("generate", {"m": "x"}),
            ("generate", {"m": 3.9}),
            ("generate", {"seed": True}),
            ("run-fw", {"select_n": "many"}),
            ("run-fw", {"select_n": 2.5}),
            ("run-sfw", {"iters": True}),
            ("run-sfw", {"seeds": [0.5]}),
            ("run-sfw", {"stopping_time": "false"}),
            ("run-sfw", {"keep_if_worse": 1}),
            ("sweep", {"svg": "yes"}),
            ("run-sfw", {"schedule": 5}),
            ("run-sfw", {"schedule": ["const:2"]}),
            ("bounds", {"schedule": 5}),
            ("bounds", {"eps": [True]}),
            ("bounds", {"eps": [0.5, False]}),
            ("bounds", {"zeta": [True]}),
            ("generate", {"out": 5}),
            ("run-fw", {"out": 5}),
            ("bounds", {"out": 5}),
            ("run-fw", {"instance": ["a"]}),
            ("run-fw", {"instance": 3}),  # not file descriptor 3
            ("bounds", {"out": ""}),
            ("run-sfw", {"schedule": ""}),
            ("run-sfw", {"rule": "newton"}),
            ("sweep", {"algorithm": "gd"}),
        ],
    )
    def test_mistyped_config_values_are_config_errors(
        self, tmp_path, instance_path, command, entry, capsys
    ):
        if command == "generate":
            config = {"m": 3, "n": 5, "seed": 0, "out": str(tmp_path / "inst.json")}
        else:
            config = {"instance": str(instance_path), "iters": 3, "seeds": "0",
                      "out": str(tmp_path / "x")}
        config.update(entry)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main([command, "--config", str(path)]) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "inst.json").exists() and not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "entries, named",
        [
            ({"rule": "newton", "schedule": "quad:-1"}, "unknown step rule 'newton'"),
            ({"schedule": "quad:-1", "svg": "yes"}, "bad schedule parameter in 'quad:-1'"),
            ({"schedule": "quad:-1", "keep_if_worse": 1}, "bad schedule parameter"),
            ({"keep_if_worse": 1, "svg": "yes"}, "--keep-if-worse must be true or false"),
        ],
    )
    def test_the_first_bad_run_option_is_named(
        self, tmp_path, instance_path, entries, named, capsys
    ):
        """The rule, the schedule, --keep-if-worse and --svg are checked in that order."""
        config = {"instance": str(instance_path), "iters": 3, "out": str(tmp_path / "x")}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config | entries))
        assert main(["run-sfw", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and named in err
        assert err.count("\n") == 1 and not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["run-fw", "--iters", "3", "--out", ""],
            ["run-sfw", "--iters", "3", "--out", ""],
            ["sweep", "--iters", "3", "--seeds", "0", "--out", ""],
            ["bounds", "--out", ""],
            ["run-sfw", "--iters", "3", "--schedule", "", "--out", "x"],
            ["run-sfw", "--iters", "3", "--stopping-time", "--schedule", "", "--out", "x"],
            ["bounds", "--schedule", ""],
            ["run-fw", "--iters", "3", "--instance", "", "--out", "x"],
            ["generate", "--m", "3", "--n", "5", "--seed", "0", "--out", ""],
        ],
    )
    def test_empty_path_or_schedule_is_config_error(
        self, tmp_path, instance_path, monkeypatch, args, capsys
    ):
        key = args[args.index("") - 1]
        if args[0] != "generate" and "--instance" not in args:
            args = args + ["--instance", str(instance_path)]
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert main(args) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert f"{key} must be a non-empty string" in captured.err
        assert captured.out == "" and list(work.iterdir()) == []

    def test_config_file_holding_a_json_list_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps([{"iters": 3}]))
        assert main(["run-fw", "--config", str(path)]) == EXIT_CONFIG
        assert "must hold a JSON object" in capsys.readouterr().err

    def test_integer_strings_and_integral_numbers_are_accepted(self, tmp_path, instance_path):
        config = {"instance": str(instance_path), "iters": "5", "seeds": [2.0],
                  "select_n": "3", "keep_if_worse": False, "out": str(tmp_path / "x")}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["run-fw", "--config", str(path)]) == EXIT_OK
        _, rows = read_csv(tmp_path / "x" / "fw.csv")
        assert len(rows) == 6

    def test_run_output_under_a_file_is_config_error(self, tmp_path, instance_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["run-fw", "--instance", str(instance_path), "--iters", "3",
                     "--out", str(blocker)]) == EXIT_CONFIG
        assert "cannot write output" in capsys.readouterr().err

    def test_report_onto_a_directory_is_config_error(self, tmp_path, instance_path, capsys):
        (tmp_path / "report").mkdir()
        assert main(["bounds", "--instance", str(instance_path),
                     "--out", str(tmp_path / "report")]) == EXIT_CONFIG
        assert "cannot write output" in capsys.readouterr().err
        assert not (tmp_path / "report.tmp").exists()

    def test_instance_onto_a_directory_is_config_error(self, tmp_path, capsys):
        (tmp_path / "inst").mkdir()
        assert main(["generate", "--m", "3", "--n", "5", "--seed", "0",
                     "--out", str(tmp_path / "inst")]) == EXIT_CONFIG
        assert "cannot write output" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["inst"]


GOLDEN = Path(__file__).parent / "golden"


class TestChart:
    """``render_line_chart`` on fixed series whose branches no command reaches."""

    @pytest.mark.parametrize(
        "name, series",
        [
            # no positive point: the log-log axes fall back to linear ones
            ("chart_linear_fallback",
             [("no positive point", [0, 1, 2, 3], [-1 / 3, 0.0, -0.1, math.nan])]),
            ("chart_no_finite_point", [("nothing", [1, 2], [math.nan, math.inf])]),
            # a constant series: its axis is widened by half a decade each way
            ("chart_constant", [("flat", [1, 2, 4, 8], [0.25, 0.25, 0.25, 0.25])]),
            # three series: three palette colours and three legend rows
            ("chart_three_series",
             [("a", [1, 2, 3], [1.0, 0.1, 0.01]), ("b", [1, 2, 3], [2.0, 0.5, 0.125]),
              ("c", [1, 2, 3], [0.5, 0.3, 0.2])]),
        ],
    )
    def test_bytes(self, tmp_path, capsys, name, series):
        path = tmp_path / f"{name}.svg"
        render_line_chart(str(path), series, title=name)
        assert capsys.readouterr().out == f"wrote {path}\n"
        assert path.read_text(encoding="utf-8") == (GOLDEN / f"{name}.svg").read_text(
            encoding="utf-8"
        )


class TestConfigFile:
    def test_config_supplies_defaults_and_cli_wins(self, tmp_path, instance_path):
        config = {
            "instance": str(instance_path),
            "iters": 5,
            "schedule": "const:2",
            "seeds": "9",
            "out": str(tmp_path / "from_config"),
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        assert main(["run-sfw", "--config", str(config_path)]) == EXIT_OK
        assert (tmp_path / "from_config" / "sfw.csv").exists()
        # The command line overrides the config's output directory.
        assert main(["run-sfw", "--config", str(config_path),
                     "--out", str(tmp_path / "override")]) == EXIT_OK
        assert (tmp_path / "override" / "sfw.csv").exists()

    def test_unreadable_config_is_config_error(self, tmp_path):
        assert main(["run-sfw", "--config", str(tmp_path / "missing.json")]) == EXIT_CONFIG


def run_module(*args):
    """``python -m aggfw`` in a subprocess, importing the same aggfw as this test."""
    env = dict(os.environ, PYTHONPATH=str(Path(aggfw.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "aggfw", *args], env=env, capture_output=True, text=True, timeout=120,
    )


class TestModuleEntry:
    def test_help_exits_ok(self):
        result = run_module("--help")
        assert result.returncode == EXIT_OK, result.stderr
        assert result.stdout.startswith("usage:")

    def test_config_error_exits_with_its_code(self, tmp_path):
        path = tmp_path / "instance.json"
        result = run_module("generate", "--m", "0", "--n", "3", "--seed", "0", "--out", str(path))
        assert result.returncode == EXIT_CONFIG == 2
        assert result.stderr.startswith("config error")
        assert not path.exists()

    def test_generate_writes_the_instance(self, tmp_path):
        path = tmp_path / "instance.json"
        result = run_module("generate", "--m", "3", "--n", "5", "--seed", "2", "--out", str(path))
        assert result.returncode == EXIT_OK, result.stderr
        np.testing.assert_array_equal(
            aggfw.load_instance(str(path)).matrix, aggfw.generate(3, 5, seed=2).matrix
        )
