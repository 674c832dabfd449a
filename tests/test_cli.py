"""Tests for the command line interface.

Most cases drive ``main`` in process and pin exact printed output; one
subprocess smoke test covers the installed console script.  Exit codes:
0 success, 1 numerical/suite failure, 2 usage or domain error.
"""

import csv
import io
import json
import subprocess
import sys
import warnings

import pytest

from fracpoisson.cli import main
from fracpoisson.distributions import fpp_pmf_mixture
from fracpoisson.processes import paths_from_csv
from fracpoisson.samplers import _ml_waits

MIXTURE_SPEC = '{"variant": "StableMixture", "weights": [0.5, 0.5], "betas": [0.4, 0.8]}'


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["eval", "mlf", "--beta", "0.5", "--z", "-1"], "0.427583576156\n"),
            (["eval", "mlf", "--beta", "1.0", "--z", "-1"], "0.367879441171\n"),
            (
                ["eval", "prabhakar", "--gamma", "2", "--alpha", "0.6",
                 "--theta", "1.6", "--z", "-0.5"],
                "0.532038456378\n",
            ),
            (
                ["eval", "caputo", "--beta", "0.5", "--t", "1.0", "--step",
                 "0.25", "--values", "0,0.25,0.5,0.75,1.0"],
                "1.1283791671\n",
            ),
        ],
    )
    def test_golden_outputs(self, argv, expected, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 0
        assert out == expected
        assert err == ""

    def test_density_value(self, capsys):
        import math

        code, out, _ = run_cli(
            ["eval", "density", "--beta", "0.5", "--x", "1.0", "--t", "1.0"],
            capsys,
        )
        assert code == 0
        # closed form exp(-x**2/4t)/sqrt(pi t); printed via quadrature route
        assert float(out) == pytest.approx(
            math.exp(-0.25) / math.sqrt(math.pi), rel=1e-10
        )

    def test_missing_flags_usage_error(self, capsys):
        code, out, err = run_cli(["eval", "mlf", "--beta", "0.5"], capsys)
        assert code == 2
        assert out == ""
        assert "--z" in err

    def test_domain_error_maps_to_two(self, capsys):
        code, _, err = run_cli(
            ["eval", "mlf", "--beta", "1.5", "--z", "-1"], capsys
        )
        assert code == 2
        assert "error:" in err


class TestPmf:
    def test_csv_golden_row(self, capsys):
        code, out, _ = run_cli(
            ["pmf", "--beta", "0.5", "--lambda", "1", "--t", "1"], capsys
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "n,prob"
        n0, p0 = lines[2].split(",")
        assert n0 == "0"
        assert float(p0) == pytest.approx(0.42758357615580694, rel=1e-10)

    def test_small_beta_table_near_the_series_switch(self, capsys):
        # z = 16**0.1 = 1.3195 sits just inside the series switch at
        # beta = 0.1, where the Mittag-Leffler series once ran out of terms;
        # its rounding there is 5e-9 against the mixture route's 1e-11
        code, out, _ = run_cli(["pmf", "--beta", "0.1", "--lambda", "1", "--t", "16"], capsys)
        assert code == 0
        p0 = float(out.splitlines()[2].split(",")[1])
        assert p0 == pytest.approx(fpp_pmf_mixture(0.1, 1.0, 16.0, 0), abs=1e-8)

    def test_csv_and_json_carry_identical_numbers(self, capsys):
        code, csv_out, _ = run_cli(
            ["pmf", "--beta", "0.6", "--lambda", "2", "--t", "0.5"], capsys
        )
        assert code == 0
        code, json_out, _ = run_cli(
            ["pmf", "--beta", "0.6", "--lambda", "2", "--t", "0.5",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        doc = json.loads(json_out)
        rows = [r for r in csv_out.splitlines() if r and not r.startswith(("#", "n,"))]
        csv_probs = [float(r.split(",")[1]) for r in rows]
        assert csv_probs == [p for _, p in doc["rows"]]

    def test_mixture_spec_frozen_values(self, capsys):
        code, out, _ = run_cli(
            ["pmf", "--spec", MIXTURE_SPEC, "--lambda", "1", "--t", "1",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["rows"][0][1] == pytest.approx(0.40458078953318911, abs=1e-8)
        assert doc["rows"][1][1] == pytest.approx(0.28625916394998974, abs=1e-8)

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "table.csv"
        code, _, _ = run_cli(
            ["pmf", "--beta", "0.5", "--lambda", "1", "--t", "1",
             "--output", str(target)],
            capsys,
        )
        assert code == 0
        assert target.read_text().splitlines()[1] == "n,prob"

    @pytest.mark.parametrize(
        "argv",
        [["--beta", "0.7", "--lambda", "5", "--t", "50"],
         ["--beta", "0.5", "--lambda", "1", "--t", "30"]],
    )
    def test_numerical_trouble_is_not_a_usage_error(self, argv, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _, _ = run_cli(["pmf"] + argv, capsys)
        assert code in (0, 1)

    def test_table_missing_normalization_exits_1(self, monkeypatch, capsys):
        monkeypatch.setattr("fracpoisson.distributions.fpp_pmf", lambda *args: 0.0)
        code, _, err = run_cli(
            ["pmf", "--beta", "0.5", "--lambda", "1", "--t", "1"], capsys
        )
        assert code == 1
        assert "error:" in err

    def test_requires_beta_or_spec(self, capsys):
        code, _, err = run_cli(["pmf", "--lambda", "1", "--t", "1"], capsys)
        assert code == 2
        assert "error:" in err

    def test_bad_spec_json(self, capsys):
        code, _, err = run_cli(
            ["pmf", "--spec", "{not json", "--lambda", "1", "--t", "1"], capsys
        )
        assert code == 2
        assert "invalid --spec JSON" in err


class TestCheck:
    def test_passing_suite(self, capsys):
        code, out, _ = run_cli(["check", "--suite", "fraccalc", "--seed", "42"],
                               capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["suite"] == "fraccalc"
        assert doc["seed"] == 42
        assert all(case["pass"] for case in doc["cases"])

    def test_failing_suite_exit_code(self, monkeypatch, capsys):
        # theorem23 fails by construction when its walks wait with order
        # 0.45 against the exact law of order 0.5 (from draws that make the
        # same generator calls)
        monkeypatch.setattr(
            "fracpoisson.processes._ml_waits",
            lambda beta, lam, draws: _ml_waits(0.45, lam, draws),
        )
        code, out, _ = run_cli(["check", "--suite", "theorem23", "--seed", "1"],
                               capsys)
        assert code == 1
        doc = json.loads(out)
        assert any(not case["pass"] for case in doc["cases"])

    def test_output_file_and_status_line(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(
            ["check", "--suite", "fraccalc", "--seed", "42",
             "--output", str(target)],
            capsys,
        )
        assert code == 0
        assert "fraccalc: PASS" in out
        assert json.loads(target.read_text())["suite"] == "fraccalc"

    def test_missing_seed_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--suite", "fraccalc"])
        assert exc.value.code == 2

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--suite", "theorem99", "--seed", "42"])
        assert exc.value.code == 2

    def test_negative_seed_maps_to_two(self, capsys):
        code, _, err = run_cli(
            ["check", "--suite", "fraccalc", "--seed", "-3"], capsys
        )
        assert code == 2
        assert "error:" in err


class TestSample:
    def test_fpp_round_trip(self, capsys):
        code, out, err = run_cli(
            ["sample", "--process", "fpp", "--beta", "0.5", "--lambda", "1",
             "--horizon", "5", "--paths", "3", "--seed", "9"],
            capsys,
        )
        assert code == 0
        assert "paths=3" in err
        paths, header, seed = paths_from_csv(out)
        assert seed == 9
        assert len(paths) == 3
        assert header["process"] == "fpp"
        assert header["beta"] == 0.5
        # the CSV stores the horizon in the header only; re-parse with it
        paths, _, _ = paths_from_csv(out, horizon=header["horizon"])
        assert all(p.horizon == 5.0 for p in paths)

    def test_reproducible(self, capsys):
        argv = ["sample", "--process", "fpp", "--beta", "0.5", "--lambda", "1",
                "--horizon", "5", "--paths", "2", "--seed", "11"]
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert first == second

    def test_jobs_do_not_change_output(self, capsys):
        base = ["sample", "--process", "fpp", "--beta", "0.5", "--lambda", "1",
                "--horizon", "3", "--paths", "4", "--seed", "13"]
        _, serial, _ = run_cli(base + ["--jobs", "1"], capsys)
        _, parallel, _ = run_cli(base + ["--jobs", "2"], capsys)
        assert serial == parallel

    @pytest.mark.parametrize("process", [
        ["--process", "fpp", "--beta", "0.6"],
        ["--process", "timechange", "--spec", '{"variant": "Stable", "beta": 0.6}'],
        ["--process", "timechange", "--spec",
         '{"variant": "TemperedStable", "beta": 0.6, "a": 1.0}'],
        ["--process", "timechange", "--spec", MIXTURE_SPEC],
        ["--process", "ctrw", "--spec", '{"variant": "Stable", "beta": 0.6}'],
    ], ids=["fpp", "stable", "tempered", "mixture", "ctrw"])
    def test_jobs_do_not_change_output_of_any_kind(self, process, capsys):
        # paths of one to several 32-draw rounds, split over two workers
        base = ["sample", *process, "--lambda", "20", "--horizon", "3",
                "--paths", "9", "--seed", "17"]
        _, serial, _ = run_cli(base + ["--jobs", "1"], capsys)
        _, parallel, _ = run_cli(base + ["--jobs", "2"], capsys)
        assert serial == parallel
        rows = [int(line.split(",")[0]) for line in serial.splitlines()[2:]]
        assert sorted(set(rows)) == list(range(9))
        assert max(map(rows.count, set(rows))) > 32

    def test_more_jobs_than_paths(self, capsys):
        # a worker whose chunk of stream ids is empty returns no paths
        base = ["sample", "--process", "fpp", "--beta", "0.5", "--lambda", "1",
                "--horizon", "3", "--paths", "2", "--seed", "13"]
        _, serial, _ = run_cli(base, capsys)
        _, parallel, _ = run_cli(base + ["--jobs", "3"], capsys)
        assert serial == parallel

    def test_workers_are_capped_by_blocks_and_cpus(self, monkeypatch, capsys):
        # a fork pool starts every worker up front: --jobs 100000 forked 100000
        # processes for two paths.  An in-process pool records the count instead
        started = []

        class InProcessPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr("fracpoisson.cli.ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        base = ["sample", "--process", "fpp", "--beta", "0.5", "--lambda", "1",
                "--horizon", "3", "--seed", "13", "--jobs"]
        _, serial, _ = run_cli(base + ["1", "--paths", "2"], capsys)
        _, two_blocks, _ = run_cli(base + ["100000", "--paths", "2"], capsys)
        run_cli(base + ["100000", "--paths", "9"], capsys)
        assert two_blocks == serial
        assert started == [2, 3]  # two blocks; nine blocks on three CPUs

    def test_timechange_spec(self, capsys):
        code, out, _ = run_cli(
            ["sample", "--process", "timechange", "--spec",
             '{"variant": "TemperedStable", "beta": 0.5, "a": 1.0}',
             "--lambda", "2", "--horizon", "2", "--paths", "2", "--seed", "3"],
            capsys,
        )
        assert code == 0
        paths, header, _ = paths_from_csv(out)
        assert header["spec"]["variant"] == "TemperedStable"
        assert len(paths) == 2

    @pytest.mark.parametrize("argv, what", [
        (["--process", "fpp", "--beta", "0.1", "--lambda", "1e-300"], "rate = 1e-300"),
        (["--process", "timechange", "--spec",
          '{"variant": "TemperedStable", "beta": 0.5, "a": 1e30}', "--lambda", "1"],
         "rejection chunks"),
    ], ids=["fpp-scale-overflows", "tempered-chunks"])
    def test_unsamplable_law_exits_1(self, argv, what, capsys):
        # these printed "error: (34, 'Numerical result out of range')" and a
        # numpy _ArrayMemoryError traceback
        code, out, err = run_cli(["sample", *argv, "--horizon", "1", "--paths", "3",
                                  "--seed", "1"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and what in err and err.count("\n") == 1

    def test_overflowing_waits_exit_1(self, capsys):
        # this exited 2 with "jump times must be finite, ..." after numpy
        # overflow warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                ["sample", "--process", "fpp", "--beta", "0.1", "--lambda", "1e-30",
                 "--horizon", "1e300", "--paths", "20", "--seed", "1"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "overflows a float" in err and err.count("\n") == 1

    def test_ctrw_default_jumps(self, capsys):
        code, out, _ = run_cli(
            ["sample", "--process", "ctrw", "--spec",
             '{"variant": "Stable", "beta": 0.6}', "--lambda", "1",
             "--horizon", "2", "--paths", "2", "--seed", "5"],
            capsys,
        )
        assert code == 0
        paths, header, _ = paths_from_csv(out)
        assert header["jumps"]["atoms"] == [[1.0, 0.5], [-1.0, 0.5]]
        assert all(abs(s) == 1.0 for p in paths for s in p.jump_sizes)

    def test_output_file_moves_summary_to_stdout(self, tmp_path, capsys):
        target = tmp_path / "paths.csv"
        code, out, err = run_cli(
            ["sample", "--process", "fpp", "--beta", "0.5", "--lambda", "1",
             "--horizon", "2", "--paths", "2", "--seed", "7",
             "--output", str(target)],
            capsys,
        )
        assert code == 0
        assert "paths=2" in out
        assert err == ""
        paths, _, _ = paths_from_csv(target.read_text())
        assert len(paths) == 2

    def test_fpp_requires_beta(self, capsys):
        code, _, err = run_cli(
            ["sample", "--process", "fpp", "--lambda", "1", "--horizon", "1",
             "--seed", "1"],
            capsys,
        )
        assert code == 2
        assert "--beta" in err

    def test_timechange_requires_spec(self, capsys):
        code, _, err = run_cli(
            ["sample", "--process", "timechange", "--lambda", "1",
             "--horizon", "1", "--seed", "1"],
            capsys,
        )
        assert code == 2
        assert "--spec" in err

    def test_malformed_spec_is_usage_error(self, capsys):
        code, _, err = run_cli(
            ["sample", "--process", "timechange", "--spec", '{"variant":"StableMixture"}',
             "--lambda", "1", "--horizon", "1", "--seed", "1"],
            capsys,
        )
        assert code == 2
        assert "error:" in err

    def test_bad_path_count(self, capsys):
        code, _, err = run_cli(
            ["sample", "--process", "fpp", "--beta", "0.5", "--lambda", "1",
             "--horizon", "1", "--paths", "0", "--seed", "1"],
            capsys,
        )
        assert code == 2
        assert "error:" in err


class TestArgumentErrors:
    """Bad numbers and malformed JSON are usage errors: exit 2, one error line."""

    CTRW = ["sample", "--process", "ctrw", "--spec", '{"variant": "Stable", "beta": 0.6}',
            "--lambda", "1", "--horizon", "1", "--seed", "1"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["pmf", "--beta", "0.5", "--lambda", "-1", "--t", "1"],
            ["pmf", "--beta", "0.5", "--lambda", "1", "--t", "inf"],
            ["pmf", "--beta", "nan", "--lambda", "1", "--t", "1"],
            ["eval", "density", "--beta", "0.7", "--x", "1", "--t", "inf"],
            ["eval", "prabhakar", "--gamma", "nan", "--alpha", "0.5", "--theta", "1",
             "--z", "-1"],
            ["sample", "--process", "fpp", "--beta", "0.5", "--lambda", "1",
             "--horizon", "inf", "--paths", "1", "--seed", "1"],
            CTRW + ["--jumps", '{"x": 1}'],
            CTRW + ["--jumps", '{"atoms": [1, 2]}'],
            CTRW + ["--jumps", "[1]"],
            CTRW + ["--jumps", '{"atoms": [[1, 0.5], [-1, 0.5]], "extra": 1}'],
            CTRW + ["--jumps", '{"atoms": [["a", 1]]}'],
        ],
    )
    def test_exit_two_with_error_line(self, argv, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err and "infinite interval" not in err


class TestConsoleScript:
    def test_installed_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fracpoisson.cli", "eval", "mlf",
             "--beta", "0.5", "--z", "-1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "0.427583576156\n"

    def test_script_on_path(self):
        proc = subprocess.run(
            ["fracpoisson", "eval", "mlf", "--beta", "0.5", "--z", "-1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "0.427583576156\n"
