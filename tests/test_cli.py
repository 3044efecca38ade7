import dataclasses
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from missoc import cli, problems
from missoc.bnb import SOLVE_CSV_HEADER, UnsupportedSurrogateError
from missoc.cli import build_parser, main
from missoc.expressions import ParseError
from missoc.problems import InstanceValidationError, MissocConfig
from test_regression import load_model

SMOOTH = (
    "var x in [0, 1]; var y in [0, 1];"
    "min (x - 0.3)^2 + (y - 0.6)^2 + 0.1*x;"
)

MIXED = (
    "var n in [0, 3] integer; var x in [0, 1];"
    "min 0.5*n + (x - 0.6)^2; st x + n >= 1.5;"
)


@pytest.fixture
def smooth_path(tmp_path):
    p = tmp_path / "smooth.miss"
    p.write_text(SMOOTH)
    return str(p)


@pytest.fixture
def mixed_path(tmp_path):
    p = tmp_path / "mixed.miss"
    p.write_text(MIXED)
    return str(p)


class TestFit:
    def test_summary_and_model_roundtrip(self, smooth_path, tmp_path, capsys):
        model = tmp_path / "model.txt"
        rc = main(["fit", smooth_path, "--intervals", "6", "--model", str(model)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "rms residual" in out
        fit = load_model(model.read_text())
        assert fit.p == 2
        assert [b.label for b in fit.bases] == ["x", "y"]

    def test_plot_data(self, smooth_path, tmp_path):
        rc = main(
            ["fit", smooth_path, "--intervals", "6", "--plot-data",
             str(tmp_path / "pd")]
        )
        assert rc == 0
        for label in ("x", "y"):
            lines = (tmp_path / "pd" / f"component_{label}.csv").read_text().splitlines()
            assert lines[0] == f"{label},component"
            data = np.array(
                [[float(v) for v in ln.split(",")] for ln in lines[1:]]
            )
            assert data.shape == (401, 2)
            assert data[0, 0] <= data[-1, 0]


class TestSurrogate:
    def test_prints_listing(self, smooth_path, capsys):
        rc = main(["surrogate", smooth_path, "--intervals", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("surrogate-minlp")
        assert "y_x_0" in out and "sigma_y" in out

    def test_writes_file(self, smooth_path, tmp_path):
        out = tmp_path / "surr.txt"
        rc = main(
            ["surrogate", smooth_path, "--intervals", "4", "--out", str(out)]
        )
        assert rc == 0
        assert out.read_text().startswith("surrogate-minlp")


class TestSolve:
    def test_solves_and_writes_outputs(self, mixed_path, tmp_path, capsys):
        log = tmp_path / "log.csv"
        summary = tmp_path / "summary.csv"
        rc = main(
            ["solve", mixed_path, "--intervals", "6",
             "--log", str(log), "--out", str(summary)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "status        optimal" in out
        assert re.search(r"^LP solves     [1-9]\d*$", out, re.M)
        assert re.search(r"^tighten LPs   \d+$", out, re.M)
        assert re.search(r"^tighten iters \d+$", out, re.M)
        assert re.search(r"^Kelley caps   \d+$", out, re.M)
        assert re.search(r"^convex comps  \d+$", out, re.M)
        assert log.read_text().startswith("node,depth,lb,ub,gap_pct")
        lines = summary.read_text().splitlines()
        assert lines[0] == SOLVE_CSV_HEADER
        assert lines[1].endswith("optimal")

    def test_infeasible_exit_code(self, tmp_path):
        p = tmp_path / "inf.miss"
        p.write_text("var x in [0, 1]; min x^2; st x - 2 >= 0;")
        rc = main(["solve", str(p), "--intervals", "4"])
        assert rc == 1

    def test_nonlinear_constraint_rejected_before_sampling(
        self, tmp_path, monkeypatch
    ):
        def no_sampling(*args, **kwargs):
            raise AssertionError("sample_training was called")

        monkeypatch.setattr(problems, "sample_training", no_sampling)
        p = tmp_path / "nonlinear.miss"
        p.write_text(
            "var a in [0,1]; var b in [0,1];"
            "min a^2 + sin(3*b); st a*b - 0.1 <= 0;"
        )
        with pytest.raises(problems.StageError) as ei:
            main(["solve", str(p)])
        assert ei.value.stage == "solve"
        assert isinstance(ei.value.cause, UnsupportedSurrogateError)


class TestRun:
    def test_full_pipeline_report(self, smooth_path, tmp_path, capsys):
        out = tmp_path / "report.csv"
        rc = main(["run", smooth_path, "--intervals", "6", "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "t[refine" in text
        assert re.search(r"^LP solves     [1-9]\d*$", text, re.M)
        assert re.search(r"^tighten LPs   \d+$", text, re.M)
        assert re.search(r"^tighten iters \d+$", text, re.M)
        assert re.search(r"^Kelley caps   \d+$", text, re.M)
        assert re.search(r"^convex comps  \d+$", text, re.M)
        lines = out.read_text().splitlines()
        assert lines[0].startswith("instance,stage,")
        assert lines[-1].split(",")[1] == "total"

    def test_no_refine_flag(self, smooth_path, capsys):
        rc = main(["run", smooth_path, "--intervals", "6", "--no-refine"])
        assert rc == 0
        assert "t[refine" not in capsys.readouterr().out


class TestWorkDone:
    @pytest.mark.parametrize("command", ["solve", "run"])
    def test_prints_simplex_iterations(self, smooth_path, command, capsys):
        rc = main([command, smooth_path, "--intervals", "6"])
        assert rc == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        at = next(i for i, ln in enumerate(lines) if ln.startswith("LP"))
        assert re.fullmatch(r"simplex iters [1-9]\d*", lines[at + 1])

    def test_prints_tightening_lps(self, capsys):
        """waves2's root has an incumbent and an open gap, so it solves
        min and max of both covariates against it: four LPs, whose simplex
        iterations are some of the solve's."""
        path = pathlib.Path(problems.__file__).parent / "instances" / "waves2.miss"
        assert main(["solve", str(path)]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^tighten LPs   4$", out, re.M)
        tightening = int(re.search(r"^tighten iters ([1-9]\d*)$", out, re.M)[1])
        assert tightening < int(re.search(r"^simplex iters (\d+)$", out, re.M)[1])


def run_command(*argv):
    """``python -m missoc.cli *argv`` in a fresh interpreter."""
    src = pathlib.Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, "-m", "missoc.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )


# the pointwise target exp(x) at sample 0 is above the shape's upper bound
FIT_FAILS = "var x in [0, 1]; min exp(x); shape bounds [0, 0.5]; point interp 0;"


class TestStageErrors:
    """A failed stage ends every subcommand with one line on stderr and exit
    code 1."""

    @pytest.mark.parametrize("command, text, stage", [
        ("run", "var x in [-inf, inf]; var y in [0, 1]; min x + y^2;", "solve"),
        ("solve", "var a in [0,1]; var b in [0,1];"
                  "min a^2 + sin(3*b); st a*b - 0.1 <= 0;", "solve"),
        ("run", FIT_FAILS, "fit"),
        ("solve", FIT_FAILS, "fit"),
        ("fit", FIT_FAILS, "fit"),
        ("surrogate", FIT_FAILS, "fit"),
    ], ids=["unbounded", "nonlinear_constraint", "run_fit", "solve_fit",
            "fit_fit", "surrogate_fit"])
    def test_one_line_not_a_traceback(self, tmp_path, command, text, stage):
        p = tmp_path / "bad.miss"
        p.write_text(text)
        done = run_command(command, str(p))
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert re.fullmatch(rf"missoc: stage '{stage}' failed: .+\n", done.stderr)

    def test_fit_failure_names_the_bound(self, tmp_path):
        p = tmp_path / "bad.miss"
        p.write_text(FIT_FAILS)
        with pytest.raises(problems.StageError) as ei:
            main(["solve", str(p)])
        assert ei.value.stage == "fit"
        assert "exceeds upper bound 0.5" in str(ei.value)


class TestInputErrors:
    """An instance file that is missing, does not parse or is invalid, and
    an output path that cannot be written, end the command with one line on
    stderr and exit code 1; ``main`` raises the error itself."""

    @pytest.mark.parametrize("text, error", [
        (None, FileNotFoundError),
        ("var x in [0, 1]; maximize x;", ParseError),
        ("var x in [0, 1]; min x^2 + y;", InstanceValidationError),
    ], ids=["missing", "parse", "invalid"])
    def test_bad_instance(self, tmp_path, text, error):
        p = tmp_path / "input.miss"
        if text is not None:
            p.write_text(text)
        with pytest.raises(error):
            main(["run", str(p)])
        done = run_command("run", str(p))
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert re.fullmatch(r"missoc: .+\n", done.stderr)

    @pytest.mark.parametrize("command", ["run", "fit"])
    def test_shape_bounds_out_of_order_name_their_line(self, tmp_path, command):
        p = tmp_path / "input.miss"
        p.write_text("var x in [0, 1];\nmin x^2;\nshape bounds [5, 1];\n")
        with pytest.raises(ParseError, match="lower < upper") as ei:
            main([command, str(p)])
        assert ei.value.line == 3
        done = run_command(command, str(p))
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert re.fullmatch(r"missoc: line 3, column 1: .+\n", done.stderr)

    def test_unwritable_output(self, smooth_path, tmp_path):
        out = tmp_path / "no_such_dir" / "model.txt"
        done = run_command("fit", smooth_path, "--intervals", "4",
                           "--model", str(out))
        assert done.returncode == 1
        assert "Traceback" not in done.stderr
        assert re.fullmatch(r"missoc: .+no_such_dir.+\n", done.stderr)


class TestBench:
    def test_runs_batch(self, smooth_path, mixed_path, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        rc = main(
            ["bench", smooth_path, mixed_path, "--intervals", "6",
             "--out", str(out)]
        )
        assert rc == 0
        stdout = capsys.readouterr().out
        assert "smooth: optimal" in stdout
        assert "mixed: optimal" in stdout
        lines = out.read_text().splitlines()
        names = {ln.split(",")[0] for ln in lines[1:]}
        assert names == {"smooth", "mixed"}

    def test_batch_continues_after_error(self, smooth_path, tmp_path, capsys):
        bad = tmp_path / "bad.miss"
        bad.write_text("var x in [1, 2]; min log(0 - x) + x^2;")
        out = tmp_path / "bench.csv"
        rc = main(
            ["bench", str(bad), smooth_path, "--intervals", "6",
             "--out", str(out)]
        )
        assert rc == 1  # the bad instance counts as a failure
        captured = capsys.readouterr()
        assert "bad: ERROR" in captured.err
        assert "smooth: optimal" in captured.out
        lines = out.read_text().splitlines()
        assert any(ln.startswith("bad,error,") for ln in lines)


class TestShippedInstances:
    def test_instances_parse_and_run(self):
        import importlib.resources

        from missoc.problems import MissocConfig, parse_instance, run_missoc

        root = importlib.resources.files("missoc") / "instances"
        paths = sorted(p.name for p in root.iterdir() if p.name.endswith(".miss"))
        assert len(paths) >= 3
        for name in paths:
            text = (root / name).read_text()
            inst = parse_instance(text, name=name.removesuffix(".miss"))
            report = run_missoc(
                inst, MissocConfig(intervals=8, samples_per_param=10, seed=0)
            )
            assert report.x is not None
            assert report.status.startswith("optimal")
            if inst.best_known is not None:
                assert report.objective <= inst.best_known + 1e-3


class TestDefaults:
    MODEL = {"degrees", "intervals", "samples_per_param", "seed"}
    SOLVE = {"time_limit", "gap_tol", "node_cap"}

    @pytest.mark.parametrize(
        "command, flagged",
        [
            ("fit", MODEL),
            ("solve", MODEL | SOLVE),
            ("run", MODEL | SOLVE | {"refine"}),
            ("bench", MODEL | SOLVE | {"refine"}),
        ],
    )
    def test_parser_defaults_are_the_config_defaults(self, command, flagged):
        args = build_parser().parse_args([command, "instance.miss"])
        defaults = MissocConfig()
        fields = {f.name for f in dataclasses.fields(MissocConfig)}
        assert {name for name in fields if hasattr(args, name)} == flagged
        for name in flagged:
            assert getattr(args, name) == getattr(defaults, name), name
        assert cli._config(args) == defaults
