"""Command-line surface: exit codes, output grammar, determinism."""

import contextlib
import functools
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from concirc.cli import main
from concirc.config import AnalysisSetup
from concirc.geometry import DEFAULT_TOL

ROOT = Path(__file__).resolve().parents[1]

MACHINE_LINE = re.compile(
    r"^(CHECK [A-Za-z0-9_]+ point=-?\d+ residual=[^ ]+ status=(PASS|FAIL)"
    r"|VERDICT [A-Za-z0-9_]+ point=-?\d+ value=[^ ]+)$")


def _run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExitCodes:
    def test_clean_run_returns_zero(self, capsys):
        code, out, err = _run(
            ["builtin", "desitter-flat", "--points", "3"], capsys)
        assert code == 0
        assert err == ""
        assert "result: PASS" in out

    def test_failed_check_returns_one(self, capsys):
        code, out, _ = _run(
            ["builtin", "minkowski", "--points", "2",
             "--fluid", "lambda=1"], capsys)
        assert code == 1
        assert "result: FAIL" in out
        assert "field_equation" in out

    def test_unknown_builtin_returns_two(self, capsys):
        code, out, err = _run(["builtin", "nope"], capsys)
        assert code == 2
        assert out == ""
        assert "unknown builtin" in err

    def test_missing_config_returns_two(self, capsys):
        code, _, err = _run(["analyze", "/does/not/exist.cfg"], capsys)
        assert code == 2
        assert "error:" in err

    def test_bad_parameter_returns_two(self, capsys):
        code, _, err = _run(
            ["builtin", "minkowski", "--param", "f=t"], capsys)
        assert code == 2
        assert "does not take parameter" in err

    def test_malformed_override_returns_two(self, capsys):
        code, _, err = _run(
            ["builtin", "flrw", "--param", "f"], capsys)
        assert code == 2
        assert "KEY=VALUE" in err or "=" in err

    @pytest.mark.parametrize("argv", [
        ["builtin", "minkowski", "--points", "1"],
        ["selftest", "--format", "machine"],
    ], ids=["builtin", "selftest"])
    def test_closed_stdout_returns_one_quietly(self, argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                                   if env.get("PYTHONPATH") else []))
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the CLI writes
        try:
            res = subprocess.run(
                [sys.executable, "-m", "concirc.cli", *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=env, text=True)
        finally:
            os.close(write_end)
        assert res.returncode == 1
        assert "Traceback" not in res.stderr
        assert "Exception ignored" not in res.stderr


class TestRejectedInput:
    @pytest.mark.parametrize("fmt", ["text", "machine"])
    @pytest.mark.parametrize("extra,names", [
        (["--tol", "0"], ("--tol", "tol")),
        (["--points", "-1"], ("--points", "points")),
        (["--points", "0"], ("points",)),
        (["--fluid", "rho=0", "--fluid", "p=0"], ("--fluid", "'rho'")),
        (["--fluid", "q=1"], ("--fluid", "'q'")),
        (["--fluid", "sigma=("], ("--fluid", "sigma")),
        (["--fluid", "lambda=x"], ("--fluid", "lambda")),
        (["--tol", "nan"], ("--tol", "tol must be finite")),
        (["--tol", "inf"], ("--tol", "tol must be finite")),
        (["--fluid", "lambda=nan"], ("--fluid", "lambda must be finite")),
        (["--fluid", "k=inf"], ("--fluid", "k must be finite")),
    ], ids=lambda v: "_".join(v) if isinstance(v, list) else None)
    def test_bad_override_exits_two_and_names_the_key(self, extra, names,
                                                      fmt, capsys):
        code, out, err = _run(["builtin", "minkowski", "--format", fmt]
                              + extra, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        for name in names:
            assert name in err

    def test_grw_base_entry_given_twice_exits_two_and_names_both_keys(
            self, capsys):
        code, out, err = _run(["builtin", "grw", "--param", "base_x_y=0.1",
                               "--param", "base_y_x=0.2"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: base entry (y, x) set twice")
        assert "base_x_y" in err and "base_y_x" in err

    @pytest.mark.parametrize("old,new", [
        ("bounds_t = -0.5 0.5", "bounds_t = nan 0.5"),
        ("point = 0.3 0.4 -0.2 0.7", "point = inf 0.4 -0.2 0.7"),
    ])
    def test_non_finite_config_number_exits_two(self, old, new, tmp_path,
                                                capsys):
        text = (ROOT / "configs" / "desitter.cfg").read_text()
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text.replace(old, new))
        code, out, err = _run(["analyze", str(cfg)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: line %d: %s must be finite"
                              % (text.splitlines().index(old) + 1,
                                 old.split()[0]))

    @pytest.mark.parametrize("g_x_x,p_t,stage", [
        ("exp(700*t)", "1", "metric jet"),
        ("1", "1000*exp(709*t)", "generator jet"),
        # every stage up to the Riemann tensor is finite; sum(g * g) is not
        ("exp(400*t)", "1", "quasi-Einstein fit"),
    ])
    def test_non_finite_value_exits_two_and_names_point_and_stage(
            self, g_x_x, p_t, stage, tmp_path, capsys):
        # An in-process run: a numpy RuntimeWarning would fail this test.
        cfg = tmp_path / "overflow.cfg"
        cfg.write_text("[manifold]\ncoords = t x y z\n\n[metric]\n"
                       'g_t_t = "-1"\ng_x_x = "%s"\ng_y_y = "1"\n'
                       'g_z_z = "1"\n\n[vector_field]\nP_t = "%s"\n\n'
                       "[sampling]\npoints = 0\npoint = 1.0 0.1 0.2 0.3\n"
                       % (g_x_x, p_t))
        code, out, err = _run(["analyze", str(cfg)], capsys)
        assert (code, out) == (2, "")
        assert err == ("error: %s is not finite at point 1.0 0.1 0.2 0.3\n"
                       % stage)

    @pytest.mark.parametrize("fmt", ["text", "machine"])
    def test_explicit_point_alone_is_a_run(self, fmt, capsys):
        code, out, _ = _run(["analyze", "configs/desitter.cfg", "--points",
                             "0", "--format", fmt], capsys)
        assert code == 0
        assert ("point=0 " in out) if fmt == "machine" else (
            "points: 1 explicit + 0 sampled" in out)
        assert "point=1 " not in out

    def test_points_zero_in_a_config_needs_an_override(self, tmp_path,
                                                       capsys):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text((ROOT / "configs" / "desitter.cfg").read_text()
                       .replace("points = 4", "points = 0")
                       .replace("point = 0.3 0.4 -0.2 0.7\n", ""))
        code, out, err = _run(["analyze", str(cfg)], capsys)
        assert (code, out) == (2, "")
        assert "no point" in err
        code, out, _ = _run(["analyze", str(cfg), "--points", "4",
                             "--format", "machine"], capsys)
        assert code == 0
        assert "point=3 " in out and "point=4 " not in out


class TestAnalyzeSubcommand:
    def test_shipped_config_runs_clean(self, capsys):
        code, out, _ = _run(["analyze", "configs/desitter.cfg"], capsys)
        assert code == 0
        assert "result: PASS" in out

    def test_cli_overrides_take_effect(self, capsys):
        code, out, _ = _run(
            ["analyze", "configs/desitter.cfg", "--format", "machine",
             "--points", "2", "--seed", "4"], capsys)
        assert code == 0
        # 2 sampled + 1 explicit point from the file
        assert max(int(m.group(1)) for m in
                   re.finditer(r"point=(\d+)", out)) == 2


class TestMachineGrammar:
    def test_every_line_matches(self, capsys):
        code, out, _ = _run(
            ["builtin", "grw-generic", "--format", "machine",
             "--points", "3", "--seed", "2"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines
        for line in lines:
            assert MACHINE_LINE.match(line), line

    def test_aggregate_rows_present(self, capsys):
        _, out, _ = _run(
            ["builtin", "desitter-flat", "--format", "machine",
             "--points", "2"], capsys)
        assert "point=-1" in out
        assert re.search(r"CHECK metricity_semi_symmetric point=-1 "
                         r"residual=\S+ status=PASS", out)
        assert re.search(r"VERDICT concircular point=-1 value=True", out)

    def test_runs_are_byte_identical(self, capsys):
        argv = ["builtin", "grw-generic", "--format", "machine",
                "--points", "4", "--seed", "9"]
        _, first, _ = _run(argv, capsys)
        _, second, _ = _run(argv, capsys)
        assert first == second


class TestBuiltinOptions:
    def test_warp_parameter_changes_results(self, capsys):
        base = ["builtin", "flrw", "--format", "machine", "--points", "2"]
        _, out_default, _ = _run(base, capsys)
        _, out_param, _ = _run(base + ["--param", "f=t^2"], capsys)
        assert out_default != out_param

    def test_fluid_override_enables_field_equation(self, capsys):
        _, out, _ = _run(
            ["builtin", "flrw", "--format", "machine", "--points", "2"],
            capsys)
        assert "field_equation" not in out
        code, out2, _ = _run(
            ["builtin", "flrw", "--format", "machine", "--points", "2",
             "--fluid", "sigma=0", "--fluid", "p=0"], capsys)
        assert "field_equation" in out2


class TestHelp:
    @pytest.mark.parametrize("command", ["analyze", "builtin"])
    def test_help_names_the_owners_defaults(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        default = AnalysisSetup._field_defaults
        assert "residual tolerance (default %r)" % DEFAULT_TOL in text
        assert "output format (default: %s," % default["fmt"] in text
        assert "sampling seed (default %d)" % default["seed"] in text
        assert ("number of sampled points (default %d)"
                % default["n_points"]) in text


MACHINE_SELFTEST = ["selftest", "--seed", "7", "--format", "machine"]


@functools.lru_cache(maxsize=None)
def _machine_selftest() -> str:
    """stdout of one in-process machine selftest run, made on first use."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(MACHINE_SELFTEST)
    return out.getvalue()


class TestSelftestSubcommand:
    def test_reports_every_criterion(self, capsys):
        code, out, _ = _run(["selftest", "--seed", "7"], capsys)
        lines = [l for l in out.splitlines() if l.startswith("ACCEPTANCE")]
        assert len(lines) == 8
        # The flat-space anchor is inapplicable by construction, so the
        # battery reports an expected failure rather than exiting clean.
        assert code == 1
        assert "criteria pass" in out

    def test_machine_format_uses_check_grammar(self):
        lines = _machine_selftest().splitlines()
        assert len(lines) == 8
        for line in lines:
            assert line.startswith("CHECK acceptance_")
            assert MACHINE_LINE.match(line), line

    def test_is_deterministic(self, capsys):
        # the cached run and this one are two independent runs
        _, second, _ = _run(MACHINE_SELFTEST, capsys)
        assert _machine_selftest() == second


class _Writes(list):
    """Stands in for stdout and keeps each write as one item."""

    write = list.append

    def flush(self):
        pass


class TestStreamedOutput:
    @pytest.mark.parametrize("fmt", ["text", "machine"])
    def test_no_write_exceeds_4kb(self, monkeypatch, fmt):
        sink = _Writes()
        monkeypatch.setattr(sys, "stdout", sink)
        code = main(["analyze", str(ROOT / "perfbench" / "generic.cfg"),
                     "--points", "64", "--format", fmt])
        assert code == 0
        assert len(sink) > 64 * 42
        assert max(len(w) for w in sink) <= 4096
