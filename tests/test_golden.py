"""Byte goldens: exit code and stdout of fixed CLI commands, run in-process.

Each file under ``tests/golden/`` was written by the code as it stood
before the refactor it guards: the first seven before the residual,
closed-form and connection-derivative helpers were consolidated, the
``override_*`` files before builtins and CLI overrides were folded into the
config's run description.  Any byte that moves is a behaviour change, not a
refactor.
Regenerate a file only for a change that means to alter output, and say
which rows moved and why.
"""

from pathlib import Path

import pytest

from concirc.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"

# (golden file, argv, exit code)
CASES = [
    ("builtin_%s.out" % name,
     ["builtin", name, "--points", "4", "--format", "machine"], 0)
    for name in ("desitter-flat", "flrw", "grw", "grw-generic", "minkowski")
] + [
    ("analyze_desitter.out",
     ["analyze", str(ROOT / "configs" / "desitter.cfg")], 0),
    # criterion 1 (closed_form_curvature_anchor) fails by design
    ("selftest_machine.out", ["selftest", "--format", "machine"], 1),
    # CLI overrides over a builtin's fluid and a config's settings; the
    # text case also pins the builtin's ``case:`` preamble line
    ("override_minkowski_fluid.out",
     ["builtin", "minkowski", "--points", "3", "--fluid", "lambda=1",
      "--fluid", "p=2", "--format", "machine"], 1),
    ("override_flrw_text.out",
     ["builtin", "flrw", "--param", "f=t^2", "--fluid", "sigma=t",
      "--tol", "1e-9", "--seed", "3", "--points", "3"], 1),
    ("override_desitter_fluid.out",
     ["builtin", "desitter-flat", "--fluid", "sigma=1", "--points", "2",
      "--format", "machine"], 1),
    ("override_analyze_desitter.out",
     ["analyze", str(ROOT / "configs" / "desitter.cfg"), "--points", "2",
      "--seed", "5", "--tol", "1e-9", "--format", "machine"], 0),
]


@pytest.mark.parametrize("golden,argv,code", CASES,
                         ids=[c[0][:-4] for c in CASES])
def test_stdout_matches_golden(golden, argv, code, capsys):
    assert main(argv) == code
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()
