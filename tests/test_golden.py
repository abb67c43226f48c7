"""Byte goldens: exit code and stdout of fixed CLI commands, run in-process.

The files under ``tests/golden/`` were written by the code as it stood
before the residual, closed-form and connection-derivative helpers were
consolidated; any byte that moves is a behaviour change, not a refactor.
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
]


@pytest.mark.parametrize("golden,argv,code", CASES,
                         ids=[c[0][:-4] for c in CASES])
def test_stdout_matches_golden(golden, argv, code, capsys):
    assert main(argv) == code
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()
