"""The verdict lattice: implications that hold at every point of any run.

Each row is definitional or a theorem of the taxonomy: a GRW generator is
unit timelike, torse-forming, self-torse-forming and concircular; a
concurrent field is Fialkow-concircular, which in turn is torse-forming and
Yano-concircular; and so on.  A violation needs no reference value to be
wrong, so the table catches verdict thresholds that drift with the chart or
with the size of g (the two de Sitter configs below, sampled at t in
[9, 10] where max|g| = e^{2t} is about 1e8).
"""

import re
from pathlib import Path

import pytest

from concirc.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"

# (premise, conclusion, value the conclusion must take when the premise is
# True)
IMPLICATIONS = (
    ("grw", "unit_timelike", "True"),
    ("grw", "torse_forming", "True"),
    ("grw", "self_torse_forming", "True"),
    ("grw", "concircular", "True"),
    ("grw", "generator_indeterminate", "False"),
    ("concurrent", "concircular_fialkow", "True"),
    ("concircular_fialkow", "torse_forming", "True"),
    ("concircular_fialkow", "concircular_yano", "True"),
    ("parallel", "recurrent", "True"),
    ("torqued", "torse_forming", "True"),
    ("killing", "conformal_killing", "True"),
    ("einstein", "quasi_einstein", "True"),
    ("einstein", "einstein_type_thetag", "True"),
    ("einstein_type_thetag", "einstein", "True"),
)

_VERDICT = re.compile(r"^VERDICT (\w+) point=(\d+) value=(\S+)$", re.M)

_DESITTER = (ROOT / "configs" / "desitter.cfg").read_text()
_FAR = (_DESITTER.replace("bounds_t = -0.5 0.5", "bounds_t = 9 10")
        .replace("points = 4", "points = 64")
        .replace("point = 0.3 0.4 -0.2 0.7\n", ""))
# A: the unit generator d_t far out in t.  B: the non-unit 0.1 d_t there.
FAR_CONFIGS = {"far_unit": _FAR,
               "far_tenth": _FAR.replace('P_t = "1"', 'P_t = "0.1"')}


def violations(machine_output: str) -> list:
    """(point, premise, conclusion, value) for every broken implication."""
    points = {}
    for name, idx, value in _VERDICT.findall(machine_output):
        points.setdefault(int(idx), {})[name] = value
    out = []
    for idx, verdicts in sorted(points.items()):
        for premise, conclusion, want in IMPLICATIONS:
            got = verdicts.get(conclusion)
            if verdicts.get(premise) == "True" and got != want:
                out.append((idx, premise, conclusion, got))
    return out


def _machine(argv, capsys):
    code = main(argv + ["--format", "machine"])
    out = capsys.readouterr().out
    assert _VERDICT.search(out)
    return code, out


def test_checker_reports_a_broken_implication():
    out = ("VERDICT grw point=0 value=True\n"
           "VERDICT unit_timelike point=0 value=none\n"
           "VERDICT grw point=-1 value=True\n")
    assert ("grw", "unit_timelike") in {v[1:3] for v in violations(out)}
    assert len(violations(out)) == len(
        [row for row in IMPLICATIONS if row[0] == "grw"])


@pytest.mark.parametrize("golden", sorted(GOLDEN.glob("builtin_*.out")),
                         ids=lambda p: p.stem)
def test_golden_builtins_obey_the_lattice(golden):
    out = golden.read_text()
    assert _VERDICT.search(out)
    assert violations(out) == []


def test_generic_field_obeys_the_lattice(capsys):
    _, out = _machine(["analyze", str(ROOT / "perfbench" / "generic.cfg"),
                       "--points", "64"], capsys)
    assert violations(out) == []


@pytest.mark.parametrize("name", sorted(FAR_CONFIGS))
def test_large_metric_obeys_the_lattice_and_passes(name, tmp_path, capsys):
    cfg = tmp_path / ("%s.cfg" % name)
    cfg.write_text(FAR_CONFIGS[name])
    code, out = _machine(["analyze", str(cfg)], capsys)
    assert violations(out) == []
    assert code == 0
    assert "status=FAIL" not in out
    want = "True" if name == "far_unit" else "False"
    assert "VERDICT grw point=-1 value=%s" % want in out
