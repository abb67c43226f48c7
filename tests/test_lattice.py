"""The verdict lattice: implications that hold at every point of any run.

Each row is definitional or a theorem of the taxonomy: a GRW generator is
unit timelike, torse-forming, self-torse-forming and concircular; a
concurrent field is Fialkow-concircular, which in turn is torse-forming and
Yano-concircular; and so on.  A violation needs no reference value to be
wrong, so the table catches verdict thresholds that drift with the chart or
with the size of g (the two de Sitter configs below, sampled at t in
[9, 10] where max|g| = e^{2t} is about 1e8).

Two more rules need more than the VERDICT rows:

* the ``grw_fluid_coefficients`` CHECK row is present only where Ric is
  quasi-Einstein in pi (a GRW spacetime is a perfect fluid only then);
* the abstract's claim: a concircular unit timelike generator on a
  Lorentzian metric is a GRW generator.  No row reports the signature, so
  ``abstract_violations`` reads it from ``frame_at`` at the run's points.
"""

import io
import re
from pathlib import Path

import numpy as np
import pytest

from concirc.analysis import gather_points, run_analysis
from concirc.catalog import BUILTIN_NAMES, build_case
from concirc.config import apply_overrides, load_config, parse_config
from concirc.geometry import frame_at

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
    ("CHECK grw_fluid_coefficients", "quasi_einstein", "True"),
)

_VERDICT = re.compile(r"^VERDICT (\w+) point=(\d+) value=(\S+)$", re.M)
_CHECK = re.compile(r"^CHECK (\w+) point=(\d+) ", re.M)

_DESITTER = (ROOT / "configs" / "desitter.cfg").read_text()
_FAR = (_DESITTER.replace("bounds_t = -0.5 0.5", "bounds_t = 9 10")
        .replace("points = 4", "points = 64")
        .replace("point = 0.3 0.4 -0.2 0.7\n", ""))
# A: the unit generator d_t far out in t.  B: the non-unit 0.1 d_t there.
FAR_CONFIGS = {"far_unit": _FAR,
               "far_tenth": _FAR.replace('P_t = "1"', 'P_t = "0.1"')}


def _by_point(machine_output: str) -> dict:
    """point -> {verdict name: value token, "CHECK <name>": "True"}; the
    aggregate rows (point=-1) are left out."""
    points = {}
    for name, idx, value in _VERDICT.findall(machine_output):
        points.setdefault(int(idx), {})[name] = value
    for name, idx in _CHECK.findall(machine_output):
        points.setdefault(int(idx), {})["CHECK " + name] = "True"
    return points


def violations(machine_output: str) -> list:
    """(point, premise, conclusion, value) for every broken implication."""
    out = []
    for idx, verdicts in sorted(_by_point(machine_output).items()):
        for premise, conclusion, want in IMPLICATIONS:
            got = verdicts.get(conclusion)
            if verdicts.get(premise) == "True" and got != want:
                out.append((idx, premise, conclusion, got))
    return out


def abstract_premises(machine_output: str, metric, points) -> dict:
    """point -> its ``grw`` token, at every point where the generator is
    concircular and unit timelike and g is Lorentzian there."""
    verdicts = _by_point(machine_output)
    return {idx: verdicts[idx].get("grw") for idx, pt in enumerate(points)
            if verdicts[idx].get("concircular") == "True"
            and verdicts[idx].get("unit_timelike") == "True"
            and frame_at(metric, pt).lorentzian}


def abstract_violations(machine_output: str, metric, points) -> list:
    """Points where the abstract's premise holds and ``grw`` is not True."""
    return [idx for idx, grw in abstract_premises(
        machine_output, metric, points).items() if grw != "True"]


def _machine(setup):
    """(report, machine output) of one in-process run."""
    rep = run_analysis(setup)
    out = io.StringIO()
    rep.render("machine", out)
    assert _VERDICT.search(out.getvalue())
    return rep, out.getvalue()


def test_checker_reports_a_broken_implication():
    out = ("VERDICT grw point=0 value=True\n"
           "VERDICT unit_timelike point=0 value=none\n"
           "VERDICT grw point=-1 value=True\n")
    assert ("grw", "unit_timelike") in {v[1:3] for v in violations(out)}
    assert len(violations(out)) == len(
        [row for row in IMPLICATIONS if row[0] == "grw"])


def test_checker_reports_a_fluid_row_without_quasi_einstein():
    out = ("CHECK grw_fluid_coefficients point=0 residual=0.0 status=PASS\n"
           "CHECK grw_fluid_coefficients point=-1 residual=0.0 status=PASS\n"
           "VERDICT quasi_einstein point=0 value=False\n")
    assert violations(out) == [
        (0, "CHECK grw_fluid_coefficients", "quasi_einstein", "False")]


def test_checker_reports_a_broken_abstract_implication():
    metric = build_case("desitter-flat").metric
    points = [np.zeros(4), np.zeros(4)]
    out = "".join("VERDICT %s point=%d value=%s\n" % row for row in (
        ("concircular", 0, "True"), ("unit_timelike", 0, "True"),
        ("grw", 0, "False"), ("concircular", 1, "True"),
        ("unit_timelike", 1, "False"), ("grw", 1, "False")))
    assert abstract_violations(out, metric, points) == [0]


# the golden builtin_*.out files were written with --points 4
@pytest.mark.parametrize("name", BUILTIN_NAMES,
                         ids=["builtin_" + name for name in BUILTIN_NAMES])
def test_golden_builtins_obey_the_lattice(name):
    out = (GOLDEN / ("builtin_%s.out" % name)).read_text()
    assert _VERDICT.search(out)
    assert violations(out) == []
    setup = apply_overrides(build_case(name), points=4)
    points = gather_points(setup)[0]
    premises = abstract_premises(out, setup.metric, points)
    assert abstract_violations(out, setup.metric, points) == []
    # the premise is reached wherever the builtin has a GRW generator
    assert bool(premises) == (name in ("desitter-flat", "grw",
                                       "grw-generic"))


def test_generic_field_obeys_the_lattice():
    setup = apply_overrides(load_config(ROOT / "perfbench" / "generic.cfg"),
                            points=64)
    rep, out = _machine(setup)
    assert violations(out) == []
    assert abstract_violations(out, setup.metric, rep.points) == []


@pytest.mark.parametrize("name", sorted(FAR_CONFIGS))
def test_large_metric_obeys_the_lattice_and_passes(name):
    setup = parse_config(FAR_CONFIGS[name])
    rep, out = _machine(setup)
    assert violations(out) == []
    assert abstract_violations(out, setup.metric, rep.points) == []
    premises = abstract_premises(out, setup.metric, rep.points)
    assert len(premises) == (64 if name == "far_unit" else 0)
    assert rep.ok
    assert "status=FAIL" not in out
    want = "True" if name == "far_unit" else "False"
    assert "VERDICT grw point=-1 value=%s" % want in out


# GRW over a base h = dx^2 + (1 + x^2) dy^2 + dz^2 that is not Einstein:
# grw holds, Ric is not a g + b pi x pi, and no fluid row may be emitted.
NON_EINSTEIN_BASE = """\
[manifold]
coords = t x y z
[metric]
g_t_t = "-1"
g_x_x = "exp(2*t)"
g_y_y = "exp(2*t)*(1+x^2)"
g_z_z = "exp(2*t)"
[vector_field]
P_t = "1"
[sampling]
points = 4
seed = 3
bounds_t = -0.5 0.5
"""


def test_grw_over_a_non_einstein_base_passes_without_a_fluid_row():
    setup = parse_config(NON_EINSTEIN_BASE)
    rep, out = _machine(setup)
    assert rep.ok
    assert "VERDICT grw point=-1 value=True" in out
    assert "VERDICT quasi_einstein point=-1 value=False" in out
    assert "grw_fluid_coefficients" not in out
    assert "CHECK grw_ric_g_eigen point=-1" in out
    assert violations(out) == []
    assert abstract_violations(out, setup.metric, rep.points) == []
