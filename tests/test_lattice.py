"""The verdict lattice: implications that hold at every point of any run.

Each row is definitional or a theorem of the taxonomy: a GRW generator is
unit timelike, torse-forming, self-torse-forming and concircular; a
concurrent field is Fialkow-concircular, which in turn is torse-forming and
Yano-concircular; a generator that does not vanish is concircular exactly
when it is self-torse-forming; and so on.  A violation needs no reference
value to be wrong, so the table catches verdict thresholds that drift with
the chart or with the size of g (the two de Sitter configs below, sampled
at t in [9, 10] where max|g| = e^{2t} is about 1e8).

Two more rules need more than the VERDICT rows:

* every row maps to one entry of ``analysis.ROWS``, and an entry's rows
  appear at a point exactly where its gate (``analysis.GATES``) holds;
* the abstract's claim: a concircular unit timelike generator on a
  Lorentzian metric is a GRW generator.  No row reports the signature, so
  ``abstract_violations`` reads it from ``frame_at`` at the run's points.
"""

import re
from pathlib import Path

import numpy as np
import pytest

from concirc import analysis
from concirc.analysis import GATES, ROWS, gather_points
from concirc.catalog import BUILTIN_NAMES, build_case
from concirc.config import apply_overrides, parse_config
from concirc.geometry import frame_at
from testkit import counted, load_source, machine, machine_rows

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"

# (premise, conclusion, value the conclusion must take when the premise is
# True[, a (name, value) pair that must also hold for the row to apply])
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
    # nabla pi = pi x pi + omega g says nabla_X P = omega X + pi(X) P, and
    # the converse; the taxonomy fits nothing where P vanishes
    ("self_torse_forming", "concircular", "True"),
    ("concircular", "self_torse_forming", "True",
     ("generator_indeterminate", "False")),
    ("einstein", "quasi_einstein", "True"),
    ("einstein", "einstein_type_thetag", "True"),
    ("einstein_type_thetag", "einstein", "True"),
)

_DESITTER = (ROOT / "configs" / "desitter.cfg").read_text()
_FAR = (_DESITTER.replace("bounds_t = -0.5 0.5", "bounds_t = 9 10")
        .replace("points = 4", "points = 64")
        .replace("point = 0.3 0.4 -0.2 0.7\n", ""))
# A: the unit generator d_t far out in t.  B: the non-unit 0.1 d_t there.
FAR_CONFIGS = {"far_unit": _FAR,
               "far_tenth": _FAR.replace('P_t = "1"', 'P_t = "0.1"')}


def by_point(machine_output: str) -> dict:
    """point -> {verdict name: value token}; the aggregate rows (point=-1)
    are left out."""
    points = {}
    for name, idx, value in machine_rows(machine_output, "VERDICT"):
        points.setdefault(idx, {})[name] = value
    return points


def entry_of(kind: str, name: str):
    """The index in ROWS of the entry that emits row ``kind name``: the one
    of that name, else the one whose %s matches it; None if neither."""
    found = [i for i, (k, _, entry, _) in enumerate(ROWS) if k == kind
             and re.fullmatch(entry.replace("%s", r"\w+"), name)]
    return min(found, key=lambda i: "%s" in ROWS[i][2], default=None)


def gates_held(verdicts: dict, fluid: bool) -> set:
    """The gates that hold at a point with these verdict tokens."""
    return {gate for gate, (need, _) in GATES.items()
            if (fluid if need is None else all(
                verdicts.get(name) == token for name, token in need))}


def gate_violations(machine_output: str, fluid: bool) -> list:
    """(point, kind, name, "unknown" | "present" | "missing") for each row
    with no entry, and each entry with rows at a point where its gate fails
    or none where it holds."""
    out, emitted, verdicts = [], {}, by_point(machine_output)
    for kind in ("CHECK", "VERDICT"):
        for name, idx, _ in machine_rows(machine_output, kind):
            entry = entry_of(kind, name)
            if entry is None:
                out.append((idx, kind, name, "unknown"))
            emitted.setdefault(idx, set()).add(entry)
    for idx, rows in sorted(emitted.items()):
        held = gates_held(verdicts.get(idx, {}), fluid)
        out += [(idx, kind, name, "present" if i in rows else "missing")
                for i, (kind, gate, name, _) in enumerate(ROWS)
                if (i in rows) != (gate in held)]
    return out


def violations(machine_output: str) -> list:
    """(point, premise, conclusion, value) for every broken implication."""
    out = []
    for idx, verdicts in sorted(by_point(machine_output).items()):
        for premise, conclusion, want, *given in IMPLICATIONS:
            got = verdicts.get(conclusion)
            if got != want and all(verdicts.get(name) == value for name, value
                                   in [(premise, "True"), *given]):
                out.append((idx, premise, conclusion, got))
    return out


def run_violations(machine_output: str, setup, points) -> list:
    """Every rule of this module that one run's machine output breaks."""
    return (violations(machine_output)
            + gate_violations(machine_output, setup.fluid is not None)
            + abstract_violations(machine_output, setup.metric, points))


def abstract_premises(machine_output: str, metric, points) -> dict:
    """point -> its ``grw`` token, at every point where the generator is
    concircular and unit timelike and g is Lorentzian there."""
    verdicts = by_point(machine_output)
    return {idx: verdicts[idx].get("grw") for idx, pt in enumerate(points)
            if verdicts[idx].get("concircular") == "True"
            and verdicts[idx].get("unit_timelike") == "True"
            and frame_at(metric, pt).lorentzian}


def abstract_violations(machine_output: str, metric, points) -> list:
    """Points where the abstract's premise holds and ``grw`` is not True."""
    return [idx for idx, grw in abstract_premises(
        machine_output, metric, points).items() if grw != "True"]


def test_checker_reports_a_broken_implication():
    out = ("VERDICT grw point=0 value=True\n"
           "VERDICT unit_timelike point=0 value=none\n"
           "VERDICT grw point=-1 value=True\n")
    assert ("grw", "unit_timelike") in {v[1:3] for v in violations(out)}
    assert len(violations(out)) == len(
        [row for row in IMPLICATIONS if row[0] == "grw"])


def test_checker_reports_concircular_without_self_torse_at_determinate_only():
    out = "".join("VERDICT %s point=%d value=%s\n" % row for row in (
        ("concircular", 0, "True"), ("generator_indeterminate", 0, "False"),
        ("self_torse_forming", 0, "False"),
        ("concircular", 1, "True"), ("generator_indeterminate", 1, "True"),
        ("self_torse_forming", 1, "none")))
    assert violations(out) == [
        (0, "concircular", "self_torse_forming", "False")]


_GRW_GENERIC = (GOLDEN / "builtin_grw-generic.out").read_text()


def test_checker_reports_a_fluid_row_without_quasi_einstein():
    out = _GRW_GENERIC.replace("VERDICT quasi_einstein point=0 value=True",
                               "VERDICT quasi_einstein point=0 value=False")
    assert gate_violations(out, fluid=True) == [
        (0, "CHECK", "grw_fluid_coefficients", "present")]


def test_checker_reports_unknown_and_missing_rows():
    out = re.sub("CHECK generator_derivative point=1 .*\n", "",
                 _GRW_GENERIC) + "VERDICT bogus point=2 value=True\n"
    assert gate_violations(out, fluid=True) == [
        (2, "VERDICT", "bogus", "unknown"),
        (1, "CHECK", "generator_derivative", "missing")]
    # field_equation, fluid_regime and eos_w at each of the four points
    assert len(gate_violations(_GRW_GENERIC, fluid=False)) == 3 * 4


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
    assert machine_rows(out, "VERDICT")
    setup = apply_overrides(build_case(name), points=4)
    points = gather_points(setup)[0]
    premises = abstract_premises(out, setup.metric, points)
    assert run_violations(out, setup, points) == []
    # the premise is reached wherever the builtin has a GRW generator
    assert bool(premises) == (name in ("desitter-flat", "grw",
                                       "grw-generic"))


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtins_at_seed_1009_obey_the_lattice(name):
    setup = apply_overrides(build_case(name), points=4, seed=1009)
    rep, out = machine(setup)
    assert run_violations(out, setup, rep.points) == []


def test_generic_field_obeys_the_lattice():
    setup = apply_overrides(load_source("generic.cfg"), points=64)
    rep, out = machine(setup)
    assert run_violations(out, setup, rep.points) == []


# owner -> the gate at whose points the rows call it once; perfbench counts
# these calls by rebinding the owners in concirc.analysis's namespace
OWNERS = {"nabla1_P": "concircular", "lie_g_nonsym": "concircular",
          "identity_suite": "concircular", "grw_identity_suite": "grw",
          "perfect_fluid_kind": "grw_quasi_einstein", "efe_residual": "fluid"}


@pytest.mark.parametrize("source", ["desitter-flat", "grw-generic",
                                    "minkowski", "generic.cfg"])
def test_rows_reach_their_owners_through_the_module_namespace(source,
                                                              monkeypatch):
    setup = apply_overrides(load_source(source), points=4)
    calls = dict.fromkeys(OWNERS, 0)
    for name in OWNERS:
        monkeypatch.setattr(analysis, name,
                            counted(calls, name, getattr(analysis, name)))
    _, out = machine(setup)
    held = [gates_held(verdicts, setup.fluid is not None)
            for verdicts in by_point(out).values()]
    assert calls == {name: sum(gate in h for h in held)
                     for name, gate in OWNERS.items()}
    if source == "desitter-flat":
        assert all(calls.values())


@pytest.mark.parametrize("name", sorted(FAR_CONFIGS))
def test_large_metric_obeys_the_lattice_and_passes(name):
    setup = parse_config(FAR_CONFIGS[name])
    rep, out = machine(setup)
    assert run_violations(out, setup, rep.points) == []
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
    rep, out = machine(setup)
    assert rep.ok
    assert "VERDICT grw point=-1 value=True" in out
    assert "VERDICT quasi_einstein point=-1 value=False" in out
    assert run_violations(out, setup, rep.points) == []
