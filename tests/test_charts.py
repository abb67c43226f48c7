"""Metamorphic chart suite: a change of coordinates changes no verdict.

Each builtin is pulled back by an affine map x = J X + s, written as text:
every old coordinate in the metric, generator and fluid expressions is
replaced by its row of ``(J X + s)``, the metric becomes J^T g J and the
generator J^-1 P.  The builtin's sampled points are mapped through the same
map, X = J^-1 (x - s), and given as explicit points, so both runs evaluate
the same points of the same spacetime.  Every boolean VERDICT must agree
point by point, and neither run may FAIL a CHECK.

The de Sitter isometry T = t + c, X^i = e^-c x^i at c up to 15 makes
max|g| ~ e^(2c); it is an isometry of ``desitter-flat`` and a valid chart of
``grw-generic``.  It passes because 1-forms are judged by their |g|-length.

A boost of rapidity 3 still moves verdicts (ROADMAP item 9(b2), bug C).  The
tol sweep bounds that: a verdict is *fragile* when its value is not the same
at every tol of TOLS.  No verdict of an unboosted run is fragile, and every
verdict that the boost flips is fragile in the boosted run.
"""

import functools
import math
import re

import numpy as np
import pytest

from concirc.catalog import build_case
from concirc.config import apply_overrides, parse_config
from concirc.connection import build_connection
from concirc.curvature import curvature_family
from concirc.expr import to_string
from concirc.geometry import frame_at
from testkit import (concircular_kernel_image, load_source, machine,
                     machine_rows)

NEW = ("T", "X", "Y", "Z")
POINTS = 8


def _num(x: float) -> str:
    return "(%s)" % np.format_float_positional(x, unique=True, trim="-")


def _boost(rapidity: float) -> np.ndarray:
    J = np.eye(4)
    ch, sh = math.cosh(rapidity), math.sinh(rapidity)
    J[0, 0] = J[1, 1] = ch
    J[0, 1] = J[1, 0] = sh
    return J


def _scale_x(factor: float) -> np.ndarray:
    """New X = factor * x."""
    return np.diag([1.0, 1.0 / factor, 1.0, 1.0])


def _shear() -> np.ndarray:
    J = np.eye(4)
    J[1, 2] = 0.5       # x = X + Y/2
    J[0, 3] = 0.25      # t = T + Z/4
    return J


def _desitter_isometry(c: float):
    """New T = t + c, new X^i = e^-c x^i: de Sitter's metric keeps its form."""
    return np.diag([1.0] + [math.exp(c)] * 3), np.array([-c, 0.0, 0.0, 0.0])


NO_SHIFT = np.zeros(4)
CHARTS = {
    "boost_0.5": (_boost(0.5), NO_SHIFT),
    "boost_1.5": (_boost(1.5), NO_SHIFT),
    "x_times_10": (_scale_x(10.0), NO_SHIFT),
    "x_times_0.01": (_scale_x(0.01), NO_SHIFT),
    "x_times_100": (_scale_x(100.0), NO_SHIFT),
    "shear": (_shear(), NO_SHIFT),
}
# (builtin, chart name, (J, shift))
CASES = [(name, chart, CHARTS[chart])
         for name in ("desitter-flat", "grw-generic") for chart in CHARTS]
CASES += [(name, "isometry_%d" % c, _desitter_isometry(float(c)))
          for name in ("desitter-flat", "grw-generic") for c in (5, 9, 10, 15)]


def pullback(setup, J: np.ndarray, shift: np.ndarray, points) -> str:
    """Config text for ``setup`` in the chart X with x = J X + shift."""
    n = len(setup.coords)
    Jinv = np.linalg.inv(J)
    rows = ["(%s)" % "+".join(
        ["%s*%s" % (_num(J[i, a]), NEW[a]) for a in range(n) if J[i, a]]
        + ([_num(shift[i])] if shift[i] else [])) for i in range(n)]
    old = re.compile(r"\b(%s)\b" % "|".join(setup.coords))

    def sub(expr) -> str:
        return old.sub(lambda m: rows[setup.coords.index(m.group(1))],
                       to_string(expr))

    entries = setup.metric.entries
    lines = ["[manifold]", "coords = " + " ".join(NEW), "[metric]"]
    for a in range(n):
        for b in range(a, n):
            terms = ["%s*(%s)" % (_num(J[i, a] * J[j, b]),
                                  sub(entries[i, j]))
                     for i in range(n) for j in range(n)
                     if J[i, a] * J[j, b] and to_string(entries[i, j]) != "0"]
            if terms:
                lines.append('g_%s_%s = "%s"'
                             % (NEW[a], NEW[b], "+".join(terms)))
    lines.append("[vector_field]")
    comps = setup.vector.components
    for a in range(n):
        terms = ["%s*(%s)" % (_num(Jinv[a, i]), sub(comps[i]))
                 for i in range(n)
                 if Jinv[a, i] and to_string(comps[i]) != "0"]
        if terms:
            lines.append('P_%s = "%s"' % (NEW[a], "+".join(terms)))
    lines += ["[sampling]", "points = 0"]
    lines += ["point = " + " ".join(repr(float(x))
                                    for x in Jinv @ (pt - shift))
              for pt in points]
    if setup.fluid is not None:
        f = setup.fluid
        lines += ["[fluid]", 'sigma = "%s"' % sub(f.sigma),
                  'p = "%s"' % sub(f.p), "lambda = %r" % f.lam,
                  "k = %r" % f.k]
    lines += ["[tolerances]", "tol = %r" % setup.tol]
    return "\n".join(lines) + "\n"


def _verdicts(setup):
    """(report, {point: {name: True/False token}}) for one run."""
    rep, out = machine(setup)
    by_point = {}
    for name, idx, value in machine_rows(out, "VERDICT"):
        if value in ("True", "False"):
            by_point.setdefault(idx, {})[name] = value
    return rep, by_point


@functools.lru_cache(maxsize=None)
def _base(name: str):
    setup = apply_overrides(build_case(name), points=POINTS)
    rep, verdicts = _verdicts(setup)
    assert rep.ok
    return setup, rep.points, verdicts


def test_pullback_of_the_identity_is_the_same_run():
    setup, points, verdicts = _base("desitter-flat")
    text = pullback(setup, np.eye(4), NO_SHIFT, points)
    assert 'g_T_T = "(1)*(-1)"' in text
    assert 'P_T = "(1)*(1)"' in text
    assert _verdicts(parse_config(text))[1] == verdicts


def test_pullback_metric_is_jt_g_j():
    setup, points, _ = _base("grw-generic")
    J, shift = _shear() @ _boost(1.5), np.array([0.1, -0.2, 0.3, 0.0])
    mapped = parse_config(pullback(setup, J, shift, points))
    for x, X in zip(points, mapped.explicit_points):
        assert np.allclose(J @ X + shift, x, rtol=0, atol=1e-14)
        want = J.T @ frame_at(setup.metric, x).g @ J
        assert np.allclose(frame_at(mapped.metric, X).g, want,
                           rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("name,chart,mapping", CASES,
                         ids=["%s-%s" % c[:2] for c in CASES])
def test_chart_change_keeps_every_verdict(name, chart, mapping):
    setup, points, verdicts = _base(name)
    text = pullback(setup, *mapping, points)
    mapped_setup = parse_config(text)
    rep, mapped = _verdicts(mapped_setup)
    assert len(rep.points) == POINTS, text
    assert [c.name for c in rep.checks if not c.passed] == [], text
    assert mapped == verdicts, text
    # L P vanishes for a concircular generator.  The bound is absolute: on
    # grw-generic's isometry_15 chart max|g| ~ e^30 and max|L P| reaches
    # 1.6e-10; every other map stays below 1.3e-12.
    for idx, pt in enumerate(mapped_setup.explicit_points):
        if mapped[idx]["concircular"] == "True":
            bundle = curvature_family(build_connection(
                mapped_setup.metric, mapped_setup.vector, pt))
            image = concircular_kernel_image(bundle)
            assert np.max(np.abs(image)) <= 1e-9, (idx, text)


TOLS = (1e-11, 1e-8, 1e-5)
# rapidity log 20, about 3, with a cosh and a sinh that print exactly
BOOST_3 = np.array([[401 / 40, 399 / 40, 0, 0], [399 / 40, 401 / 40, 0, 0],
                    [0, 0, 1, 0], [0, 0, 0, 1]])
SWEPT = ("desitter-flat", "grw-generic", "flrw")


def sweep(setup) -> tuple:
    """(each (point, name) of a boolean verdict that moves across TOLS,
    the verdicts at tol 1e-8)."""
    runs = [_verdicts(apply_overrides(setup, tol=tol))[1] for tol in TOLS]
    return {(idx, name) for idx in runs[0] for run in runs for name in run[idx]
            if len({r[idx].get(name) for r in runs}) > 1}, runs[1]


@pytest.mark.parametrize("name", SWEPT + ("generic.cfg",))
def test_no_verdict_of_an_unboosted_run_is_fragile(name):
    setup = apply_overrides(load_source(name), points=POINTS)
    assert sweep(setup)[0] == set()


@pytest.mark.parametrize("name", SWEPT)
def test_every_verdict_the_rapidity_3_boost_flips_is_fragile(name):
    setup, points, verdicts = _base(name)
    fragile, mapped = sweep(parse_config(pullback(setup, BOOST_3, NO_SHIFT,
                                                  points)))
    flips = {(idx, n) for idx in verdicts
             for n in set(verdicts[idx]) | set(mapped[idx])
             if verdicts[idx].get(n) != mapped[idx].get(n)}
    assert flips and flips <= fragile, (sorted(flips - fragile), len(flips))
