"""Acceptance battery: eight end-to-end criteria, runnable as `selftest`.

Each criterion is a standalone function returning a CriterionResult; the
pytest acceptance module asserts on the same functions, so the CLI and the
test suite can never drift apart.  One criterion is expected to fail and is
reported honestly rather than weakened: the closed-form curvature anchor
includes a flat case whose generator is not concircular, and the six Ricci
closed forms provably do not hold there (the deviation is the traceless part
of nabla pi - pi x pi, reproduced exactly by a companion unit test); its
scalar-relation half does hold, as the battery detail line shows.
"""

from __future__ import annotations

import io
import sys
from typing import NamedTuple

import numpy as np

from .catalog import build_case
from .classify import (KINDS, RicciData, classify_quasi_einstein,
                       einstein_type, grw_detect, grw_identity_suite,
                       perfect_fluid_kind, quasi_einstein_equivalences)
from .connection import (build_connection, check_concircular, nabla1_P,
                         s_concircular_check)
from .curvature import (closed_form_ricci, closed_form_scalar,
                        curvature_family)
from .fdcheck import fd_gamma, fd_riemann
from .geometry import (MetricSpec, VectorFieldSpec, frame_at, residual,
                       riemann_from_gamma)
from .relativity import FluidParams, div_tau, efe_residual, phantom_verdict
from .report import fmt_float
from .sampling import LCG, sample_points


class CriterionResult(NamedTuple):
    number: int
    name: str
    passed: bool
    worst: float
    detail: str


def _points_for(case, count, seed):
    return sample_points(case.bounds, count, seed, case.avoid)


def _fmt_pos(x: float) -> str:
    return np.format_float_positional(x, unique=True, trim="-")


# -- 1 ---------------------------------------------------------------------

def closed_form_curvature_anchor(seed: int = 0) -> CriterionResult:
    """Direct contractions match the closed-form Ricci and scalar relations."""
    tol = 1e-8
    per_case = []
    worst = 0.0
    for name in ("minkowski", "desitter-flat", "grw-generic"):
        case = build_case(name)
        case_worst = 0.0
        for pt in _points_for(case, 16, seed):
            c = build_connection(case.metric, case.vector, pt)
            bundle = curvature_family(c)
            ric_g, r_g = bundle.ricci["g"], bundle.scalar["g"]
            for t in (0, 1, 2, 3, 4, 5):
                case_worst = max(
                    case_worst,
                    residual(closed_form_ricci(t, c, ric_g)
                             - bundle.ricci[t], c.frame.g),
                    abs(closed_form_scalar(t, c, r_g) - bundle.scalar[t])
                    / (1.0 + abs(r_g)))
        per_case.append("%s %.3e" % (name, case_worst))
        worst = max(worst, case_worst)
    detail = ("; ".join(per_case)
              + " — the flat case carries a non-concircular generator, so its"
                " Ricci closed forms fail by construction (scalar half holds;"
                " the exact deviation law is asserted in the curvature tests)")
    return CriterionResult(1, "closed_form_curvature_anchor", worst <= tol,
                           worst, detail)


# -- 2 ---------------------------------------------------------------------

def derivative_oracle(seed: int = 0) -> CriterionResult:
    """Jet-built Christoffel and curvature agree with finite differences."""
    tol = 1e-6
    worst = 0.0
    for name in ("minkowski", "desitter-flat", "flrw", "grw-generic", "grw"):
        case = build_case(name)
        for pt in _points_for(case, 16, seed):
            f = frame_at(case.metric, pt)
            worst = max(worst,
                        float(np.max(np.abs(fd_gamma(case.metric, pt)
                                            - f.gamma))),
                        float(np.max(np.abs(
                            fd_riemann(case.metric, pt)
                            - riemann_from_gamma(f.gamma, f.dgamma)))))
    return CriterionResult(2, "derivative_oracle", worst <= tol, worst,
                           "absolute deviation over 5 cases x 16 points, "
                           "h = 1e-5")


# -- 3 ---------------------------------------------------------------------

def desitter_chain(seed: int = 0) -> CriterionResult:
    """The full result chain on the exponentially warped flat case."""
    tol = 1e-8
    case = build_case("desitter-flat")
    worst = 0.0
    grw_ok = True
    for pt in _points_for(case, 16, seed):
        c = build_connection(case.metric, case.vector, pt)
        f = c.frame
        bundle = curvature_family(c)
        pp = np.outer(c.pi, c.pi)
        grw_ok = grw_ok and grw_detect(c, tol).passes
        qe = classify_quasi_einstein(RicciData.from_bundle(bundle), tol)
        worst = max(
            worst,
            abs(c.omega - 1.0),
            nabla1_P(c).closed_form_residual,
            residual(bundle.ricci["g"] - 3.0 * f.g, f.g),
            abs(bundle.scalar["g"] - 12.0) / 13.0,
            residual(bundle.ricci[1], f.g),
            max(einstein_type(t, bundle, tol).residual for t in (1, 2, 3)),
            residual(bundle.ricci[0] + 0.75 * pp, f.g),
            abs(bundle.scalar[0] - 0.75) / 1.75,
            abs(bundle.scalar[4] - 3.0) / 4.0,
            abs(qe.a - 3.0),
            abs(qe.b),
            abs((qe.a - qe.b) - 3.0))
    return CriterionResult(3, "desitter_chain", grw_ok and worst <= tol,
                           worst,
                           "omega, generator derivative, GRW verdict, Ricci "
                           "and scalar values, kinds 1-3, fluid coefficients")


# -- 4 ---------------------------------------------------------------------

def grw_identity_battery(seed: int = 0) -> CriterionResult:
    """GRW identities hold pointwise while scalar curvature varies."""
    tol = 1e-8
    case = build_case("grw-generic")
    worst = 0.0
    scalars = []
    from .relativity import div_pi_pi
    for pt in _points_for(case, 16, seed):
        c = build_connection(case.metric, case.vector, pt)
        bundle = curvature_family(c)
        suite = grw_identity_suite(bundle)
        qe = classify_quasi_einstein(RicciData.from_bundle(bundle), tol)
        fluid_kind = perfect_fluid_kind(bundle, qe)
        worst = max(worst,
                    max(suite.values()),
                    residual(div_pi_pi(c) - (c.n - 1.0) * c.pi, c.frame.g),
                    abs(fluid_kind.a_minus_b - 3.0))
        scalars.append(bundle.scalar["g"])
    spread = max(scalars) - min(scalars)
    varied = spread > 10.0 * tol
    return CriterionResult(
        4, "grw_identity_battery", worst <= tol and varied, worst,
        "identities to %.3e while r spans %s (spread %.3f)"
        % (worst, "[%.3f, %.3f]" % (min(scalars), max(scalars)), spread))


# -- 5 ---------------------------------------------------------------------

def _random_unit_timelike(rng: LCG, n: int):
    g = np.diag([-1.0] + [1.0] * (n - 1))
    s = np.array([rng.uniform_in(-1.0, 1.0) for _ in range(n - 1)])
    pi = np.concatenate(([np.sqrt(1.0 + s @ s)], s))
    return g, pi


def einstein_kind_equivalences(seed: int = 0) -> CriterionResult:
    """Constructed kind instances verify both directions; perturbed fail."""
    tol = 1e-8
    rng = LCG(seed ^ 0x5E1F)
    worst = 0.0
    false_verdicts = 0
    trials = 0
    for n in (4, 5):
        for theta in (0, 4, 5):
            _, b_of, r_of = KINDS[theta]
            b = b_of(n)
            for _ in range(100):
                trials += 1
                g, pi = _random_unit_timelike(rng, n)
                ric = (b + (n - 1)) * g + b * np.outer(pi, pi)
                rep = quasi_einstein_equivalences(theta, RicciData(g, ric, pi),
                                                  tol)
                kind_r = r_of(n)
                worst = max(worst, rep.e_residual, rep.form_residual,
                            abs(rep.r - kind_r) / (1.0 + kind_r))
                if not (rep.e_holds and rep.form_holds and rep.consistent
                        and rep.grw_kind_matches):
                    false_verdicts += 1
                noise = np.array([[rng.uniform_in(-1.0, 1.0)
                                   for _ in range(n)] for _ in range(n)])
                noise = noise + noise.T
                noise *= 1e-3 / np.max(np.abs(noise))
                bad = quasi_einstein_equivalences(
                    theta, RicciData(g, ric + noise, pi), tol)
                if bad.e_holds or bad.form_holds or not bad.consistent:
                    false_verdicts += 1
    return CriterionResult(
        5, "einstein_kind_equivalences",
        false_verdicts == 0 and worst <= tol, worst,
        "%d trials over n in {4, 5} and three kinds, %d false verdicts"
        % (trials, false_verdicts))


# -- 6 ---------------------------------------------------------------------

def field_equation_and_fluid(seed: int = 0) -> CriterionResult:
    """Vacuum field equation, divergence-barrier equivalence, fluid regimes."""
    case = build_case("desitter-flat")
    worst = 0.0
    for pt in _points_for(case, 16, seed):
        bundle = curvature_family(build_connection(case.metric, case.vector,
                                                   pt))
        worst = max(worst, efe_residual(bundle, case.fluid).residual)
    efe_ok = worst <= 1e-9

    grw = build_case("grw-generic")
    pt = _points_for(grw, 1, seed)[0]
    bundle = curvature_family(build_connection(grw.metric, grw.vector, pt))
    grid = [-2.0 + 0.5 * i for i in range(9)]
    equiv_ok = True
    barrier_ok = True
    for sigma in grid:
        for p in grid:
            fl = FluidParams.from_strings(grw.coords, _fmt_pos(sigma),
                                          _fmt_pos(p))
            div_zero = float(np.max(np.abs(div_tau(bundle, fl, "constant")))) \
                <= 1e-10
            on_line = abs(sigma + p) <= 1e-10
            equiv_ok = equiv_ok and (div_zero == on_line)
            ph = phantom_verdict(sigma, p, 1e-10)
            barrier_ok = barrier_ok and (ph.at_barrier == on_line)
            if on_line and sigma != 0.0:
                barrier_ok = barrier_ok and ph.w == -1.0
    return CriterionResult(
        6, "field_equation_and_fluid", efe_ok and equiv_ok and barrier_ok,
        worst,
        "vacuum residual %.3e; divergence-zero iff sigma+p = 0 over a 9x9 "
        "grid: %s; barrier verdicts exact: %s"
        % (worst, equiv_ok, barrier_ok))


# -- 7 ---------------------------------------------------------------------

def _random_pair(rng: LCG, coords):
    n = len(coords)
    rows = [["0"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            c = rng.uniform_in(-0.05, 0.05)
            a, b = coords[rng.next_u64() % n], coords[rng.next_u64() % n]
            pert = "(%s)*sin(%s)*cos(%s)" % (_fmt_pos(c), a, b)
            if i == j:
                base = "-1" if i == 0 else "1"
                rows[i][j] = "%s+%s" % (base, pert)
            else:
                rows[i][j] = pert
                rows[j][i] = pert
    comps = ["%s+(%s)*%s" % (_fmt_pos(rng.uniform_in(-1.0, 1.0)),
                             _fmt_pos(rng.uniform_in(-1.0, 1.0)),
                             coords[rng.next_u64() % n])
             for _ in range(n)]
    return (MetricSpec.from_strings(coords, rows),
            VectorFieldSpec.from_strings(coords, comps))


def concircular_condition_equivalence(seed: int = 0) -> CriterionResult:
    """The defining equation and its trace-split form always agree."""
    mismatches = 0
    checked = 0
    for name in ("minkowski", "desitter-flat", "flrw", "grw-generic", "grw"):
        case = build_case(name)
        for pt in _points_for(case, 16, seed):
            c = build_connection(case.metric, case.vector, pt)
            checked += 1
            if check_concircular(c).holds != s_concircular_check(c).holds:
                mismatches += 1
    rng = LCG(seed ^ 0xC0FFEE)
    coords = ("t", "x", "y", "z")
    for _ in range(50):
        m, p = _random_pair(rng, coords)
        for pt in sample_points(((-1.0, 1.0),) * 4, 3,
                                seed=rng.next_u64() & 0xFFFF):
            c = build_connection(m, p, pt)
            checked += 1
            if check_concircular(c).holds != s_concircular_check(c).holds:
                mismatches += 1
    return CriterionResult(
        7, "concircular_condition_equivalence", mismatches == 0,
        float(mismatches),
        "%d evaluations (5 cases x 16 points + 50 random pairs x 3 points), "
        "%d verdict mismatches" % (checked, mismatches))


# -- 8 ---------------------------------------------------------------------

def determinism(seed: int = 0) -> CriterionResult:
    """Same seed, same bytes, for the full analysis pipeline."""
    from .analysis import run_analysis
    setup = build_case("desitter-flat")._replace(seed=seed, n_points=8)
    outs = (io.StringIO(), io.StringIO())
    for out in outs:
        run_analysis(setup).render("machine", out)
    first, second = (out.getvalue() for out in outs)
    same = first == second
    return CriterionResult(8, "determinism", same, 0.0 if same else 1.0,
                           "two pipeline runs, %d bytes each, identical: %s"
                           % (len(first), same))


CRITERIA = (
    closed_form_curvature_anchor,
    derivative_oracle,
    desitter_chain,
    grw_identity_battery,
    einstein_kind_equivalences,
    field_equation_and_fluid,
    concircular_condition_equivalence,
    determinism,
)


def run_selftest(seed: int = 0, fmt: str = "text", stream=None) -> int:
    stream = stream if stream is not None else sys.stdout
    results = [fn(seed) for fn in CRITERIA]
    if fmt == "machine":
        for res in results:
            stream.write("CHECK acceptance_%d_%s point=-1 residual=%s "
                         "status=%s\n"
                         % (res.number, res.name, fmt_float(res.worst),
                            "PASS" if res.passed else "FAIL"))
    else:
        stream.write("acceptance battery (seed %d)\n" % seed)
        for res in results:
            stream.write("ACCEPTANCE %d %s: %s (worst %.3e)\n    %s\n"
                         % (res.number, res.name,
                            "PASS" if res.passed else "FAIL", res.worst,
                            res.detail))
        passed = sum(1 for r in results if r.passed)
        stream.write("%d/%d criteria pass\n" % (passed, len(results)))
    return 0 if all(r.passed for r in results) else 1
