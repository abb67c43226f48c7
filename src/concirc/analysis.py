"""The per-point evaluation pipeline behind `analyze`, `builtin`, `selftest`.

Record discipline (see report.py): CHECK rows are identities that must hold
for the given input and fail the run when violated; VERDICT rows are
classification outcomes with no pass/fail meaning.  Conditional identities
are gated on the verdict that makes them applicable:

* always checked — both metric compatibilities, torsion antisymmetry,
  curvature antisymmetry for the families that have it unconditionally,
  the six scalar-curvature relations (these need only the trace
  normalisation of omega, not concircularity), and the field equation when
  fluid data is present;
* gated on the concircularity verdict — the six closed-form Ricci relations,
  the six Einstein-tensor relations, the generator-derivative closed form,
  and the modified-connection Lie-derivative theorem;
* gated on the GRW verdict — the GRW identity battery and the divergence
  identity div(pi x pi) = (n-1) pi; when Ric is also quasi-Einstein in pi
  (the perfect-fluid case), the coefficient identities a - b = n - 1 with
  the scalar-curvature rewrite.

The verdicts come from classify.classify_point, once per point; the gated
identities are called here, after it.

A non-concircular generator therefore produces a clean exit: the inapplicable
identities are simply not asserted, and the verdicts record why.
"""

from __future__ import annotations

import numpy as np

from .classify import classify_point, grw_identity_suite, perfect_fluid_kind
from .config import AnalysisSetup
from .connection import (build_connection, identity_suite, lie_g_nonsym,
                         nabla1_P)
from .curvature import (closed_form_ricci, closed_form_scalar,
                        curvature_family, einstein_relations)
from .geometry import SingularMetricError, frame_at, residual
from .relativity import div_pi_pi, efe_residual, phantom_verdict
from .report import Report
from .sampling import LCG, draw_point

_ALWAYS_ANTISYM = ("g", 0, 1, 2)
_TAXONOMY_FLAGS = (
    "torse_forming", "torqued", "concircular_fialkow", "concircular_yano",
    "recurrent", "concurrent", "parallel", "self_torse_forming",
    "anti_torqued", "geodesic", "unit_timelike", "unit_spacelike",
    "conformal_killing", "killing",
)


class AnalysisError(ValueError):
    """Input is syntactically fine but cannot be evaluated (exit code 2)."""


def gather_points(setup: AnalysisSetup):
    """Explicit points first, then valid samples; skips singular draws."""
    if not setup.explicit_points and setup.n_points == 0:
        raise AnalysisError("no point to evaluate: points is 0 and no "
                            "explicit point is given")
    points = []
    for pt in setup.explicit_points:
        try:
            frame_at(setup.metric, pt)
        except SingularMetricError as exc:
            raise AnalysisError(
                "explicit point %s: %s"
                % (" ".join(repr(float(x)) for x in pt), exc)) from exc
        points.append(np.asarray(pt, dtype=float))
    rng = LCG(setup.seed)
    skipped = 0
    budget = 50 * (setup.n_points + 1)
    while len(points) < len(setup.explicit_points) + setup.n_points:
        if skipped >= budget:
            raise AnalysisError(
                "gave up sampling after %d singular draws; tighten bounds or "
                "add avoid values" % skipped)
        candidate = draw_point(rng, setup.bounds, setup.avoid, setup.margin)
        try:
            frame_at(setup.metric, candidate)
        except SingularMetricError:
            skipped += 1
            continue
        points.append(candidate)
    return points, skipped


def run_analysis(setup: AnalysisSetup) -> Report:
    rep = Report(setup.tol)
    points, skipped = gather_points(setup)
    rep.preamble.append("coordinates: %s" % " ".join(setup.coords))
    if setup.description:
        rep.preamble.append("case: %s" % setup.description)
    rep.preamble.append(
        "points: %d explicit + %d sampled (seed %d%s)"
        % (len(setup.explicit_points), setup.n_points, setup.seed,
           ", %d singular draws skipped" % skipped if skipped else ""))
    for pt in points:
        _evaluate_point(rep, setup, pt)
    rep.aggregate()
    return rep


def _evaluate_point(rep: Report, setup: AnalysisSetup, point: np.ndarray):
    idx = rep.add_point(point)
    c = build_connection(setup.metric, setup.vector, point)
    f = c.frame
    bundle = curvature_family(c)
    ric_g, r_g = bundle.ricci["g"], bundle.scalar["g"]
    cls = classify_point(setup.metric, setup.vector, bundle, setup.tol)

    # ---- unconditional identities ------------------------------------
    gamma = f.gamma
    nabla_g_lc = (f.dg
                  - np.einsum("mai,mj->ija", gamma, f.g)
                  - np.einsum("maj,im->ija", gamma, f.g))
    rep.check("metricity_levi_civita", idx, residual(nabla_g_lc, f.g))
    rep.check("metricity_semi_symmetric", idx, residual(c.nabla1_g(), f.g))
    rep.check("torsion_antisymmetry", idx,
              residual(c.torsion + np.einsum("kij->kji", c.torsion), f.g))
    anti = max(residual(bundle.riemann[t]
                        + np.einsum("lkij->lkji", bundle.riemann[t]), f.g)
               for t in _ALWAYS_ANTISYM)
    rep.check("curvature_antisymmetry", idx, anti)
    for t in (0, 1, 2, 3, 4, 5):
        rep.check("scalar_relation_theta%d" % t, idx,
                  abs(closed_form_scalar(t, c, r_g) - bundle.scalar[t])
                  / (1.0 + abs(r_g)))
    if setup.fluid is not None:
        rep.check("field_equation", idx,
                  efe_residual(bundle, setup.fluid).residual)

    # ---- identities that apply to concircular generators --------------
    if cls.concircular:
        for t in (0, 1, 2, 3, 4, 5):
            rep.check("ricci_closed_form_theta%d" % t, idx,
                      residual(closed_form_ricci(t, c, ric_g)
                               - bundle.ricci[t], f.g))
        for t, res in einstein_relations(bundle).items():
            rep.check("einstein_relation_theta%s" % t, idx, res)
        rep.check("generator_derivative", idx,
                  nabla1_P(c).closed_form_residual)
        rep.check("modified_lie_derivative", idx,
                  lie_g_nonsym(c).theorem_residual)
        for name, res in identity_suite(c).items():
            rep.check("identity_%s" % name, idx, res)

    # ---- GRW spacetimes ------------------------------------------------
    qe = cls.quasi_einstein
    if cls.grw.passes:
        for name, res in grw_identity_suite(bundle).items():
            rep.check("grw_%s" % name, idx, res)
        rep.check("grw_divergence_identity", idx,
                  residual(div_pi_pi(c) - (c.n - 1.0) * c.pi, f.g))
        # a GRW spacetime is a perfect fluid only when Ric = a g + b pi x pi
        if qe.quasi_einstein:
            fluid_kind = perfect_fluid_kind(bundle, qe)
            rep.check("grw_fluid_coefficients", idx,
                      max(abs(fluid_kind.a_minus_b - (c.n - 1.0)) / c.n,
                          fluid_kind.rewrite_residual))

    # ---- verdicts --------------------------------------------------------
    rep.verdict("concircular", idx, cls.concircular)
    rep.verdict("concircular_residual", idx, cls.concircular_residual)
    rep.verdict("omega", idx, c.omega)

    tax = cls.taxonomy
    rep.verdict("generator_indeterminate", idx, tax.indeterminate)
    for flag in _TAXONOMY_FLAGS:
        rep.verdict(flag, idx, getattr(tax, flag))
    if not tax.indeterminate:
        rep.verdict("omega_hat", idx, tax.omega_hat)
        rep.verdict("conformal_factor", idx, tax.conformal_factor)

    rep.verdict("quasi_einstein", idx, qe.quasi_einstein)
    rep.verdict("einstein", idx, qe.einstein)
    rep.verdict("qe_coefficient_a", idx, qe.a)
    rep.verdict("qe_coefficient_b", idx,
                qe.b if qe.b_identifiable else None)
    for t, kind in cls.kinds.items():
        rep.verdict("einstein_type_theta%s" % t, idx, kind.holds)
    rep.verdict("grw", idx, cls.grw.passes)

    if setup.fluid is not None:
        sigma, p = setup.fluid.values(point)
        ph = phantom_verdict(sigma, p, setup.tol)
        rep.verdict("fluid_regime", idx, ph.regime)
        rep.verdict("eos_w", idx, ph.w)
