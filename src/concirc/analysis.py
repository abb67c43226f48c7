"""The per-point evaluation pipeline behind `analyze`, `builtin`, `selftest`.

Record discipline (see report.py): CHECK rows are identities that must hold
for the given input and fail the run when violated; VERDICT rows are
classification outcomes with no pass/fail meaning.  ``ROWS`` names every
row, the value it reports and the gate under which it is emitted; ``GATES``
says what each gate needs and why.  A generator outside a gate therefore
produces a clean exit: the inapplicable identities are simply not asserted,
and the verdicts record why.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .classify import (TAXONOMY_FLAGS, classify_point, grw_identity_suite,
                       perfect_fluid_kind)
from .config import AnalysisSetup
from .connection import (build_connection, identity_suite, lie_g_nonsym,
                         nabla1_P)
from .curvature import (curvature_family, einstein_relations,
                        ricci_relations, scalar_relations)
from .geometry import (SingularMetricError, frame_at, nabla_metric, residual,
                       scalar_residual)
from .relativity import efe_residual, phantom_verdict
from .report import Report, fmt_value
from .sampling import LCG, draw_point

_ALWAYS_ANTISYM = ("g", 0, 1, 2)

# gate -> (the VERDICT tokens that must all hold at a point, or None for "the
# run has fluid data"; what the gated rows assume)
GATES = {
    "always": ((), "no more than the trace normalisation of omega"),
    "fluid": (None, "a fluid: sigma, p, lambda and k are given"),
    "concircular": ((("concircular", "True"),),
                    "a concircular P: nabla pi = pi x pi + omega g"),
    "grw": ((("grw", "True"),),
            "a unit timelike torse-forming P on a Lorentzian metric"),
    "grw_quasi_einstein": ((("grw", "True"), ("quasi_einstein", "True")),
                           "a GRW perfect fluid: Ric = a g + b pi x pi"),
    "determinate": ((("generator_indeterminate", "False"),),
                    "a P that does not vanish, so the taxonomy fits"),
}

# (kind, gate, name, value) in the machine grammar's order; value(at) is the
# row's value, or {key: value} when name holds %s.  Values reach their owners
# through this module's globals at call time, which perfbench's tracer wraps.
ROWS = (
    ("CHECK", "always", "metricity_levi_civita",
     lambda at: residual(nabla_metric(at.f.gamma, at.f), at.f.g)),
    ("CHECK", "always", "metricity_semi_symmetric",
     lambda at: residual(at.c.nabla1_g(), at.f.g)),
    ("CHECK", "always", "torsion_antisymmetry", lambda at: residual(
        at.c.torsion + np.einsum("kij->kji", at.c.torsion), at.f.g)),
    ("CHECK", "always", "curvature_antisymmetry", lambda at: max(residual(
        at.bundle.riemann[t] + np.einsum("lkij->lkji", at.bundle.riemann[t]),
        at.f.g) for t in _ALWAYS_ANTISYM)),
    ("CHECK", "always", "scalar_relation_theta%s",
     lambda at: scalar_relations(at.bundle)),
    ("CHECK", "fluid", "field_equation", lambda at: at.efe.residual),
    ("CHECK", "concircular", "ricci_closed_form_theta%s",
     lambda at: ricci_relations(at.bundle)),
    ("CHECK", "concircular", "einstein_relation_theta%s",
     lambda at: einstein_relations(at.bundle)),
    ("CHECK", "concircular", "generator_derivative",
     lambda at: nabla1_P(at.c).closed_form_residual),
    ("CHECK", "concircular", "modified_lie_derivative",
     lambda at: lie_g_nonsym(at.c)),
    ("CHECK", "concircular", "identity_%s", lambda at: identity_suite(at.c)),
    # its last row is the divergence identity div(pi x pi) = (n-1) pi
    ("CHECK", "grw", "grw_%s", lambda at: grw_identity_suite(at.bundle)),
    ("CHECK", "grw_quasi_einstein", "grw_fluid_coefficients",
     lambda at: at.fluid_coefficients()),
    ("VERDICT", "always", "concircular", lambda at: at.cls.concircular),
    ("VERDICT", "always", "concircular_residual",
     lambda at: at.cls.concircular_residual),
    ("VERDICT", "always", "omega", lambda at: at.c.omega),
    ("VERDICT", "always", "generator_indeterminate",
     lambda at: at.tax.indeterminate),
    *(("VERDICT", "always", flag, lambda at, flag=flag: getattr(at.tax, flag))
      for flag in TAXONOMY_FLAGS),
    ("VERDICT", "determinate", "omega_hat", lambda at: at.tax.omega_hat),
    ("VERDICT", "determinate", "conformal_factor",
     lambda at: at.tax.conformal_factor),
    ("VERDICT", "always", "quasi_einstein", lambda at: at.qe.quasi_einstein),
    ("VERDICT", "always", "einstein", lambda at: at.cls.kinds["g"].holds),
    ("VERDICT", "always", "qe_coefficient_a", lambda at: at.qe.a),
    ("VERDICT", "always", "qe_coefficient_b",
     lambda at: at.qe.b if at.qe.b_identifiable else None),
    ("VERDICT", "always", "einstein_type_theta%s",
     lambda at: {t: kind.holds for t, kind in at.cls.kinds.items()}),
    ("VERDICT", "always", "grw", lambda at: at.cls.grw.passes),
    ("VERDICT", "fluid", "fluid_regime", lambda at: at.phantom.regime),
    ("VERDICT", "fluid", "eos_w", lambda at: at.phantom.w),
)
_VERDICT = {name: value for kind, _, name, value in ROWS if kind == "VERDICT"}


class _At:
    """What one point's rows read: connection ``c``, frame ``f``, curvature
    ``bundle``, verdicts ``cls``; the fluid's records on first use."""

    def __init__(self, setup: AnalysisSetup, c, bundle, cls):
        self.setup, self.c, self.f, self.bundle = setup, c, c.frame, bundle
        self.cls, self.tax, self.qe = cls, cls.taxonomy, cls.quasi_einstein

    @cached_property
    def efe(self):
        return efe_residual(self.bundle, self.setup.fluid)

    @cached_property
    def phantom(self):
        return phantom_verdict(self.efe.sigma, self.efe.p, self.setup.tol)

    def fluid_coefficients(self) -> float:
        """a - b = n - 1 at a GRW perfect fluid, and the rewrite of a, b."""
        kind, n1 = perfect_fluid_kind(self.bundle, self.qe), self.c.n - 1.0
        return max(scalar_residual(kind.a_minus_b - n1, n1),
                   kind.rewrite_residual)

    def gates(self) -> set:
        """The gates that hold here, read from this point's verdict tokens."""
        return {gate for gate, (need, _) in GATES.items()
                if (self.setup.fluid is not None if need is None else
                    all(fmt_value(_VERDICT[name](self)) == token
                        for name, token in need))}


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
    bundle = curvature_family(c)
    at = _At(setup, c, bundle,
             classify_point(setup.metric, setup.vector, bundle, setup.tol))
    held = at.gates()
    for kind, gate, name, value in ROWS:
        if gate in held:
            emit = rep.check if kind == "CHECK" else rep.verdict
            if "%s" in name:
                for key, v in value(at).items():
                    emit(name % key, idx, v)
            else:
                emit(name, idx, value(at))
