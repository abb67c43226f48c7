"""Taxonomy of generator vector fields and of the spacetimes they generate.

Three layers:

* classify_vector — least-squares fit of nabla P = w X + eta(X) P per point,
  then the ladder of special cases (torqued, concircular, recurrent,
  concurrent, parallel, self-torse-forming, anti-torqued, geodesic, Killing).
* quasi-Einstein analysis — fit Ric = a g + b pi x pi, Einstein-type
  kinds theta via the traceless tensors E^theta (theta = g, E^g =
  Ric - (r/n) g, is the Einstein verdict), and the data-level
  equivalences between E^theta = 0 and the corresponding quasi-Einstein
  normal forms.
* GRW detection — unit timelike generator with nabla_X P = X + pi(X) P,
  plus the identity battery that structure implies (eigenvalue chain,
  parallel torsion, specialised Ricci forms, div(pi x pi) = (n - 1) pi),
  and the perfect-fluid coefficients.

Every verdict is a size against the one tolerance tol, measured by a rule
of geometry: tensors by residual, scalars by close, 1-forms by form_length.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .connection import (ConditionReport, SSConnection, build_connection,
                         check_concircular)
from .curvature import (FAMILIES, THETAS, CurvatureBundle,
                        einstein_closed_form, nabla1_torsion)
from .fdcheck import fd_jacobian
from .geometry import (DEFAULT_TOL, MetricSpec, VectorFieldSpec, close,
                       form_length, require_finite, residual,
                       scalar_residual)
from .relativity import div_pi_pi


# ---------------------------------------------------------------------------
# vector-field taxonomy
# ---------------------------------------------------------------------------


class VectorTaxonomy(NamedTuple):
    """Pointwise classification of the generator.

    When the field vanishes at the point the fit is unidentifiable; then
    ``indeterminate`` is True and every verdict is None rather than defaulted.
    """

    indeterminate: bool
    omega_hat: float | None = None
    fit_residual: float | None = None
    conformal_factor: float | None = None
    torse_forming: bool | None = None
    torqued: bool | None = None
    concircular_fialkow: bool | None = None   # eta = 0
    concircular_yano: bool | None = None      # d eta = 0 (finite-differenced)
    recurrent: bool | None = None             # w = 0
    concurrent: bool | None = None            # eta = 0, w = 1
    parallel: bool | None = None              # eta = 0, w = 0
    self_torse_forming: bool | None = None    # eta = pi
    anti_torqued: bool | None = None          # eta = -w pi
    geodesic: bool | None = None
    unit_timelike: bool | None = None
    unit_spacelike: bool | None = None
    conformal_killing: bool | None = None
    killing: bool | None = None


# The boolean VectorTaxonomy fields, in the order of their VERDICT rows.
TAXONOMY_FLAGS = VectorTaxonomy._fields[
    VectorTaxonomy._fields.index("conformal_factor") + 1:]


def _fit_torse(nabla_p: np.ndarray, P: np.ndarray):
    """Exact normal equations for nabla_i P^k = w d^k_i + P^k eta_i."""
    n = P.shape[0]
    A = np.zeros((n + 1, n + 1))
    A[0, 0] = n
    A[0, 1:] = P
    A[1:, 0] = P
    A[1:, 1:] = (P @ P) * np.eye(n)
    rhs = np.zeros(n + 1)
    rhs[0] = np.trace(nabla_p)
    rhs[1:] = P @ nabla_p
    sol = np.linalg.solve(A, rhs)
    return float(sol[0]), sol[1:]


def classify_vector(m: MetricSpec, p: VectorFieldSpec, c: SSConnection,
                    tol: float = DEFAULT_TOL) -> VectorTaxonomy:
    """Taxonomy of c's generator; m and p rebuild c nearby for d eta."""
    f = c.frame
    lam, V = np.linalg.eigh(f.g)
    # P vanishes when pi = g P does: pi's length under |g|^-1 is P's under |g|
    if form_length(c.pi, lam, V) <= tol:
        return VectorTaxonomy(indeterminate=True)

    M = c.nabla_P()  # [k, i]
    w, eta = _fit_torse(M, c.P)
    fit_res = residual(M - w * np.eye(c.n) - np.outer(c.P, eta), f.g)
    torse = fit_res <= tol

    eta_small = form_length(eta, lam, V) <= tol
    w_zero = close(w, 0.0, tol)
    w_one = close(w, 1.0, tol)
    eta_P = float(eta @ c.P)

    yano = None
    if torse:
        def eta_field(q):
            cq = build_connection(m, p, q)
            return _fit_torse(cq.nabla_P(), cq.P)[1]

        deta = fd_jacobian(eta_field, f.point)  # [i, a] = del_a eta_i
        yano = residual(deta - deta.T, f.g) <= tol

    lie_g = c.lie_P_g()
    factor = float(np.einsum("ij,ij->", f.ginv, lie_g)) / (2.0 * c.n)
    conf_res = residual(lie_g - 2.0 * factor * f.g, f.g)
    conformal = conf_res <= tol

    return VectorTaxonomy(
        indeterminate=False,
        omega_hat=w,
        fit_residual=fit_res,
        conformal_factor=factor,
        torse_forming=torse,
        torqued=torse and close(eta_P, 0.0, tol),
        concircular_fialkow=torse and eta_small,
        concircular_yano=yano,
        recurrent=torse and w_zero,
        concurrent=torse and eta_small and w_one,
        parallel=torse and eta_small and w_zero,
        self_torse_forming=torse and form_length(eta - c.pi, lam, V) <= tol,
        anti_torqued=torse and form_length(eta + w * c.pi, lam, V) <= tol,
        geodesic=residual(np.einsum("ki,i->k", M, c.P), f.g) <= tol,
        unit_timelike=close(c.pi_P, -1.0, tol),
        unit_spacelike=close(c.pi_P, 1.0, tol),
        conformal_killing=conformal,
        killing=conformal and close(factor, 0.0, tol),
    )


# ---------------------------------------------------------------------------
# quasi-Einstein structure
# ---------------------------------------------------------------------------


class RicciData:
    """Bare (g, Ric, pi) triple; enough for every data-level theorem here.

    ``ginv`` may be given when g^-1 is already known (``from_bundle``);
    otherwise it is inverted on first use, once.  ``point``, where the data
    were taken, names the point in a non-finite error.
    """

    __slots__ = ("g", "ric", "pi", "_ginv", "point")

    def __init__(self, g: np.ndarray, ric: np.ndarray, pi: np.ndarray,
                 ginv: np.ndarray | None = None, point=None):
        self.g = g
        self.ric = ric
        self.pi = pi
        self._ginv = ginv
        self.point = point

    @property
    def n(self) -> int:
        return self.g.shape[0]

    @property
    def ginv(self) -> np.ndarray:
        """g^-1, symmetrised as in geometry.frame_at."""
        if self._ginv is None:
            inv = np.linalg.inv(self.g)
            self._ginv = 0.5 * (inv + inv.T)
        return self._ginv

    @property
    def r(self) -> float:
        return float(np.einsum("ab,ab->", self.ginv, self.ric))

    @property
    def pi_P(self) -> float:
        return float(self.pi @ self.ginv @ self.pi)

    @staticmethod
    def from_bundle(bundle: CurvatureBundle) -> "RicciData":
        """Levi-Civita data, reusing the frame's g^-1 (same bits)."""
        c = bundle.connection
        return RicciData(c.frame.g, bundle.ricci["g"], c.pi, c.frame.ginv,
                         c.frame.point)


class QuasiEinsteinFit(NamedTuple):
    a: float
    b: float
    residual: float
    quasi_einstein: bool
    b_identifiable: bool


def classify_quasi_einstein(d: RicciData,
                            tol: float = DEFAULT_TOL) -> QuasiEinsteinFit:
    """Least-squares Ric = a g + b pi x pi."""
    pp = np.outer(d.pi, d.pi)
    with np.errstate(over="ignore", invalid="ignore"):
        gp = np.sum(d.g * pp)
        gram = np.array([[np.sum(d.g * d.g), gp], [gp, np.sum(pp * pp)]])
        rhs = np.array([np.sum(d.g * d.ric), np.sum(pp * d.ric)])
    require_finite("quasi-Einstein fit", d.point, gram, rhs)
    lam, V = np.linalg.eigh(d.g)
    if form_length(d.pi, lam, V) <= tol:
        a = rhs[0] / gram[0, 0]
        b, identifiable = 0.0, False
    else:
        identifiable = True
        a, b = np.linalg.solve(gram, rhs)
    res = residual(d.ric - a * d.g - b * pp, d.g)
    return QuasiEinsteinFit(float(a), float(b), res, res <= tol, identifiable)


def einstein_type(theta, bundle: CurvatureBundle,
                  tol: float = DEFAULT_TOL) -> ConditionReport:
    """Does E^theta vanish?"""
    res = residual(bundle.einstein[theta], bundle.frame.g)
    return ConditionReport(res, res <= tol)


# The families with d != 0: E^theta = 0 iff Ric = a g + b pi x pi with
# b = d(n-1) and a = (r - b pi(P))/n.  r_GRW = (n-1)(n + b) is the scalar
# curvature that form forces when pi is unit timelike.
KINDS = tuple(t for t in THETAS if FAMILIES[t].d)


def kind_form(theta, n: int):
    """(b, r_GRW) of kind theta in dimension n."""
    b = FAMILIES[theta].d * (n - 1.0)
    return b, (n - 1) * (n + b)


class EquivalenceReport(NamedTuple):
    """Both directions of `E^theta = 0 iff Ric has the theta normal form`."""

    e_residual: float
    form_residual: float
    e_holds: bool
    form_holds: bool
    consistent: bool
    r: float
    grw_kind_matches: bool | None


def quasi_einstein_equivalences(
        theta: int, d: RicciData,
        tol: float = DEFAULT_TOL) -> EquivalenceReport:
    if theta not in KINDS:
        raise ValueError("equivalences are stated for families %s" % (KINDS,))
    n, r, pP = d.n, d.r, d.pi_P
    b, kind_r = kind_form(theta, n)
    e_g = d.ric - (r / n) * d.g  # E^theta from data, no curvature bundle
    e_res = residual(einstein_closed_form(theta, e_g, d.g, d.pi, pP), d.g)
    form = (r - b * pP) / n * d.g + b * np.outer(d.pi, d.pi)
    form_res = residual(d.ric - form, d.g)
    e_holds, form_holds = e_res <= tol, form_res <= tol

    # the scalar the form forces, checked when pi is unit timelike
    kind_match = close(r, kind_r, tol) if close(pP, -1.0, tol) else None
    return EquivalenceReport(e_res, form_res, e_holds, form_holds,
                             e_holds == form_holds, r,
                             kind_match if form_holds else None)


# ---------------------------------------------------------------------------
# GRW detection and its identity battery
# ---------------------------------------------------------------------------


class GRWReport(NamedTuple):
    generator_residual: float     # nabla_X P - X - pi(X) P
    passes: bool                  # and g Lorentzian, pi(P) = -1


def grw_detect(c: SSConnection, tol: float = DEFAULT_TOL) -> GRWReport:
    f = c.frame
    gen_res = residual(c.nabla_P() - np.eye(c.n) - np.outer(c.P, c.pi), f.g)
    passes = f.lorentzian and close(c.pi_P, -1.0, tol) and gen_res <= tol
    return GRWReport(gen_res, passes)


def grw_identity_suite(bundle: CurvatureBundle) -> dict:
    """Residuals of the identities a GRW generator forces; keys by content."""
    c = bundle.connection
    f = c.frame
    n = c.n
    pi, P = c.pi, c.P
    pp = np.outer(pi, pi)
    ric_g = bundle.ricci["g"]
    out = {}

    def put(name, arr):
        out[name] = residual(arr, f.g)

    target = (n - 1.0) * pi
    put("ric1_of_P", bundle.ricci[1] @ P)
    put("ric_g_eigen", ric_g @ P - target)
    for t in KINDS:
        put("ric%d_eigen" % t,
            (1 / FAMILIES[t].d) * bundle.ricci[t] @ P - target)

    put("nabla1_torsion", nabla1_torsion(c))

    # omega = 1 and pi(P) = -1 make every c(n-1)(a omega + b pi(P)) = n - 1
    for t in THETAS[1:]:
        put("ric%d_form" % t, bundle.ricci[t]
            - (ric_g - (n - 1) * (f.g + FAMILIES[t].d * pp)))

    npi = c.nabla_pi()  # [i, a]
    put("nabla_P_pi", np.einsum("ia,a->i", npi, P))
    put("lie_P_pi", c.lie_P_pi())
    put("torsion_of_P", np.einsum("kij,i->kj", c.torsion, P) - c.nabla_P())
    put("divergence_identity", div_pi_pi(c) - target)
    return out


# ---------------------------------------------------------------------------
# perfect-fluid coefficients
# ---------------------------------------------------------------------------


class FluidKindReport(NamedTuple):
    """The GRW coefficient identities on the Levi-Civita fit."""

    a_minus_b: float               # n - 1 at a GRW point
    rewrite_residual: float        # a = r/(n-1) - 1, b = r/(n-1) - n


def perfect_fluid_kind(bundle: CurvatureBundle,
                       fit: QuasiEinsteinFit) -> FluidKindReport:
    """fit is classify_quasi_einstein on RicciData.from_bundle(bundle)."""
    n = bundle.n
    r = bundle.scalar["g"]
    rewrite = max(scalar_residual(fit.a - (r / (n - 1.0) - 1.0), r),
                  scalar_residual(fit.b - (r / (n - 1.0) - n), r))
    return FluidKindReport(fit.a - fit.b, rewrite)


# ---------------------------------------------------------------------------
# one-call point classification
# ---------------------------------------------------------------------------


class ClassificationReport(NamedTuple):
    concircular: bool
    concircular_residual: float
    taxonomy: VectorTaxonomy
    quasi_einstein: QuasiEinsteinFit
    kinds: dict                    # theta -> ConditionReport
    grw: GRWReport


def classify_point(m: MetricSpec, p: VectorFieldSpec, bundle: CurvatureBundle,
                   tol: float = DEFAULT_TOL) -> ClassificationReport:
    """Every per-point verdict on (g, P); the analysis emits these rows."""
    c = bundle.connection
    conc = check_concircular(c, tol)
    return ClassificationReport(
        conc.holds, conc.residual,
        classify_vector(m, p, c, tol),
        classify_quasi_einstein(RicciData.from_bundle(bundle), tol),
        {t: einstein_type(t, bundle, tol) for t in THETAS},
        grw_detect(c, tol))
