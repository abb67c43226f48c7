"""Taxonomy of generator vector fields and of the spacetimes they generate.

Three layers:

* classify_vector — least-squares fit of nabla P = w X + eta(X) P per point,
  then the ladder of special cases (torqued, concircular, recurrent,
  concurrent, parallel, self-torse-forming, anti-torqued, geodesic, Killing).
* quasi-Einstein analysis — fit Ric = a g + b pi x pi, Einstein verdict,
  Einstein-type kinds theta via the traceless tensors E^theta, and the
  data-level equivalences between E^theta = 0 and the corresponding
  quasi-Einstein normal forms.
* GRW detection — unit timelike generator with nabla_X P = X + pi(X) P,
  plus the identity battery that structure implies (eigenvalue chain,
  parallel torsion, specialised Ricci forms, perfect-fluid coefficients).

Three size rules, each against the one tolerance tol:

* tensors by geometry.residual: max-norm over components divided by
  (1 + max |g_ij|) at the point;
* scalars (omega, pi(P), eta(P), the conformal factor, r) by geometry.close,
  whose threshold does not depend on the size of g;
* vectors and 1-forms (P; eta, eta - pi, eta + omega pi and pi itself) by
  their |g|-length, sqrt(P^T |g| P) or sqrt(v^T |g|^-1 v) with
  |g| = V |Lambda| V^T from eigh(g), which depends neither on the chart's
  scale nor on its signature.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .connection import SSConnection, build_connection, check_concircular
from .curvature import (THETAS, CurvatureBundle, einstein_closed_form,
                        nabla1_torsion)
from .fdcheck import fd_jacobian
from .geometry import MetricSpec, VectorFieldSpec, close, residual


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
    eta_hat: np.ndarray | None = None
    fit_residual: float | None = None
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
    conformal_factor: float | None = None
    killing: bool | None = None


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


def _form_small(v: np.ndarray, lam: np.ndarray, V: np.ndarray,
                tol: float) -> bool:
    """sqrt(v^T |g|^-1 v) <= tol for a 1-form v, |g|^-1 = V |Lambda|^-1 V^T."""
    return bool(np.sqrt(((V.T @ v) ** 2) @ (1.0 / np.abs(lam))) <= tol)


def classify_vector(m: MetricSpec, p: VectorFieldSpec, c: SSConnection,
                    tol: float = 1e-8) -> VectorTaxonomy:
    """Taxonomy of c's generator; m and p rebuild c nearby for d eta."""
    f = c.frame
    # vanishing P: sqrt(P^T |g| P) with |g| = V |Lambda| V^T, a length that
    # does not depend on the chart's scale or signature
    lam, V = np.linalg.eigh(f.g)
    if np.sqrt(np.abs(lam) @ (V.T @ c.P) ** 2) <= tol:
        return VectorTaxonomy(indeterminate=True)

    M = c.nabla_P()  # [k, i]
    w, eta = _fit_torse(M, c.P)
    fit_res = residual(M - w * np.eye(c.n) - np.outer(c.P, eta), f.g)
    torse = fit_res <= tol

    eta_small = _form_small(eta, lam, V, tol)
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
        eta_hat=eta,
        fit_residual=fit_res,
        torse_forming=torse,
        torqued=torse and close(eta_P, 0.0, tol),
        concircular_fialkow=torse and eta_small,
        concircular_yano=yano,
        recurrent=torse and w_zero,
        concurrent=torse and eta_small and w_one,
        parallel=torse and eta_small and w_zero,
        self_torse_forming=torse and _form_small(eta - c.pi, lam, V, tol),
        anti_torqued=torse and _form_small(eta + w * c.pi, lam, V, tol),
        geodesic=residual(np.einsum("ki,i->k", M, c.P), f.g) <= tol,
        unit_timelike=close(c.pi_P, -1.0, tol),
        unit_spacelike=close(c.pi_P, 1.0, tol),
        conformal_killing=conformal,
        conformal_factor=factor,
        killing=conformal and close(factor, 0.0, tol),
    )


# ---------------------------------------------------------------------------
# quasi-Einstein structure
# ---------------------------------------------------------------------------


class RicciData:
    """Bare (g, Ric, pi) triple; enough for every data-level theorem here.

    ``ginv`` may be given when g^-1 is already known (``from_bundle``);
    otherwise it is inverted on first use, once.
    """

    __slots__ = ("g", "ric", "pi", "_ginv")

    def __init__(self, g: np.ndarray, ric: np.ndarray, pi: np.ndarray,
                 ginv: np.ndarray | None = None):
        self.g = g
        self.ric = ric
        self.pi = pi
        self._ginv = ginv

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
        return RicciData(c.frame.g, bundle.ricci["g"], c.pi, c.frame.ginv)


class QuasiEinsteinFit(NamedTuple):
    a: float
    b: float
    residual: float
    quasi_einstein: bool
    einstein: bool
    b_identifiable: bool


def classify_quasi_einstein(d: RicciData, tol: float = 1e-8) -> QuasiEinsteinFit:
    """Least-squares Ric = a g + b pi x pi with an Einstein special case."""
    pp = np.outer(d.pi, d.pi)
    gg = float(np.sum(d.g * d.g))
    lam, V = np.linalg.eigh(d.g)
    if _form_small(d.pi, lam, V, tol):
        a = float(np.sum(d.g * d.ric)) / gg
        b, identifiable = 0.0, False
    else:
        identifiable = True
        gram = np.array([[gg, float(np.sum(d.g * pp))],
                         [float(np.sum(d.g * pp)), float(np.sum(pp * pp))]])
        rhs = np.array([float(np.sum(d.g * d.ric)),
                        float(np.sum(pp * d.ric))])
        a, b = np.linalg.solve(gram, rhs)
    res = residual(d.ric - a * d.g - b * pp, d.g)
    einstein = residual(d.ric - (d.r / d.n) * d.g, d.g) <= tol
    return QuasiEinsteinFit(float(a), float(b), res, res <= tol,
                            einstein, identifiable)


class KindVerdict(NamedTuple):
    residual: float
    holds: bool


def einstein_type(theta, bundle: CurvatureBundle,
                  tol: float = 1e-8) -> KindVerdict:
    """Does E^theta vanish?"""
    res = residual(bundle.einstein[theta], bundle.frame.g)
    return KindVerdict(res, res <= tol)


# E^theta = 0 iff Ric = a g + b pi x pi.  theta -> (a(n, r, pi(P)), b(n),
# r_GRW(n)), where r_GRW is the scalar curvature the form forces when pi is
# unit timelike.
KINDS = {
    0: (lambda n, r, pP: (4.0 * r - (n - 1) * pP) / (4.0 * n),
        lambda n: (n - 1) / 4.0,
        lambda n: (n - 1) * (5 * n - 1) / 4.0),
    4: (lambda n, r, pP: (r - (n - 1) * pP) / float(n),
        lambda n: float(n - 1),
        lambda n: (n - 1) * (2 * n - 1.0)),
    5: (lambda n, r, pP: (2.0 * r - (n - 1) * pP) / (2.0 * n),
        lambda n: (n - 1) / 2.0,
        lambda n: (n - 1) * (3 * n - 1) / 2.0),
}


class EquivalenceReport(NamedTuple):
    """Both directions of `E^theta = 0 iff Ric has the theta normal form`."""

    e_residual: float
    form_residual: float
    e_holds: bool
    form_holds: bool
    consistent: bool
    grw_kind_r: float | None      # expected scalar for unit timelike pi
    r: float
    grw_kind_matches: bool | None


def quasi_einstein_equivalences(theta: int, d: RicciData,
                                tol: float = 1e-8) -> EquivalenceReport:
    if theta not in KINDS:
        raise ValueError("equivalences are stated for families 0, 4, 5")
    a_of, b_of, r_of = KINDS[theta]
    n, r, pP = d.n, d.r, d.pi_P
    e_g = d.ric - (r / n) * d.g  # E^theta from data, no curvature bundle
    e_res = residual(einstein_closed_form(theta, e_g, d.g, d.pi, pP), d.g)
    form = a_of(n, r, pP) * d.g + b_of(n) * np.outer(d.pi, d.pi)
    form_res = residual(d.ric - form, d.g)
    e_holds, form_holds = e_res <= tol, form_res <= tol

    kind_r = None
    kind_match = None
    if close(pP, -1.0, tol):
        kind_r = r_of(n)
        kind_match = close(r, kind_r, tol)
    return EquivalenceReport(e_res, form_res, e_holds, form_holds,
                             e_holds == form_holds, kind_r, r,
                             kind_match if form_holds else None)


# ---------------------------------------------------------------------------
# GRW detection and its identity battery
# ---------------------------------------------------------------------------


class GRWReport(NamedTuple):
    lorentzian: bool
    unit_timelike: bool
    generator_residual: float     # nabla_X P - X - pi(X) P
    passes: bool


def grw_detect(c: SSConnection, tol: float = 1e-8) -> GRWReport:
    f = c.frame
    lorentzian = f.lorentzian
    unit = close(c.pi_P, -1.0, tol)
    gen_res = residual(c.nabla_P() - np.eye(c.n) - np.outer(c.P, c.pi), f.g)
    passes = lorentzian and unit and gen_res <= tol
    return GRWReport(lorentzian, unit, gen_res, passes)


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
    put("ric0_eigen", 4.0 * bundle.ricci[0] @ P - target)
    put("ric4_eigen", bundle.ricci[4] @ P - target)
    put("ric5_eigen", 2.0 * bundle.ricci[5] @ P - target)

    put("nabla1_torsion", nabla1_torsion(c))

    put("ric0_form", bundle.ricci[0] - (ric_g - 0.25 * (n - 1) * (4 * f.g + pp)))
    for t in (1, 2, 3):
        put("ric%d_form" % t, bundle.ricci[t] - (ric_g - (n - 1.0) * f.g))
    put("ric4_form", bundle.ricci[4] - (ric_g - (n - 1.0) * (f.g + pp)))
    put("ric5_form", bundle.ricci[5] - (ric_g - 0.5 * (n - 1) * (2 * f.g + pp)))

    npi = c.nabla_pi()  # [i, a]
    put("nabla_P_pi", np.einsum("ia,a->i", npi, P))
    put("lie_P_pi", c.lie_P_pi())
    put("torsion_of_P", np.einsum("kij,i->kj", c.torsion, P) - c.nabla_P())
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
    rewrite = max(abs(fit.a - (r / (n - 1.0) - 1.0)),
                  abs(fit.b - (r / (n - 1.0) - n)))
    return FluidKindReport(fit.a - fit.b, rewrite / (1.0 + abs(r)))


# ---------------------------------------------------------------------------
# one-call point classification
# ---------------------------------------------------------------------------


class ClassificationReport(NamedTuple):
    concircular: bool
    concircular_residual: float
    taxonomy: VectorTaxonomy
    quasi_einstein: QuasiEinsteinFit
    kinds: dict                    # theta -> KindVerdict
    grw: GRWReport


def classify_point(m: MetricSpec, p: VectorFieldSpec, bundle: CurvatureBundle,
                   tol: float = 1e-8) -> ClassificationReport:
    """Every per-point verdict on (g, P); the analysis emits these rows."""
    c = bundle.connection
    conc = check_concircular(c, tol)
    return ClassificationReport(
        conc.holds, conc.residual,
        classify_vector(m, p, c, tol),
        classify_quasi_einstein(RicciData.from_bundle(bundle), tol),
        {t: einstein_type(t, bundle, tol) for t in THETAS},
        grw_detect(c, tol))
