"""The six curvature tensors of the torsionful connection, plus closed forms.

A connection with torsion admits six natural curvature-type tensors, built
from the curvature R1 of nabla1, covariant derivatives of the torsion, and
quadratic torsion terms.  With the cyclic sum S over (X, Y, Z):

    R0 = R1 - 1/2 (nabla1_X T)(Y,Z) + 1/2 (nabla1_Y T)(X,Z)
            - 1/4 S T(T(X,Y),Z) - 1/4 T(T(X,Y),Z)
    R2 = R1 - (nabla1_X T)(Y,Z) + (nabla1_Y T)(X,Z) - S T(T(X,Y),Z)
    R3 = R1 + (nabla1_Y T)(X,Z)
    R4 = R1 + (nabla1_Y T)(X,Z) - T(T(X,Y),Z)
    R5 = R1 - 1/2 (nabla1_X T)(Y,Z) + 1/2 (nabla1_Y T)(X,Z)
            - 1/2 S T(T(X,Y),Z) + 1/2 T(T(Z,X),Y)

(assembled verbatim; for this torsion type the cyclic sum vanishes
identically, which the tests assert).  Ricci tensors contract the direction
slot, scalars trace with g, and E^theta = Ric^theta - (r^theta/n) g.

When the generator is concircular, Ric^theta = Ric^g - c(n-1)(a omega +
b pi(P)) g - d(n-1) pi x pi with the four numbers (c, a, b, d) of FAMILIES.
closed_form_ricci is that law and einstein_closed_form its traceless part;
classify derives the Einstein-type kinds (d != 0) and the GRW battery from
the same rows.  closed_form_scalar keeps one expression per family: its
trace identities hold for any generator, each in the float order that the
printed scalar_relation rows were fixed with.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .connection import SSConnection
from .geometry import (require_finite, residual, ricci_from_riemann,
                       riemann_from_gamma, scalar_residual)


class Family(NamedTuple):
    """Ric^theta = Ric - c(n-1)(a omega + b pi(P)) g - d(n-1) pi x pi."""

    c: float
    a: float
    b: float
    d: float


# The concircular closed forms of every family; the laws below, the
# quasi-Einstein kinds and the GRW battery are all derived from this table.
FAMILIES = {
    "g": Family(0, 0, 0, 0),
    0: Family(0.5, 3, 1, 0.25),
    1: Family(1, 2, 1, 0),
    2: Family(1, 1, 0, 0),
    3: Family(1, 1, 0, 0),
    4: Family(1, 1, 0, 1),
    5: Family(0.5, 3, 1, 0.5),
}
THETAS = tuple(FAMILIES)


def family(theta) -> Family:
    """FAMILIES[theta], or ValueError for an unknown family."""
    if theta not in FAMILIES:
        raise ValueError("unknown curvature family %r" % (theta,))
    return FAMILIES[theta]


class CurvatureBundle(NamedTuple):
    """All curvature families of one connection at one point."""

    connection: SSConnection
    riemann: dict     # theta -> [l,k,i,j]
    ricci: dict       # theta -> [a,b]
    scalar: dict      # theta -> float
    einstein: dict    # theta -> [a,b], g-traceless by construction

    @property
    def frame(self):
        return self.connection.frame

    @property
    def n(self) -> int:
        return self.connection.n


def nabla1_torsion(c: SSConnection) -> np.ndarray:
    """(nabla1_a T)^l_ij with the full connection on every slot, [l,i,j,a]."""
    return (c.dtorsion
            + np.einsum("lam,mij->lija", c.gamma1, c.torsion)
            - np.einsum("mai,lmj->lija", c.gamma1, c.torsion)
            - np.einsum("maj,lim->lija", c.gamma1, c.torsion))


def torsion_squares(c: SSConnection):
    """F(A,B,C) = T(T(A,B),C) in R-layout, its cyclic sum, and F(Z,X,Y)."""
    ff = np.einsum("lmc,mab->labc", c.torsion, c.torsion)
    f_xyz = np.einsum("lijk->lkij", ff)
    f_yzx = np.einsum("ljki->lkij", ff)
    f_zxy = ff  # [l, a=Z, b=X, c=Y] is already R-layout
    return f_xyz, f_xyz + f_yzx + f_zxy, f_zxy


def curvature_family(c: SSConnection) -> CurvatureBundle:
    f = c.frame
    n = c.n
    with np.errstate(over="ignore", invalid="ignore"):
        nt = nabla1_torsion(c)
        add_xt = np.einsum("ljki->lkij", nt)   # (nabla1_X T)(Y, Z)
        add_yt = np.einsum("likj->lkij", nt)   # (nabla1_Y T)(X, Z)
        f_xyz, cyc, f_zxy = torsion_squares(c)

        r1 = riemann_from_gamma(c.gamma1, c.dgamma1)
        riem = {
            "g": riemann_from_gamma(f.gamma, f.dgamma),
            0: r1 - 0.5 * add_xt + 0.5 * add_yt - 0.25 * cyc - 0.25 * f_xyz,
            1: r1,
            2: r1 - add_xt + add_yt - cyc,
            3: r1 + add_yt,
            4: r1 + add_yt - f_xyz,
            5: r1 - 0.5 * add_xt + 0.5 * add_yt - 0.5 * cyc + 0.5 * f_zxy,
        }
    require_finite("Riemann tensor", f.point, *riem.values())
    ricci = {t: ricci_from_riemann(r) for t, r in riem.items()}
    scalar = {t: float(np.einsum("ab,ab->", f.ginv, r))
              for t, r in ricci.items()}
    einstein = {t: ricci[t] - (scalar[t] / n) * f.g for t in THETAS}
    return CurvatureBundle(c, riem, ricci, scalar, einstein)


def closed_form_ricci(theta, c: SSConnection,
                      ric_g: np.ndarray) -> np.ndarray:
    """Concircular-case Ricci of family theta from Levi-Civita data."""
    fam, n = family(theta), c.n
    return (ric_g
            - fam.c * (n - 1) * (fam.a * c.omega + fam.b * c.pi_P) * c.frame.g
            - fam.d * (n - 1) * np.outer(c.pi, c.pi))


def closed_form_scalar(theta, c: SSConnection, r_g: float) -> float:
    """Trace counterparts; these hold for *any* generator with trace-omega."""
    n = c.n
    w, pP = c.omega, c.pi_P
    if theta == "g":
        return r_g
    if theta == 0:
        return r_g - 1.5 * n * (n - 1) * w - 0.25 * (n - 1) * (2 * n + 1) * pP
    if theta == 1:
        return r_g - 2.0 * n * (n - 1) * (w + 0.5 * pP)
    if theta in (2, 3):
        return r_g - n * (n - 1) * w
    if theta == 4:
        return r_g - n * (n - 1) * w - (n - 1) * pP
    if theta == 5:
        return r_g - 1.5 * n * (n - 1) * w - 0.5 * (n * n - 1) * pP
    raise ValueError("unknown curvature family %r" % (theta,))


def einstein_closed_form(theta, e_g: np.ndarray, g: np.ndarray,
                         pi: np.ndarray, pi_P: float) -> np.ndarray:
    """E^theta = E^g + d(n-1)/n pi(P) g - d(n-1) pi x pi, concircular case."""
    d, n = family(theta).d, g.shape[0]
    if not d:
        return e_g
    return e_g + d * (n - 1) / n * pi_P * g - d * (n - 1) * np.outer(pi, pi)


def ricci_relations(bundle: CurvatureBundle) -> dict:
    """Residuals of Ric^theta against closed_form_ricci, theta = 0..5."""
    c = bundle.connection
    ric_g, g = bundle.ricci["g"], c.frame.g
    return {t: residual(closed_form_ricci(t, c, ric_g) - bundle.ricci[t], g)
            for t in THETAS[1:]}


def scalar_relations(bundle: CurvatureBundle) -> dict:
    """scalar_residual of r^theta against closed_form_scalar, theta = 0..5,
    with r^g as the reference."""
    c = bundle.connection
    r_g = bundle.scalar["g"]
    return {t: scalar_residual(
                closed_form_scalar(t, c, r_g) - bundle.scalar[t], r_g)
            for t in THETAS[1:]}


def einstein_relations(bundle: CurvatureBundle) -> dict:
    """Residuals of E^theta against einstein_closed_form, theta = 0..5."""
    c = bundle.connection
    g = c.frame.g
    e_g = bundle.einstein["g"]
    return {t: residual(bundle.einstein[t]
                        - einstein_closed_form(t, e_g, g, c.pi, c.pi_P), g)
            for t in THETAS[1:]}
