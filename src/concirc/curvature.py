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

When the generator is concircular each Ric^theta and r^theta collapses to a
closed form in Ric^g, r^g, omega, pi(P) and pi x pi; those right-hand sides
live in closed_form_ricci / closed_form_scalar and anchor the assembly.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .connection import SSConnection
from .geometry import (require_finite, residual, ricci_from_riemann,
                       riemann_from_gamma)

THETAS = ("g", 0, 1, 2, 3, 4, 5)


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
    n = c.n
    g = c.frame.g
    pp = np.outer(c.pi, c.pi)
    w, pP = c.omega, c.pi_P
    if theta == "g":
        return ric_g
    if theta == 0:
        return ric_g - 0.5 * (n - 1) * (3 * w + pP) * g - 0.25 * (n - 1) * pp
    if theta == 1:
        return ric_g - (n - 1) * (2 * w + pP) * g
    if theta in (2, 3):
        return ric_g - (n - 1) * w * g
    if theta == 4:
        return ric_g - (n - 1) * w * g - (n - 1) * pp
    if theta == 5:
        return ric_g - 0.5 * (n - 1) * (3 * w + pP) * g - 0.5 * (n - 1) * pp
    raise ValueError("unknown curvature family %r" % (theta,))


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
    """E^theta from E^g, pi(P) and pi x pi.

    The traceless tensors satisfy E^1 = E^2 = E^3 = E^g and

        E^0 = E^g + (n-1)/(4n) pi(P) g - (n-1)/4  pi x pi
        E^4 = E^g + (n-1)/n   pi(P) g - (n-1)    pi x pi
        E^5 = E^g + (n-1)/(2n) pi(P) g - (n-1)/2  pi x pi

    whenever the generator is concircular.
    """
    n = g.shape[0]
    if theta in ("g", 1, 2, 3):
        return e_g
    pp = np.outer(pi, pi)
    if theta == 0:
        return e_g + (n - 1) / (4.0 * n) * pi_P * g - 0.25 * (n - 1) * pp
    if theta == 4:
        return e_g + (n - 1) / float(n) * pi_P * g - float(n - 1) * pp
    if theta == 5:
        return e_g + (n - 1) / (2.0 * n) * pi_P * g - 0.5 * (n - 1) * pp
    raise ValueError("unknown curvature family %r" % (theta,))


def einstein_relations(bundle: CurvatureBundle) -> dict:
    """Residuals of E^theta against einstein_closed_form, theta = 0..5."""
    c = bundle.connection
    g = c.frame.g
    e_g = bundle.einstein["g"]
    return {t: residual(bundle.einstein[t]
                        - einstein_closed_form(t, e_g, g, c.pi, c.pi_P), g)
            for t in (0, 1, 2, 3, 4, 5)}
