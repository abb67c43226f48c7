"""Field-equation checks for perfect-fluid sources built on the generator.

The stress tensor used throughout is

    tau = p g + (sigma + p) pi x pi

with sigma the energy density, p the pressure, and pi the covector of the
generator (for the physically meaningful cases pi is unit timelike, but the
formulas below never assume it).  The field equation checked is

    Ric - (r/2) g + lam g = k tau

in the mostly-plus signature, so vacuum de Sitter with the unit Hubble rate
closes exactly at lam = 3, k arbitrary, tau = 0.

The divergence of tau differentiates the fluid expressions too:

    div tau = dp + (dsigma + dp)(P) pi + (sigma + p) div(pi x pi).

For constant sigma and p the gradients vanish and div tau reduces to
(sigma + p) div(pi x pi), which the GRW identity div(pi x pi) = (n - 1) pi
turns into the phantom barrier: conservation holds iff sigma + p = 0.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .connection import SSConnection
from .curvature import CurvatureBundle
from .expr import Expr, parse
from .geometry import DEFAULT_TOL, residual as _residual, scalar_residual


class FluidParams(NamedTuple):
    """Perfect-fluid data: expressions for sigma and p, constants lam, k."""

    sigma: Expr
    p: Expr
    lam: float = 0.0
    k: float = 1.0

    @staticmethod
    def from_strings(coords, sigma: str = "0", p: str = "0",
                     lam: float = 0.0, k: float = 1.0) -> "FluidParams":
        return FluidParams(parse(sigma, coords), parse(p, coords),
                           float(lam), float(k))

    def values(self, point) -> tuple[float, float]:
        return self.sigma.val(point), self.p.val(point)

    def gradients(self, point) -> tuple[np.ndarray, np.ndarray]:
        return self.sigma.jet(point).grad, self.p.jet(point).grad


def stress_energy(c: SSConnection, sigma: float, p: float) -> np.ndarray:
    return p * c.frame.g + (sigma + p) * np.outer(c.pi, c.pi)


class EFEReport(NamedTuple):
    residual: float            # Ric - (r/2) g + lam g - k tau
    sigma: float
    p: float


def efe_residual(bundle: CurvatureBundle, fluid: FluidParams) -> EFEReport:
    c = bundle.connection
    f = c.frame
    sigma, p = fluid.values(f.point)
    tau = stress_energy(c, sigma, p)
    lhs = bundle.ricci["g"] - 0.5 * bundle.scalar["g"] * f.g + fluid.lam * f.g
    res = _residual(lhs - fluid.k * tau, f.g)
    return EFEReport(res, sigma, p)


def div_symmetric_2tensor(c: SSConnection, tau: np.ndarray,
                          dtau: np.ndarray) -> np.ndarray:
    """(div tau)_j = g^{ab} nabla_a tau_{bj} for the Levi-Civita connection.

    ``dtau[b, j, a]`` holds the coordinate derivative del_a tau_{bj}.
    """
    f = c.frame
    gamma = f.gamma
    cov = (dtau
           - np.einsum("mab,mj->bja", gamma, tau)
           - np.einsum("maj,bm->bja", gamma, tau))
    return np.einsum("ab,bja->j", f.ginv, cov)


def _d_pi_pi(c: SSConnection) -> np.ndarray:
    """del_a (pi_b pi_j), stored [b, j, a]."""
    return (np.einsum("ba,j->bja", c.dpi, c.pi)
            + np.einsum("b,ja->bja", c.pi, c.dpi))


def div_pi_pi(c: SSConnection) -> np.ndarray:
    """Divergence of pi x pi; equals (n - 1) pi for a GRW generator."""
    return div_symmetric_2tensor(c, np.outer(c.pi, c.pi), _d_pi_pi(c))


def div_tau(bundle: CurvatureBundle, fluid: FluidParams) -> np.ndarray:
    """div tau with sigma and p differentiated as expressions."""
    c = bundle.connection
    f = c.frame
    sigma, p = fluid.values(f.point)
    dsigma, dp = fluid.gradients(f.point)
    tau = stress_energy(c, sigma, p)
    pp = np.outer(c.pi, c.pi)
    dtau = (np.einsum("a,bj->bja", dp, f.g) + p * f.dg
            + np.einsum("a,bj->bja", dsigma + dp, pp)
            + (sigma + p) * _d_pi_pi(c))
    return div_symmetric_2tensor(c, tau, dtau)


class PhantomReport(NamedTuple):
    """Equation-of-state verdict at a point.

    regime is one of "undefined" (sigma ~ 0, so w = p / sigma is meaningless),
    "barrier" (sigma + p ~ 0, the w = -1 line), "phantom" (w < -1) or
    "ordinary".
    """

    w: float | None
    at_barrier: bool
    regime: str


def phantom_verdict(sigma: float, p: float,
                    tol: float = DEFAULT_TOL) -> PhantomReport:
    size = abs(sigma) + abs(p)
    at_barrier = scalar_residual(sigma + p, size) <= tol
    if scalar_residual(sigma, size) <= tol:
        return PhantomReport(None, at_barrier, "undefined")
    w = p / sigma
    if at_barrier:
        regime = "barrier"
    elif w < -1.0:
        regime = "phantom"
    else:
        regime = "ordinary"
    return PhantomReport(w, at_barrier, regime)
