"""Field-equation checks for perfect-fluid sources built on the generator.

The stress tensor used throughout is

    tau = p g + (sigma + p) pi x pi

with sigma the energy density, p the pressure, and pi the covector of the
generator (for the physically meaningful cases pi is unit timelike, but the
formulas below never assume it).  The field equation checked is

    Ric - (r/2) g + lam g = k tau

in the mostly-plus signature, so vacuum de Sitter with the unit Hubble rate
closes exactly at lam = 3, k arbitrary, tau = 0.

Divergences come in two modes:

* "constant" treats sigma and p as constants at the point, which reduces
  div tau to (sigma + p) div(pi x pi); this is the form the closed GRW
  identity div(pi x pi) = (n - 1) pi plugs into.
* "full" differentiates the fluid expressions too, so equations of state
  varying over the chart are handled without the constancy assumption.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .connection import SSConnection
from .curvature import CurvatureBundle
from .expr import Expr, parse
from .geometry import residual as _residual


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
    residual: float
    lhs: np.ndarray            # Ric - (r/2) g + lam g
    tau: np.ndarray
    sigma: float
    p: float


def efe_residual(bundle: CurvatureBundle, fluid: FluidParams) -> EFEReport:
    c = bundle.connection
    f = c.frame
    sigma, p = fluid.values(f.point)
    tau = stress_energy(c, sigma, p)
    lhs = bundle.ricci["g"] - 0.5 * bundle.scalar["g"] * f.g + fluid.lam * f.g
    res = _residual(lhs - fluid.k * tau, f.g)
    return EFEReport(res, lhs, tau, sigma, p)


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


def div_pi_pi(c: SSConnection) -> np.ndarray:
    """Divergence of pi x pi; equals (n - 1) pi for a GRW generator."""
    dpp = (np.einsum("ba,j->bja", c.dpi, c.pi)
           + np.einsum("b,ja->bja", c.pi, c.dpi))
    return div_symmetric_2tensor(c, np.outer(c.pi, c.pi), dpp)


def div_tau(bundle: CurvatureBundle, fluid: FluidParams,
            mode: str = "full") -> np.ndarray:
    c = bundle.connection
    f = c.frame
    sigma, p = fluid.values(f.point)
    if mode == "constant":
        return (sigma + p) * div_pi_pi(c)
    if mode != "full":
        raise ValueError("mode must be 'constant' or 'full'")
    dsigma, dp = fluid.gradients(f.point)
    tau = stress_energy(c, sigma, p)
    pp = np.outer(c.pi, c.pi)
    dpp = (np.einsum("ba,j->bja", c.dpi, c.pi)
           + np.einsum("b,ja->bja", c.pi, c.dpi))
    dtau = (np.einsum("a,bj->bja", dp, f.g) + p * np.einsum("bja->bja", f.dg)
            + np.einsum("a,bj->bja", dsigma + dp, pp) + (sigma + p) * dpp)
    return div_symmetric_2tensor(c, tau, dtau)


class PhantomReport(NamedTuple):
    """Equation-of-state verdict at a point.

    regime is one of "undefined" (sigma ~ 0, so w = p / sigma is meaningless),
    "barrier" (sigma + p ~ 0, the w = -1 line), "phantom" (w < -1) or
    "ordinary".
    """

    sigma: float
    p: float
    w: float | None
    at_barrier: bool
    regime: str


def phantom_verdict(sigma: float, p: float, tol: float = 1e-8) -> PhantomReport:
    scale = 1.0 + abs(sigma) + abs(p)
    at_barrier = abs(sigma + p) <= tol * scale
    if abs(sigma) <= tol * scale:
        return PhantomReport(sigma, p, None, at_barrier, "undefined")
    w = p / sigma
    if at_barrier:
        regime = "barrier"
    elif w < -1.0:
        regime = "phantom"
    else:
        regime = "ordinary"
    return PhantomReport(sigma, p, w, at_barrier, regime)
