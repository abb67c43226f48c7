"""Semi-symmetric metric connection generated by a vector field.

Given a metric g and generator P with lowered 1-form pi = g(P, .), the
connection studied here is

    nabla1_X Y = nabla_X Y + pi(Y) X - g(X, Y) P,

with torsion T(X, Y) = pi(Y) X - pi(X) Y.  It is metric (nabla1 g = 0).  The
generator is *concircular* when

    (nabla_X pi)(Y) - pi(X) pi(Y) = omega g(X, Y)           (concircularity)

for the scalar omega = (div P - pi(P)) / n, which is always computed from that
trace formula here, never fitted.  An equivalent statement used as a
cross-check is that s(X,Y) = (nabla_X pi)(Y) - pi(X)pi(Y) + (1/2)pi(P) g(X,Y)
is pure trace, s = mu g with mu = omega + (1/2)pi(P).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .geometry import (DEFAULT_TOL, MetricSpec, PointFrame, VectorFieldSpec,
                       frame_at, nabla_metric, require_finite, residual)


class SSConnection(NamedTuple):
    """Connection data at a point: coefficients, torsion, their derivatives."""

    frame: PointFrame
    P: np.ndarray          # P^k
    dP: np.ndarray         # dP[k,a] = del_a P^k
    pi: np.ndarray         # pi_i = g_ij P^j
    dpi: np.ndarray        # dpi[i,a] = del_a pi_i
    gamma1: np.ndarray     # Gamma1^k_ij, first lower index = direction
    dgamma1: np.ndarray    # del_a Gamma1^k_ij, derivative axis last
    torsion: np.ndarray    # T^k_ij = pi_j d^k_i - pi_i d^k_j
    dtorsion: np.ndarray
    omega: float
    div_P: float

    @property
    def n(self) -> int:
        return self.frame.n

    @property
    def pi_P(self) -> float:
        """pi(P) = g(P, P)."""
        return float(self.pi @ self.P)

    def nabla_pi(self) -> np.ndarray:
        """Levi-Civita (nabla_a pi)_i, stored [i, a]."""
        return self.dpi - np.einsum("mai,m->ia", self.frame.gamma, self.pi)

    def nabla_P(self) -> np.ndarray:
        """Levi-Civita (nabla_a P)^k, stored [k, a]."""
        return self.dP + np.einsum("kam,m->ka", self.frame.gamma, self.P)

    def nabla1_P(self) -> np.ndarray:
        """(nabla1_a P)^k, stored [k, a]."""
        return self.dP + np.einsum("kam,m->ka", self.gamma1, self.P)

    def lie_P_g(self) -> np.ndarray:
        """(L_P g)_ij from coordinate derivatives."""
        f = self.frame
        return (np.einsum("ija,a->ij", f.dg, self.P)
                + np.einsum("aj,ai->ij", f.g, self.dP)
                + np.einsum("ia,aj->ij", f.g, self.dP))

    def lie_P_pi(self) -> np.ndarray:
        """(L_P pi)_i from coordinate derivatives."""
        return (np.einsum("ia,a->i", self.dpi, self.P)
                + np.einsum("a,ai->i", self.pi, self.dP))

    def nabla1_g(self) -> np.ndarray:
        """(nabla1_a g)_ij stored [i, j, a]; vanishes (metric connection)."""
        return nabla_metric(self.gamma1, self.frame)


def build_connection(m: MetricSpec, p: VectorFieldSpec, point) -> SSConnection:
    frame = frame_at(m, point)
    n = frame.n
    with np.errstate(over="ignore", invalid="ignore"):
        P, dP = p.jets(frame.point)
    require_finite("generator jet", frame.point, P, dP)
    pi = frame.g @ P
    dpi = np.einsum("ija,j->ia", frame.dg, P) + frame.g @ dP
    eye = np.eye(n)
    gamma1 = (frame.gamma
              + np.einsum("j,ki->kij", pi, eye)
              - np.einsum("ij,k->kij", frame.g, P))
    dgamma1 = (frame.dgamma
               + np.einsum("ja,ki->kija", dpi, eye)
               - np.einsum("ija,k->kija", frame.dg, P)
               - np.einsum("ij,ka->kija", frame.g, dP))
    torsion = (np.einsum("j,ki->kij", pi, eye)
               - np.einsum("i,kj->kij", pi, eye))
    dtorsion = (np.einsum("ja,ki->kija", dpi, eye)
                - np.einsum("ia,kj->kija", dpi, eye))
    div_P = float(np.trace(dP)
                  + np.einsum("kkm,m->", frame.gamma, P))
    omega = (div_P - float(pi @ P)) / n
    return SSConnection(frame, P, dP, pi, dpi, gamma1, dgamma1,
                        torsion, dtorsion, omega, div_P)


class ConditionReport(NamedTuple):
    """Residual of a tensor condition plus the pass verdict."""

    residual: float
    holds: bool


def check_concircular(c: SSConnection,
                      tol: float = DEFAULT_TOL) -> ConditionReport:
    """Residual of (nabla pi) - pi x pi - omega g, max-norm normalised."""
    dev = (c.nabla_pi()
           - np.outer(c.pi, c.pi)
           - c.omega * c.frame.g)
    res = residual(dev, c.frame.g)
    return ConditionReport(res, res <= tol)


def s_concircular_check(c: SSConnection,
                        tol: float = DEFAULT_TOL) -> ConditionReport:
    """Equivalent pure-trace test on s = nabla pi - pi x pi + pi(P)/2 g."""
    s = (c.nabla_pi().T
         - np.outer(c.pi, c.pi)
         + 0.5 * c.pi_P * c.frame.g)
    mu = c.omega + 0.5 * c.pi_P
    dev = s - mu * c.frame.g
    res = residual(dev, c.frame.g)
    return ConditionReport(res, res <= tol)


class GeneratorDerivative(NamedTuple):
    """nabla1 P together with its concircular closed form."""

    tensor: np.ndarray             # [k, a] = (nabla1_a P)^k
    closed_form_residual: float    # vs (omega + pi(P)) identity


def nabla1_P(c: SSConnection) -> GeneratorDerivative:
    """The closed form holds when the generator is concircular."""
    val = c.nabla1_P()
    closed = (c.omega + c.pi_P) * np.eye(c.n)
    return GeneratorDerivative(val, residual(val - closed, c.frame.g))


def identity_suite(c: SSConnection) -> dict:
    """Structural identities of the connection; residuals keyed by name.

    The first two hold for every generator; the remaining ones are theorems
    under the concircularity condition, so their residuals are only expected
    to vanish when that condition holds at the point.
    """
    g = c.frame.g
    kappa = c.omega + c.pi_P
    out = {}

    # nabla1 along P coincides with the Levi-Civita derivative along P.
    diff = np.einsum("a,kaj->kj", c.P, c.gamma1 - c.frame.gamma)
    out["nabla1_along_P"] = residual(diff, g)

    # The torsion is pi-null: pi(T(X, Y)) = 0.
    out["pi_of_torsion"] = residual(
        np.einsum("k,kij->ij", c.pi, c.torsion), g)

    npi = c.nabla_pi()  # [i, a] = (nabla_a pi)_i
    # (nabla_X pi)(P) = kappa pi(X) and (nabla_P pi)(X) = kappa pi(X).
    out["nabla_pi_on_P"] = residual(
        np.einsum("ia,i->a", npi, c.P) - kappa * c.pi, g)
    out["nabla_P_pi"] = residual(
        np.einsum("ia,a->i", npi, c.P) - kappa * c.pi, g)

    # Lie derivative of pi along P: L_P pi = 2 kappa pi.
    out["lie_P_pi"] = residual(c.lie_P_pi() - 2.0 * kappa * c.pi, g)

    # L_P g = 2 nabla pi (needs nabla pi symmetric, true when concircular).
    out["lie_P_g"] = residual(c.lie_P_g() - 2.0 * npi.T, g)
    return out


def lie_g_nonsym(c: SSConnection) -> float:
    """Residual of L1_P g against its closed form 2 (omega + pi(P)) g, where
    (L1_P g)(X,Y) = (nabla1_P g)(X,Y) + g(nabla1_X P, Y) + g(X, nabla1_Y P).

    Evaluated termwise from the display, not from the closed form, so it
    reports honestly when the concircularity hypothesis fails.
    """
    f = c.frame
    n1P = c.nabla1_P()
    lie1 = (np.einsum("ija,a->ij", c.nabla1_g(), c.P)
            + np.einsum("kj,ki->ij", f.g, n1P)
            + np.einsum("ik,kj->ij", f.g, n1P))
    return residual(lie1 - 2.0 * (c.omega + c.pi_P) * f.g, f.g)
