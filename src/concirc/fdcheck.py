"""Central-finite-difference oracles for the derivative pipeline.

Second derivatives are checked one rung at a time: gradients against
value-only differences, and Gamma-derivatives against differences of the
jet-computed Gamma at shifted points.  A value-only second difference at
h = 1e-5 would carry ~1e-6 roundoff — the same size as the tolerances these
oracles back — while the ladder stays near 1e-9.
"""

from __future__ import annotations

import numpy as np

from .geometry import MetricSpec, christoffel, frame_at, riemann_from_gamma

GRAD_STEP = 1e-5
HESS_STEP = 1e-4


def fd_gradient(fn, point) -> np.ndarray:
    """Central difference gradient of a scalar callable fn(point)."""
    return fd_jacobian(fn, point)


def fd_hessian(fn, point) -> np.ndarray:
    """Value-only central second differences of a scalar callable."""
    h = HESS_STEP
    point = np.asarray(point, dtype=float)
    n = point.shape[0]
    out = np.zeros((n, n))
    f0 = fn(point)
    for a in range(n):
        ea = np.zeros(n)
        ea[a] = h
        out[a, a] = (fn(point + ea) - 2.0 * f0 + fn(point - ea)) / h ** 2
        for b in range(a + 1, n):
            eb = np.zeros(n)
            eb[b] = h
            mixed = (fn(point + ea + eb) - fn(point + ea - eb)
                     - fn(point - ea + eb) + fn(point - ea - eb)) / (4.0 * h ** 2)
            out[a, b] = out[b, a] = mixed
    return out


def fd_jacobian(fn, point) -> np.ndarray:
    """J[..., a] = del_a fn(point) for an array-valued callable."""
    h = GRAD_STEP
    point = np.asarray(point, dtype=float)
    n = point.shape[0]
    f0 = np.asarray(fn(point))
    out = np.zeros(f0.shape + (n,))
    for a in range(n):
        step = np.zeros(n)
        step[a] = h
        out[..., a] = (np.asarray(fn(point + step))
                       - np.asarray(fn(point - step))) / (2.0 * h)
    return out


def fd_metric_gradient(m: MetricSpec, point) -> np.ndarray:
    """dg[i,j,a] from value-only evaluations of the metric."""
    return fd_jacobian(m.values, point)


def fd_gamma(m: MetricSpec, point) -> np.ndarray:
    """Christoffels assembled from value-only metric differences."""
    point = np.asarray(point, dtype=float)
    g = m.values(point)
    ginv = np.linalg.inv(g)
    ginv = 0.5 * (ginv + ginv.T)
    return christoffel(ginv, fd_metric_gradient(m, point))


def fd_dgamma(m: MetricSpec, point) -> np.ndarray:
    """dgamma[k,i,j,a]: the jet-computed Gamma differenced at x +/- h."""
    return fd_jacobian(lambda p: frame_at(m, p).gamma, point)


def fd_riemann(m: MetricSpec, point) -> np.ndarray:
    """Curvature assembled entirely from the difference pipeline."""
    return riemann_from_gamma(fd_gamma(m, point), fd_dgamma(m, point))
