"""Pointwise pseudo-Riemannian data: metric jets, Christoffels, curvature.

Index conventions used across the package (all arrays are dense numpy):

* ``g[i, j]``            metric components, exactly symmetric;
* ``dg[i, j, a]``        del_a g_ij   (derivative axis last);
* ``d2g[i, j, a, b]``    del_a del_b g_ij, symmetric in (i,j) and (a,b);
* ``gamma[k, i, j]``     Gamma^k_ij with the *first lower index the
                         differentiation direction*: nabla_{e_i} e_j =
                         Gamma^k_ij e_k (symmetric in (i,j) for Levi-Civita,
                         not for the torsionful connections built on top);
* ``dgamma[k, i, j, a]`` del_a Gamma^k_ij;
* ``riem[l, k, i, j]``   R^l_kij, meaning R(e_i, e_j) e_k = R^l_kij e_l with
                         R^l_kij = del_i Gamma^l_jk - del_j Gamma^l_ik
                                   + Gamma^l_im Gamma^m_jk
                                   - Gamma^l_jm Gamma^m_ik;
* Ricci is the trace over the direction slot, Ric(Y, Z) = theta^c(R(e_c, Y) Z),
  i.e. ``ric[a, b] = riem[c, b, c, a]`` summed over c.  With the mostly-plus
  Lorentzian signature this gives Ric = +3 g on the unit de Sitter spacetime.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .expr import parse


class SingularMetricError(ArithmeticError):
    """Metric determinant vanished (|det g| <= 1e-12) at a sample point."""


DET_FLOOR = 1e-12


class NonFiniteError(ValueError):
    """A stage of the evaluation at a point produced an inf or a nan."""


def require_finite(stage: str, point, *arrays) -> None:
    """Raise NonFiniteError, naming the stage and the point, on inf or nan.

    The stages run under np.errstate(over="ignore", invalid="ignore"): this
    check, not numpy's warning, is what stops a non-finite value.  A point
    of None (data not taken at a point) is left out of the message.
    """
    if not np.isfinite(np.concatenate([a.ravel() for a in arrays])).all():
        where = "" if point is None else " at point " + " ".join(
            repr(float(x)) for x in point)
        raise NonFiniteError("%s is not finite%s" % (stage, where))


class MetricSpec(NamedTuple):
    """Symmetric matrix of coordinate expressions for the metric."""

    coords: tuple
    entries: np.ndarray  # object array of Expr, mirrored so [i,j] is [j,i]

    @property
    def n(self) -> int:
        return len(self.coords)

    @staticmethod
    def from_strings(coords, rows) -> "MetricSpec":
        """Build from a full matrix of expression strings (symmetrised).

        Entries are taken from the upper triangle; a lower-triangle entry may
        be present only if its text matches the mirrored one.
        """
        coords = tuple(coords)
        n = len(coords)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("metric matrix must be %d x %d" % (n, n))
        entries = np.empty((n, n), dtype=object)
        for i in range(n):
            for j in range(i, n):
                upper = rows[i][j]
                lower = rows[j][i]
                if upper != lower and "0" not in (upper, lower):
                    raise ValueError(
                        "asymmetric metric entries g_%d_%d=%r vs g_%d_%d=%r"
                        % (i, j, upper, j, i, lower))
                e = parse(upper if upper != "0" else lower, coords)
                entries[i, j] = e
                entries[j, i] = e
        return MetricSpec(coords, entries)

    def jets(self, point: np.ndarray):
        """Evaluate all components; returns (g, dg, d2g) packed arrays."""
        n = self.n
        g = np.zeros((n, n))
        dg = np.zeros((n, n, n))
        d2g = np.zeros((n, n, n, n))
        for i in range(n):
            for j in range(i, n):
                jet = self.entries[i, j].jet(point)
                g[i, j] = g[j, i] = jet.value
                dg[i, j] = dg[j, i] = jet.grad
                d2g[i, j] = d2g[j, i] = jet.hess
        return g, dg, d2g

    def values(self, point: np.ndarray) -> np.ndarray:
        """Value-only evaluation (independent of the jet path)."""
        n = self.n
        g = np.zeros((n, n))
        for i in range(n):
            for j in range(i, n):
                g[i, j] = g[j, i] = self.entries[i, j].val(point)
        return g


class VectorFieldSpec(NamedTuple):
    """Contravariant components of a vector field, one expression each."""

    coords: tuple
    components: tuple  # of Expr

    @property
    def n(self) -> int:
        return len(self.coords)

    @staticmethod
    def from_strings(coords, comps) -> "VectorFieldSpec":
        coords = tuple(coords)
        if len(comps) != len(coords):
            raise ValueError("vector field needs %d components, got %d"
                             % (len(coords), len(comps)))
        return VectorFieldSpec(coords,
                               tuple(parse(c, coords) for c in comps))

    def jets(self, point: np.ndarray):
        """Returns (P, dP) with dP[k, a] = del_a P^k."""
        n = self.n
        P = np.zeros(n)
        dP = np.zeros((n, n))
        for k, comp in enumerate(self.components):
            jet = comp.jet(point)
            P[k] = jet.value
            dP[k] = jet.grad
        return P, dP


class PointFrame(NamedTuple):
    """Everything the metric determines at one point, to second order."""

    coords: tuple
    point: np.ndarray
    g: np.ndarray
    ginv: np.ndarray
    signature: tuple  # eigenvalue signs of g, sorted ascending
    dg: np.ndarray
    gamma: np.ndarray
    dgamma: np.ndarray

    @property
    def n(self) -> int:
        return len(self.coords)

    @property
    def lorentzian(self) -> bool:
        return self.signature.count(-1) == 1 and \
            self.signature.count(1) == self.n - 1


def christoffel(ginv: np.ndarray, dg: np.ndarray) -> np.ndarray:
    t1 = np.einsum("kl,jli->kij", ginv, dg)
    t2 = np.einsum("kl,ilj->kij", ginv, dg)
    t3 = np.einsum("kl,ijl->kij", ginv, dg)
    return 0.5 * (t1 + t2 - t3)


def dchristoffel(ginv: np.ndarray, dg: np.ndarray,
                 d2g: np.ndarray) -> np.ndarray:
    dginv = -np.einsum("kp,pqa,qm->kma", ginv, dg, ginv)
    u = (np.einsum("kla,jli->kija", dginv, dg)
         + np.einsum("kla,ilj->kija", dginv, dg)
         - np.einsum("kla,ijl->kija", dginv, dg))
    v = (np.einsum("kl,jlia->kija", ginv, d2g)
         + np.einsum("kl,ilja->kija", ginv, d2g)
         - np.einsum("kl,ijla->kija", ginv, d2g))
    return 0.5 * (u + v)


def frame_at(m: MetricSpec, point) -> PointFrame:
    point = np.asarray(point, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        g, dg, d2g = m.jets(point)
        require_finite("metric jet", point, g, dg, d2g)
        det = float(np.linalg.det(g))
        if abs(det) <= DET_FLOOR:
            raise SingularMetricError(
                "metric is singular at %s (det=%r)" % (point.tolist(), det))
        ginv = np.linalg.inv(g)
        ginv = 0.5 * (ginv + ginv.T)
        signature = tuple(int(np.sign(w)) for w in np.linalg.eigvalsh(g))
        gamma = christoffel(ginv, dg)
        dgamma = dchristoffel(ginv, dg, d2g)
    require_finite("Christoffel jet", point, gamma, dgamma)
    return PointFrame(m.coords, point, g, ginv, signature,
                      dg, gamma, dgamma)


def nabla_metric(gamma: np.ndarray, frame: PointFrame) -> np.ndarray:
    """(nabla_a g)_ij stored [i, j, a] for connection coefficients gamma."""
    g = frame.g
    return (frame.dg
            - np.einsum("mai,mj->ija", gamma, g)
            - np.einsum("maj,im->ija", gamma, g))


def riemann_from_gamma(gamma: np.ndarray, dgamma: np.ndarray) -> np.ndarray:
    """Curvature of any (possibly torsionful) connection in a frame."""
    term1 = np.einsum("ljki->lkij", dgamma)
    term2 = np.einsum("likj->lkij", dgamma)
    term3 = np.einsum("lim,mjk->lkij", gamma, gamma)
    term4 = np.einsum("ljm,mik->lkij", gamma, gamma)
    return term1 - term2 + term3 - term4


def ricci_from_riemann(riem: np.ndarray) -> np.ndarray:
    return np.einsum("cbca->ab", riem)


# The tolerance every CHECK and verdict is judged against unless a run sets
# its own (``tol`` in a config, ``--tol`` on the command line).
DEFAULT_TOL = 1e-8


def residual(arr, g: np.ndarray) -> float:
    """Tensor residual rule: max |arr| / (1 + max |g_ij|) for the metric g."""
    return float(np.max(np.abs(arr))) / (1.0 + float(np.max(np.abs(g))))


def scalar_residual(diff: float, ref: float) -> float:
    """Scalar rule: |diff| / (1 + |ref|) for a deviation from ref.

    Scalar invariants do not scale with g, so neither does this size.
    """
    return abs(diff) / (1.0 + abs(ref))


def close(x: float, target: float, tol: float) -> bool:
    """Scalar verdict: scalar_residual(x - target, target) <= tol."""
    return scalar_residual(x - target, target) <= tol


def form_length(v: np.ndarray, lam: np.ndarray, V: np.ndarray) -> float:
    """1-form rule: sqrt(v^T |g|^-1 v), with |g| = V |Lambda| V^T from
    (lam, V) = eigh(g); it depends neither on the chart's scale nor on the
    signature of g."""
    return float(np.sqrt(((V.T @ v) ** 2) @ (1.0 / np.abs(lam))))
