"""Shared test geometries, and oracles the engine itself does not need.

The Levi-Civita contractions and the generic covariant derivative are
independent routes to quantities the engine computes by specialised code.
``machine`` runs a setup in process and ``machine_rows`` reads the per-point
rows of its ``--format machine`` output.
"""

import io
import re
from pathlib import Path

import numpy as np

from concirc.analysis import run_analysis
from concirc.catalog import build_case
from concirc.config import load_config
from concirc.geometry import (MetricSpec, PointFrame, VectorFieldSpec,
                              ricci_from_riemann, riemann_from_gamma)

COORDS4 = ("t", "x", "y", "z")
GENERIC_CFG = Path(__file__).resolve().parents[1] / "perfbench" / "generic.cfg"


def diag_metric(coords, entries):
    n = len(coords)
    rows = [["0"] * n for _ in range(n)]
    for i, e in enumerate(entries):
        rows[i][i] = e
    return MetricSpec.from_strings(coords, rows)


DESITTER = diag_metric(COORDS4, ["-1", "exp(2*t)", "exp(2*t)", "exp(2*t)"])
MINKOWSKI = diag_metric(COORDS4, ["-1", "1", "1", "1"])
FLRW_LINEAR = diag_metric(COORDS4, ["-1", "t^2", "t^2", "t^2"])
WARPED = diag_metric(
    COORDS4,
    ["-1"] + ["exp(2*t) / (1 + (x^2 + y^2 + z^2)/4)^2"] * 3,
)

P_TIME = VectorFieldSpec.from_strings(COORDS4, ["1", "0", "0", "0"])
P_SPACE = VectorFieldSpec.from_strings(COORDS4, ["0", "1", "0", "0"])
P_FLRW = VectorFieldSpec.from_strings(
    COORDS4, ["t/(1 + (t^2)/2)", "0", "0", "0"])

PT = np.array([0.3, 0.4, -0.2, 0.7])
PT_FLRW = np.array([0.9, 0.1, -0.3, 0.25])


def lc_riemann(f: PointFrame) -> np.ndarray:
    return riemann_from_gamma(f.gamma, f.dgamma)


def lc_ricci(f: PointFrame) -> np.ndarray:
    return ricci_from_riemann(lc_riemann(f))


def lc_scalar(f: PointFrame) -> float:
    return float(np.einsum("ab,ab->", f.ginv, lc_ricci(f)))


def covariant_derivative(components, variance, f: PointFrame,
                         coeffs=None) -> np.ndarray:
    """Covariant derivative at f.point of a field given by expressions.

    ``components`` is an array of coordinate expressions and ``variance``
    holds one character per slot, 'u' (contravariant) or 'd' (covariant).
    ``coeffs`` are connection coefficients in gamma layout (Levi-Civita by
    default).  The derivative slot is appended last.
    """
    if coeffs is None:
        coeffs = f.gamma
    components = np.asarray(components, dtype=object)
    shape = components.shape
    vals = np.zeros(shape)
    out = np.zeros(shape + (f.n,))
    for idx in np.ndindex(shape):
        jet = components[idx].jet(f.point)
        vals[idx] = jet.value
        out[idx] = jet.grad
    for slot, var in enumerate(variance):
        if var == "u":
            # + Gamma^k_am F^{..m..}: contract slot with the argument index.
            tmp = np.tensordot(vals, coeffs, axes=(slot, 2))
            out += np.moveaxis(tmp, -2, slot)
        else:
            # - Gamma^m_ad F_{..m..}: contract slot with the upper index.
            tmp = np.tensordot(vals, coeffs, axes=(slot, 0))
            out -= np.moveaxis(tmp, -1, slot)
    return out


def counted(calls: dict, name: str, fn):
    """``fn``, adding 1 to ``calls[name]`` at each call."""
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def concircular_kernel_image(bundle) -> np.ndarray:
    """L P, which vanishes for every concircular generator P.

    L[l, i, j] = R^l_kij P^k + (Ric(e_i, P) d^l_j - Ric(e_j, P) d^l_i)/(n-1)
    with the Levi-Civita R and Ric: nabla_X P = w X + pi(X) P gives
    R(X, Y) P = A(X) Y - A(Y) X and Ric(Y, P) = -(n - 1) A(Y).
    """
    c = bundle.connection
    eye = np.eye(c.n)
    ric_P = bundle.ricci["g"] @ c.P
    return (np.einsum("lkij,k->lij", bundle.riemann["g"], c.P)
            + (np.einsum("i,lj->lij", ric_P, eye)
               - np.einsum("j,li->lij", ric_P, eye)) / (c.n - 1.0))


def load_source(source: str):
    """The setup of builtin ``source``, or of ``perfbench/generic.cfg``."""
    return (load_config(GENERIC_CFG) if source == "generic.cfg"
            else build_case(source))


def machine(setup) -> tuple:
    """(report, machine output) of one in-process run."""
    rep = run_analysis(setup)
    out = io.StringIO()
    rep.render("machine", out)
    return rep, out.getvalue()


_MACHINE_ROW = re.compile(
    r"^(CHECK|VERDICT) (\w+) point=(\d+) "
    r"(?:residual=\S+ status=(PASS|FAIL)|value=(\S+))$", re.M)


def machine_rows(out: str, kind: str) -> list:
    """(name, point, token) for each per-point row of ``kind`` in machine
    output: a CHECK's token is its status, a VERDICT's its value.  The
    aggregate rows (point=-1) are left out."""
    return [(name, int(point), status or value)
            for k, name, point, status, value in _MACHINE_ROW.findall(out)
            if k == kind]
