"""The source paper's abstract, one named test per claim."""

from pathlib import Path

import numpy as np

from concirc.analysis import gather_points
from concirc.catalog import BUILTIN_NAMES, build_case
from concirc.config import apply_overrides, load_config
from concirc.connection import build_connection, check_concircular
from concirc.curvature import curvature_family
from concirc.geometry import residual

from testkit import concircular_kernel_image

ROOT = Path(__file__).resolve().parents[1]


def _bundles(setup, points: int = 4):
    """The curvature bundle at each of the setup's first sampled points."""
    for pt in gather_points(apply_overrides(setup, points=points))[0]:
        yield curvature_family(
            build_connection(setup.metric, setup.vector, pt))


def _ricci_theta_asymmetry(setup) -> float:
    """max |Ric^theta - (Ric^theta)^T| over theta = 0..5 and the points."""
    worst = 0.0
    for bundle in _bundles(setup):
        for theta in range(6):
            ric = bundle.ricci[theta]
            worst = max(worst, float(np.max(np.abs(ric - ric.T))))
    return worst


def test_ricci_theta_is_symmetric_for_a_concircular_generator():
    for name in ("desitter-flat", "flrw", "grw-generic", "grw"):
        assert _ricci_theta_asymmetry(build_case(name)) <= 1e-12, name
    # perfbench/generic.cfg's generator is not concircular, and there
    # Ric^theta is far from symmetric: the bound above tells them apart.
    generic = load_config(ROOT / "perfbench" / "generic.cfg")
    assert _ricci_theta_asymmetry(generic) > 0.1


def _kernel_residuals(setup):
    """(concircular, residual(L P, g)) at each sampled point."""
    return [(check_concircular(b.connection).holds,
             residual(concircular_kernel_image(b), b.frame.g))
            for b in _bundles(setup)]


def test_a_concircular_generator_lies_in_the_kernel_of_l():
    for name in BUILTIN_NAMES:
        for holds, res in _kernel_residuals(build_case(name)):
            assert res <= 1e-13 or not holds, (name, res)
    # perfbench/generic.cfg: no concircular field passes through its
    # points, and L P stays far from zero there.
    generic = load_config(ROOT / "perfbench" / "generic.cfg")
    for holds, res in _kernel_residuals(generic):
        assert not holds and res >= 1e-3, res
