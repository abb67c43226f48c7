"""The source paper's abstract, one named test per claim."""

from pathlib import Path

import numpy as np

from concirc.analysis import gather_points
from concirc.catalog import build_case
from concirc.config import apply_overrides, load_config
from concirc.connection import build_connection
from concirc.curvature import curvature_family

ROOT = Path(__file__).resolve().parents[1]


def _ricci_theta_asymmetry(setup, points: int = 4) -> float:
    """max |Ric^theta - (Ric^theta)^T| over theta = 0..5 and the points."""
    worst = 0.0
    for pt in gather_points(apply_overrides(setup, points=points))[0]:
        bundle = curvature_family(
            build_connection(setup.metric, setup.vector, pt))
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
