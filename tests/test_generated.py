"""Generated inputs that reach every CHECK, at n = 3, 4 and 5.

(a) Random regular pairs (``selftest._random_pair``: a perturbed Minkowski
metric and an affine generator) never fail an unconditional CHECK.

(b) Warped products g = -dt^2 + F'(t)^2 h(x) with F > 0 and the generator
P = (F'/F) d_t.  That P is concircular for every F and every h, with
omega = F''/F, so every concircularity-gated CHECK runs and must pass.  The
base h is a constant-curvature metric written in a linearly mixed chart,
h = A / (1 + K x.A.x/4)^2 with A symmetric, positive definite and not
diagonal, so the spacetime is also a perfect fluid; with F = a e^t the
generator is the unit GRW one (F'/F = 1), which opens the GRW-gated block.

The analysis never calls ``classify.KINDS``, so (b) also checks it at the
data level: E^theta and Ric minus its theta normal form are one tensor for
any (g, Ric, pi), so their residuals must agree at every point.

Every output also goes through the verdict lattice of test_lattice.py and
the abstract's implication (concircular, unit timelike and Lorentzian
imply GRW).  The draws are derandomized, so a tier-1 run is repeatable,
and not shrunk: a failing example prints its whole config.
"""

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from concirc.analysis import ROWS
from concirc.classify import KINDS, RicciData, quasi_einstein_equivalences
from concirc.config import AnalysisSetup, parse_config
from concirc.connection import build_connection
from concirc.curvature import curvature_family
from concirc.geometry import residual
from concirc.sampling import LCG
from concirc.selftest import _random_pair
from testkit import concircular_kernel_image, machine, machine_rows
from test_lattice import (abstract_premises, by_point, entry_of, gates_held,
                          run_violations)

COORDS = {3: ("t", "x", "y"), 4: ("t", "x", "y", "z"),
          5: ("t", "x", "y", "z", "w")}
_SETTINGS = dict(deadline=None, derandomize=True,
                 phases=(Phase.explicit, Phase.generate))


def _num(x: float) -> str:
    return "(%s)" % np.format_float_positional(x, unique=True, trim="-")


# -- (a) random regular pairs ----------------------------------------------

@settings(max_examples=20, **_SETTINGS)
@given(st.integers(0, 2 ** 32 - 1))
def test_random_pairs_pass_every_unconditional_check(seed):
    coords = COORDS[4]
    metric, vector = _random_pair(LCG(seed), coords)
    setup = AnalysisSetup(coords, metric, vector, ((-1.0, 1.0),) * 4,
                          n_points=3, seed=seed & 0xFFFF)
    rep, out = machine(setup)
    assert run_violations(out, setup, rep.points) == []
    assert [(name, idx) for name, idx, status in machine_rows(out, "CHECK")
            if status != "PASS"
            and ROWS[entry_of("CHECK", name)][1] == "always"] == []


# -- (b) concircular warped products ----------------------------------------

# F(t) > 0 and F'(t) != 0 on the t bounds; name -> (F, F', t bounds).
def _family(name: str, a: float, b: float):
    if name == "grw":
        return "%s*exp(t)" % _num(a), "%s*exp(t)" % _num(a), (-0.5, 0.5)
    if name == "exp":
        return ("%s*exp(%s*t)" % (_num(a), _num(b)),
                "%s*exp(%s*t)" % (_num(a * b), _num(b)), (-0.5, 0.5))
    if name == "quad":
        return ("%s+%s*t^2" % (_num(a), _num(b)), "%s*t" % _num(2 * b),
                (0.2, 1.0))
    return "%s*cosh(t)" % _num(a), "%s*sinh(t)" % _num(a), (0.2, 1.0)


@st.composite
def warped_configs(draw, n: int, families):
    """Config text for g = -dt^2 + F'^2 h, P = (F'/F) d_t, 3 points."""
    coords = COORDS[n]
    space = coords[1:]
    m = n - 1
    unit = st.floats(0.0, 1.0)
    a = 0.5 + 1.5 * draw(unit)
    b = 0.3 + 0.5 * draw(unit)
    F, dF, (lo, hi) = _family(draw(st.sampled_from(families)), a, b)
    # A = 1 + diag in [0, 0.5] with off-diagonals in [-0.2, 0.2]: positive
    # definite by Gershgorin for m <= 4; K >= -0.25 keeps 1 + K q/4 > 0.
    A = np.eye(m)
    for i in range(m):
        A[i, i] += 0.5 * draw(unit)
        for j in range(i + 1, m):
            A[i, j] = A[j, i] = 0.4 * draw(unit) - 0.2
    K = 1.25 * draw(unit) - 0.25
    q = "+".join("%s*%s*%s" % (_num(A[i, j] * (1 if i == j else 2)),
                               space[i], space[j])
                 for i in range(m) for j in range(i, m))
    lines = ["[manifold]", "coords = " + " ".join(coords), "", "[metric]",
             'g_t_t = "-1"']
    for i in range(m):
        for j in range(i, m):
            lines.append('g_%s_%s = "(%s)^2*%s/(1+%s*(%s)/4)^2"'
                         % (space[i], space[j], dF, _num(A[i, j]), _num(K),
                            q))
    lines += ["", "[vector_field]", 'P_t = "(%s)/(%s)"' % (dF, F), "",
              "[sampling]", "points = 3", "seed = %d" % draw(
                  st.integers(0, 999)),
              "bounds_t = %r %r" % (lo, hi), "", "[report]",
              "format = machine"]
    return "\n".join(lines) + "\n"


def _assert_passes(text: str, gates: set):
    """Exactly ``gates`` hold at every point, and every CHECK passes."""
    setup = parse_config(text)
    rep, out = machine(setup)
    points = rep.points
    assert [gates_held(verdicts, False) for verdicts in by_point(out)
            .values()] == [gates] * len(points), text
    assert "status=FAIL" not in out, text
    assert run_violations(out, setup, points) == [], text
    # the abstract's premise holds exactly where the generator is unit
    premises = abstract_premises(out, setup.metric, points)
    assert premises == ({i: "True" for i in range(len(points))}
                        if "grw" in gates else {}), text
    for point in points:
        c = build_connection(setup.metric, setup.vector, point)
        bundle = curvature_family(c)
        # the generator is concircular, so L P = 0 (test_abstract.py)
        assert residual(concircular_kernel_image(bundle),
                        c.frame.g) <= 1e-13, text
        data = RicciData.from_bundle(bundle)
        for theta in KINDS:
            rep = quasi_einstein_equivalences(theta, data)
            assert rep.form_residual == pytest.approx(
                rep.e_residual, rel=1e-9, abs=1e-12), (theta, text)


@pytest.mark.parametrize("n,examples", [(3, 4), (4, 6), (5, 3)])
def test_grw_warped_product_passes_every_gated_check(n, examples):
    @settings(max_examples=examples, **_SETTINGS)
    @given(warped_configs(n, ("grw",)))
    def check(text):
        _assert_passes(text, {"always", "determinate", "concircular", "grw",
                              "grw_quasi_einstein"})
    check()


@settings(max_examples=8, **_SETTINGS)
@given(warped_configs(4, ("exp", "quad", "cosh")))
def test_concircular_warped_product_passes_its_gated_checks(text):
    _assert_passes(text, {"always", "determinate", "concircular"})
