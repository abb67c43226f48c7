"""Levi-Civita frames: Christoffels, curvature, and the finite-difference oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concirc import fdcheck
from concirc.geometry import (
    MetricSpec,
    SingularMetricError,
    VectorFieldSpec,
    frame_at,
    residual,
)

from testkit import (COORDS4, DESITTER, FLRW_LINEAR, PT, PT_FLRW, WARPED,
                     covariant_derivative, diag_metric, lc_ricci, lc_riemann,
                     lc_scalar)


class TestExponentialWarp:
    def test_christoffel_frozen_entries(self):
        f = frame_at(DESITTER, PT)
        # nabla_{e_x} e_x = e^{2t} e_t and nabla_{e_t} e_x = e_x for this warp.
        assert f.gamma[0, 1, 1] == pytest.approx(np.exp(0.6), rel=1e-14)
        assert f.gamma[1, 0, 1] == pytest.approx(1.0, abs=1e-14)
        assert f.gamma[1, 1, 0] == f.gamma[1, 0, 1]
        assert f.gamma[0, 0, 0] == 0.0

    def test_ricci_is_three_g(self):
        f = frame_at(DESITTER, PT)
        ric = lc_ricci(f)
        assert np.max(np.abs(ric - 3.0 * f.g)) < 1e-12

    def test_scalar_curvature_is_twelve(self):
        f = frame_at(DESITTER, PT)
        assert lc_scalar(f) == pytest.approx(12.0, abs=1e-12)

    def test_unit_constant_curvature_form(self):
        # R^l_kij = delta^l_i g_jk - delta^l_j g_ik for this space form.
        f = frame_at(DESITTER, PT)
        riem = lc_riemann(f)
        eye = np.eye(4)
        expect = (np.einsum("li,jk->lkij", eye, f.g)
                  - np.einsum("lj,ik->lkij", eye, f.g))
        assert np.max(np.abs(riem - expect)) < 1e-12


class TestPowerLawWarp:
    def test_ricci_frozen_entries(self):
        f = frame_at(FLRW_LINEAR, PT_FLRW)
        ric = lc_ricci(f)
        assert abs(ric[0, 0]) < 1e-12
        assert ric[1, 1] == pytest.approx(2.0, abs=1e-12)
        assert ric[2, 2] == pytest.approx(2.0, abs=1e-12)

    def test_scalar_curvature_matches_closed_form(self):
        t = PT_FLRW[0]
        f = frame_at(FLRW_LINEAR, PT_FLRW)
        assert lc_scalar(f) == pytest.approx(6.0 / t**2, rel=1e-12)


class TestFiniteDifferenceOracle:
    @pytest.mark.parametrize("metric,point", [
        (DESITTER, PT),
        (FLRW_LINEAR, PT_FLRW),
        (WARPED, PT),
    ])
    def test_metric_gradient(self, metric, point):
        f = frame_at(metric, point)
        diff = fdcheck.fd_metric_gradient(metric, point) - f.dg
        assert np.max(np.abs(diff)) < 1e-8

    @pytest.mark.parametrize("metric,point", [
        (DESITTER, PT),
        (FLRW_LINEAR, PT_FLRW),
        (WARPED, PT),
    ])
    def test_christoffels(self, metric, point):
        f = frame_at(metric, point)
        diff = fdcheck.fd_gamma(metric, point) - f.gamma
        assert np.max(np.abs(diff)) < 1e-8

    @pytest.mark.parametrize("metric,point", [
        (DESITTER, PT),
        (WARPED, PT),
    ])
    def test_christoffel_gradient(self, metric, point):
        f = frame_at(metric, point)
        diff = fdcheck.fd_dgamma(metric, point) - f.dgamma
        assert np.max(np.abs(diff)) < 1e-7

    @pytest.mark.parametrize("metric,point", [
        (DESITTER, PT),
        (FLRW_LINEAR, PT_FLRW),
        (WARPED, PT),
    ])
    def test_riemann(self, metric, point):
        f = frame_at(metric, point)
        diff = fdcheck.fd_riemann(metric, point) - lc_riemann(f)
        assert np.max(np.abs(diff)) < 1e-7


class TestRiemannSymmetries:
    def test_antisymmetry_in_plane_slots(self):
        f = frame_at(WARPED, PT)
        riem = lc_riemann(f)
        assert np.max(np.abs(riem + np.swapaxes(riem, 2, 3))) < 1e-12

    def test_first_bianchi(self):
        f = frame_at(WARPED, PT)
        r = lc_riemann(f)
        cyc = (r
               + np.transpose(r, (0, 2, 3, 1))
               + np.transpose(r, (0, 3, 1, 2)))
        assert np.max(np.abs(cyc)) < 1e-10

    def test_pair_exchange_after_lowering(self):
        f = frame_at(WARPED, PT)
        r = lc_riemann(f)
        low = np.einsum("al,lkij->akij", f.g, r)
        assert np.max(np.abs(low - np.transpose(low, (2, 3, 0, 1)))) < 1e-10


class TestCovariantDerivative:
    def test_levi_civita_metricity(self):
        f = frame_at(WARPED, PT)
        nab_g = covariant_derivative(WARPED.entries, ("d", "d"), f)
        assert nab_g.shape == (4, 4, 4)
        assert np.max(np.abs(nab_g)) < 1e-12

    def test_vector_field_matches_hand_formula(self):
        vec = VectorFieldSpec.from_strings(COORDS4, ["t", "x*t", "0", "1"])
        f = frame_at(FLRW_LINEAR, PT_FLRW)
        P, dP = vec.jets(PT_FLRW)
        hand = dP + np.einsum("kam,m->ka", f.gamma, P)
        out = covariant_derivative(vec.components, ("u",), f)
        assert out.shape == (4, 4)
        assert np.max(np.abs(out - hand)) < 1e-13

    def test_alternate_coefficients_are_used(self):
        vec = VectorFieldSpec.from_strings(COORDS4, ["t", "x*t", "0", "1"])
        f = frame_at(FLRW_LINEAR, PT_FLRW)
        P, dP = vec.jets(PT_FLRW)
        out = covariant_derivative(vec.components, ("u",), f,
                                   coeffs=np.zeros((4, 4, 4)))
        assert np.max(np.abs(out - dP)) < 1e-15


class TestFrameValidation:
    def test_lorentzian_signature(self):
        f = frame_at(DESITTER, PT)
        assert f.signature == (-1, 1, 1, 1)
        assert f.lorentzian

    def test_riemannian_signature(self):
        m = diag_metric(("u", "v"), ["1", "1 + u^2"])
        f = frame_at(m, np.array([0.2, 0.3]))
        assert f.signature == (1, 1)
        assert not f.lorentzian

    def test_singular_metric_raises(self):
        m = diag_metric(("t", "x"), ["t", "1"])
        with pytest.raises(SingularMetricError):
            frame_at(m, np.array([0.0, 0.5]))

    def test_residual_normalises_by_metric_scale(self):
        f = frame_at(FLRW_LINEAR, PT_FLRW)
        scale = 1.0 + np.max(np.abs(f.g))
        assert residual(np.array([2.0, -0.5]), f.g) == pytest.approx(
            2.0 / scale)

    def test_asymmetric_entries_rejected(self):
        with pytest.raises(ValueError):
            MetricSpec.from_strings(("u", "v"), [["1", "u"], ["v", "1"]])

    def test_vector_component_count_checked(self):
        with pytest.raises(ValueError):
            VectorFieldSpec.from_strings(("u", "v"), ["1"])


@settings(max_examples=25, deadline=None)
@given(
    coeffs=st.lists(
        st.floats(min_value=-0.8, max_value=0.8),
        min_size=3, max_size=3,
    ),
    point=st.lists(
        st.floats(min_value=-0.9, max_value=0.9),
        min_size=3, max_size=3,
    ),
)
def test_metricity_on_random_exponential_metrics(coeffs, point):
    coords = ("u", "v", "w")
    entries = [
        "exp(2*(%.6f*u + %.6f*v))" % (coeffs[0], coeffs[1]),
        "exp(2*(%.6f*v + %.6f*w))" % (coeffs[1], coeffs[2]),
        "exp(2*(%.6f*w + %.6f*u))" % (coeffs[2], coeffs[0]),
    ]
    m = diag_metric(coords, entries)
    f = frame_at(m, np.array(point))
    nab_g = covariant_derivative(m.entries, ("d", "d"), f)
    assert residual(nab_g, f.g) < 1e-11
