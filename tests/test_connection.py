"""Torsionful metric connection built from a generator vector field."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concirc.connection import (
    build_connection,
    check_concircular,
    identity_suite,
    lie_g_nonsym,
    nabla1_P,
    s_concircular_check,
)
from concirc.geometry import VectorFieldSpec

from testkit import (COORDS4, DESITTER, FLRW_LINEAR, MINKOWSKI, P_FLRW,
                     P_SPACE, P_TIME, PT, PT_FLRW)


def _conn(metric, vector, point):
    return build_connection(metric, vector, np.asarray(point, dtype=float))


class TestCoefficients:
    def test_frozen_exponential_warp_values(self):
        c = _conn(DESITTER, P_TIME, PT)
        assert c.omega == pytest.approx(1.0, abs=1e-12)
        assert c.div_P == pytest.approx(3.0, abs=1e-12)
        assert c.pi_P == pytest.approx(-1.0, abs=1e-14)
        assert np.allclose(c.pi, [-1.0, 0.0, 0.0, 0.0], atol=1e-14)
        # The warp terms cancel against the torsion terms in these slots.
        assert abs(c.gamma1[0, 1, 1]) < 1e-13
        assert abs(c.gamma1[1, 1, 0]) < 1e-13
        assert c.gamma1[1, 0, 1] == pytest.approx(1.0, abs=1e-13)

    def test_torsion_is_antisymmetric_part(self):
        for metric, vector, point in [
            (DESITTER, P_TIME, PT),
            (MINKOWSKI, P_SPACE, PT),
            (FLRW_LINEAR, P_FLRW, PT_FLRW),
        ]:
            c = _conn(metric, vector, point)
            antisym = c.gamma1 - np.swapaxes(c.gamma1, 1, 2)
            assert np.max(np.abs(antisym - c.torsion)) < 1e-14

    def test_torsion_closed_form(self):
        c = _conn(FLRW_LINEAR, P_FLRW, PT_FLRW)
        eye = np.eye(4)
        expect = (np.einsum("j,ki->kij", c.pi, eye)
                  - np.einsum("i,kj->kij", c.pi, eye))
        assert np.max(np.abs(c.torsion - expect)) == 0.0

    def test_metric_compatibility(self):
        for metric, vector, point in [
            (DESITTER, P_TIME, PT),
            (MINKOWSKI, P_SPACE, PT),
            (FLRW_LINEAR, P_FLRW, PT_FLRW),
        ]:
            c = _conn(metric, vector, point)
            assert np.max(np.abs(c.nabla1_g())) < 1e-12


class TestGeneratorCondition:
    def test_exponential_warp_generator_passes(self):
        rep = check_concircular(_conn(DESITTER, P_TIME, PT))
        assert rep.holds
        assert rep.residual < 1e-12
        assert rep.detail["omega"] == pytest.approx(1.0, abs=1e-12)

    def test_power_law_generator_passes(self):
        rep = check_concircular(_conn(FLRW_LINEAR, P_FLRW, PT_FLRW))
        assert rep.holds
        assert rep.residual < 1e-12

    def test_flat_translation_fails_with_frozen_residual(self):
        c = _conn(MINKOWSKI, P_SPACE, PT)
        rep = check_concircular(c)
        assert not rep.holds
        assert rep.residual == pytest.approx(0.375, abs=1e-14)
        assert c.omega == pytest.approx(-0.25, abs=1e-14)

    def test_pure_trace_form_is_equivalent(self):
        for metric, vector, point in [
            (DESITTER, P_TIME, PT),
            (MINKOWSKI, P_SPACE, PT),
            (FLRW_LINEAR, P_FLRW, PT_FLRW),
        ]:
            c = _conn(metric, vector, point)
            a = check_concircular(c)
            b = s_concircular_check(c)
            assert a.holds == b.holds
            assert a.residual == pytest.approx(b.residual, abs=1e-14)
            assert b.detail["mu"] == pytest.approx(
                c.omega + 0.5 * c.pi_P, abs=1e-14)


class TestGeneratorDerivative:
    def test_vanishes_on_exponential_warp(self):
        c = _conn(DESITTER, P_TIME, PT)
        rep = nabla1_P(c)
        assert check_concircular(c).holds
        assert np.max(np.abs(rep.tensor)) < 1e-12
        assert rep.closed_form_residual < 1e-12

    def test_closed_form_on_power_law(self):
        c = _conn(FLRW_LINEAR, P_FLRW, PT_FLRW)
        rep = nabla1_P(c)
        assert check_concircular(c).holds
        expect = (c.omega + c.pi_P) * np.eye(4)
        assert np.max(np.abs(rep.tensor - expect)) < 1e-12
        assert rep.closed_form_residual < 1e-12

    def test_flat_translation_deviates(self):
        c = _conn(MINKOWSKI, P_SPACE, PT)
        rep = nabla1_P(c)
        assert not check_concircular(c).holds
        assert rep.closed_form_residual == pytest.approx(0.375, abs=1e-14)
        expect = np.diag([1.0, 0.0, 1.0, 1.0])
        assert np.max(np.abs(rep.tensor - expect)) < 1e-14


class TestGeneratorFlow:
    def test_flat_translation_frozen_values(self):
        c = _conn(MINKOWSKI, P_SPACE, PT)
        rep = lie_g_nonsym(c)
        expect = 2.0 * (c.frame.g - np.outer(c.pi, c.pi))
        assert np.max(np.abs(rep.lie1_g - expect)) < 1e-14
        assert rep.fitted_factor == pytest.approx(0.75, abs=1e-14)
        assert rep.fit_residual == pytest.approx(0.75, abs=1e-14)
        assert rep.theorem_residual == pytest.approx(0.75, abs=1e-14)
        assert not rep.conformal
        assert not rep.killing

    def test_exponential_warp_is_stationary(self):
        rep = lie_g_nonsym(_conn(DESITTER, P_TIME, PT))
        assert np.max(np.abs(rep.lie1_g)) < 1e-12
        assert abs(rep.fitted_factor) < 1e-13
        assert rep.conformal
        assert rep.killing

    def test_power_law_factor_matches_trace_data(self):
        c = _conn(FLRW_LINEAR, P_FLRW, PT_FLRW)
        rep = lie_g_nonsym(c)
        assert rep.fitted_factor == pytest.approx(
            c.omega + c.pi_P, abs=1e-12)
        assert rep.theorem_residual < 1e-10
        assert rep.conformal
        assert not rep.killing


class TestIdentitySuite:
    def test_all_hold_under_generator_condition(self):
        for metric, vector, point in [
            (DESITTER, P_TIME, PT),
            (FLRW_LINEAR, P_FLRW, PT_FLRW),
        ]:
            out = identity_suite(_conn(metric, vector, point))
            assert set(out) == {
                "nabla1_along_P", "pi_of_torsion", "nabla_pi_on_P",
                "nabla_P_pi", "lie_P_pi", "lie_P_g",
            }
            worst = max(out.values())
            assert worst < 1e-12, out

    def test_universal_entries_hold_without_condition(self):
        out = identity_suite(_conn(MINKOWSKI, P_SPACE, PT))
        assert out["nabla1_along_P"] < 1e-15
        assert out["pi_of_torsion"] < 1e-15
        assert out["nabla_pi_on_P"] == pytest.approx(0.375, abs=1e-14)
        assert out["lie_P_pi"] == pytest.approx(0.75, abs=1e-14)


class TestDerivativeArrays:
    @pytest.mark.parametrize("axis", [0, 1])
    def test_coefficient_gradient_against_central_difference(self, axis):
        h = 1e-5
        lo = PT_FLRW.copy()
        hi = PT_FLRW.copy()
        lo[axis] -= h
        hi[axis] += h
        c = _conn(FLRW_LINEAR, P_FLRW, PT_FLRW)
        c_lo = _conn(FLRW_LINEAR, P_FLRW, lo)
        c_hi = _conn(FLRW_LINEAR, P_FLRW, hi)
        fd_gamma1 = (c_hi.gamma1 - c_lo.gamma1) / (2.0 * h)
        fd_torsion = (c_hi.torsion - c_lo.torsion) / (2.0 * h)
        assert np.max(np.abs(fd_gamma1 - c.dgamma1[..., axis])) < 1e-6
        assert np.max(np.abs(fd_torsion - c.dtorsion[..., axis])) < 1e-6


@settings(max_examples=25, deadline=None)
@given(
    comps=st.lists(
        st.floats(min_value=-2.0, max_value=2.0), min_size=4, max_size=4),
    lin=st.floats(min_value=-1.0, max_value=1.0),
)
def test_structural_laws_for_arbitrary_generators(comps, lin):
    vec = VectorFieldSpec.from_strings(COORDS4, [
        "%.6f + %.6f*x" % (comps[0], lin),
        "%.6f" % comps[1],
        "%.6f + %.6f*t" % (comps[2], lin),
        "%.6f" % comps[3],
    ])
    c = _conn(MINKOWSKI, vec, PT)
    assert np.max(np.abs(c.nabla1_g())) < 1e-12
    assert np.max(np.abs(c.torsion + np.swapaxes(c.torsion, 1, 2))) == 0.0
    out = identity_suite(c)
    assert out["nabla1_along_P"] < 1e-12
    assert out["pi_of_torsion"] < 1e-12
