"""Field equations, stress-energy conservation, and equation-of-state regimes."""

import numpy as np
import pytest

from concirc.connection import build_connection
from concirc.curvature import curvature_family
from concirc.relativity import (
    FluidParams,
    div_pi_pi,
    div_tau,
    efe_residual,
    phantom_verdict,
    stress_energy,
)

from testkit import COORDS4, DESITTER, P_TIME, PT, WARPED


def _bundle(metric, point):
    return curvature_family(
        build_connection(metric, P_TIME, np.asarray(point, dtype=float)))


class TestFieldEquation:
    def test_vacuum_with_cosmological_constant(self):
        fluid = FluidParams.from_strings(COORDS4, lam=3.0)
        rep = efe_residual(_bundle(DESITTER, PT), fluid)
        assert rep.residual < 1e-12
        assert rep.sigma == 0.0 and rep.p == 0.0

    def test_equivalent_barrier_fluid_without_constant(self):
        fluid = FluidParams.from_strings(COORDS4, sigma="3", p="-3")
        rep = efe_residual(_bundle(DESITTER, PT), fluid)
        assert rep.residual < 1e-12

    def test_mismatched_constant_leaves_residual(self):
        fluid = FluidParams.from_strings(COORDS4, lam=2.0)
        rep = efe_residual(_bundle(DESITTER, PT), fluid)
        assert rep.residual > 0.1

    def test_inhomogeneous_warp_exact_source(self):
        fluid = FluidParams.from_strings(
            COORDS4, sigma="3 + 3*exp(-2*t)", p="-3 - exp(-2*t)")
        rep = efe_residual(_bundle(WARPED, PT), fluid)
        assert rep.residual < 1e-12

    def test_coupling_constant_scales_source(self):
        # The geometry side equals tau here, so halving k must leave a gap.
        bundle = _bundle(DESITTER, PT)
        exact = FluidParams.from_strings(COORDS4, sigma="3", p="-3")
        assert efe_residual(bundle, exact).residual < 1e-12
        half = FluidParams.from_strings(COORDS4, sigma="3", p="-3", k=0.5)
        assert efe_residual(bundle, half).residual > 0.1


class TestStressEnergy:
    def test_perfect_fluid_shape(self):
        c = build_connection(DESITTER, P_TIME, PT)
        tau = stress_energy(c, 3.0, -1.0)
        expect = -1.0 * c.frame.g + 2.0 * np.outer(c.pi, c.pi)
        assert np.max(np.abs(tau - expect)) == 0.0

    def test_divergence_vanishes_for_exact_source(self):
        bundle = _bundle(WARPED, PT)
        fluid = FluidParams.from_strings(
            COORDS4, sigma="3 + 3*exp(-2*t)", p="-3 - exp(-2*t)")
        assert np.max(np.abs(div_tau(bundle, fluid))) < 1e-11

    def test_constant_fluid_is_barrier_gated(self):
        bundle = _bundle(WARPED, PT)
        on_line = FluidParams.from_strings(COORDS4, sigma="2", p="-2")
        off_line = FluidParams.from_strings(COORDS4, sigma="2", p="-1")
        assert np.max(np.abs(div_tau(bundle, on_line))) < 1e-14
        assert np.max(np.abs(div_tau(bundle, off_line))) > 1e-3

    def test_constant_fluid_is_coefficient_times_form_divergence(self):
        # zero gradients leave (sigma + p) div(pi x pi), to rounding
        bundle = _bundle(WARPED, PT)
        fluid = FluidParams.from_strings(COORDS4, sigma="2", p="-1")
        expect = 1.0 * div_pi_pi(bundle.connection)
        assert np.max(np.abs(div_tau(bundle, fluid) - expect)) < 1e-15

    @pytest.mark.parametrize("p_expr,extra", [
        # dp_j + (dsigma + dp)(P) pi_j cancels exactly for p = t ...
        ("t", np.zeros(4)),
        # ... and reduces to dp alone when p has no time dependence.
        ("x", np.array([0.0, 1.0, 0.0, 0.0])),
    ])
    def test_gradient_terms_match_hand_formula(self, p_expr, extra):
        # div tau = dp + (dsigma + dp)(P) pi + (sigma + p) div(pi x pi)
        bundle = _bundle(DESITTER, PT)
        fluid = FluidParams.from_strings(COORDS4, sigma="1", p=p_expr)
        sigma, p = fluid.values(PT)
        gradient_terms = (div_tau(bundle, fluid)
                          - (sigma + p) * div_pi_pi(bundle.connection))
        assert np.max(np.abs(gradient_terms - extra)) < 1e-12

    def test_form_divergence_identity_on_warped_geometry(self):
        # div(pi x pi) = (n - 1) pi wherever the warp detection holds.
        for metric in (DESITTER, WARPED):
            c = build_connection(metric, P_TIME, PT)
            assert np.max(np.abs(div_pi_pi(c) - 3.0 * c.pi)) < 1e-11


class TestEquationOfState:
    def test_ordinary_matter(self):
        rep = phantom_verdict(3.0, 1.0)
        assert rep.regime == "ordinary"
        assert rep.w == pytest.approx(1.0 / 3.0)
        assert not rep.at_barrier

    def test_barrier_is_exact_line(self):
        rep = phantom_verdict(2.0, -2.0)
        assert rep.regime == "barrier"
        assert rep.at_barrier
        assert rep.w == pytest.approx(-1.0)

    def test_phantom_regime(self):
        rep = phantom_verdict(1.0, -1.5)
        assert rep.regime == "phantom"
        assert rep.w < -1.0
        assert not rep.at_barrier

    def test_vacuum_is_undefined(self):
        rep = phantom_verdict(0.0, 0.0)
        assert rep.regime == "undefined"
        assert rep.w is None

    def test_barrier_tolerance_scales_with_magnitude(self):
        big = phantom_verdict(1e6, -1e6 + 1e-4)
        assert big.at_barrier
        small = phantom_verdict(1.0, -1.0 + 1e-4)
        assert not small.at_barrier

    def test_fluid_params_evaluation(self):
        fluid = FluidParams.from_strings(COORDS4, sigma="t^2", p="x - 1")
        sigma, p = fluid.values(PT)
        assert sigma == pytest.approx(0.09)
        assert p == pytest.approx(-0.6)
        dsigma, dp = fluid.gradients(PT)
        assert np.allclose(dsigma, [0.6, 0, 0, 0], atol=1e-14)
        assert np.allclose(dp, [0, 1, 0, 0], atol=1e-14)
