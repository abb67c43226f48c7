"""Curvature families of the torsionful connection and their closed forms."""

import numpy as np
import pytest

from concirc.connection import build_connection
from concirc.curvature import (
    THETAS,
    closed_form_ricci,
    closed_form_scalar,
    curvature_family,
    einstein_relations,
    nabla1_torsion,
)

from testkit import (DESITTER, FLRW_LINEAR, MINKOWSKI, P_FLRW, P_SPACE, P_TIME,
                     PT, PT_FLRW)


def _bundle(metric, vector, point):
    return curvature_family(
        build_connection(metric, vector, np.asarray(point, dtype=float)))


class TestExponentialWarpFrozenValues:
    def test_scalar_curvatures(self):
        b = _bundle(DESITTER, P_TIME, PT)
        expect = {"g": 12.0, 0: 0.75, 1: 0.0, 2: 0.0, 3: 0.0, 4: 3.0, 5: 1.5}
        for theta, value in expect.items():
            assert b.scalar[theta] == pytest.approx(value, abs=1e-11)

    def test_ricci_tensors_are_rank_one_shifts(self):
        b = _bundle(DESITTER, P_TIME, PT)
        c = b.connection
        pp = np.outer(c.pi, c.pi)
        assert np.max(np.abs(b.ricci[1])) < 1e-12
        assert np.max(np.abs(b.ricci[0] + 0.75 * pp)) < 1e-12
        assert np.max(np.abs(b.ricci[4] + 3.0 * pp)) < 1e-12
        assert np.max(np.abs(b.ricci[5] + 1.5 * pp)) < 1e-12

    def test_torsion_is_parallel(self):
        c = build_connection(DESITTER, P_TIME, PT)
        assert np.max(np.abs(nabla1_torsion(c))) < 1e-12


class TestClosedForms:
    @pytest.mark.parametrize("theta", THETAS)
    def test_ricci_closed_form_under_generator_condition(self, theta):
        for metric, vector, point in [
            (DESITTER, P_TIME, PT),
            (FLRW_LINEAR, P_FLRW, PT_FLRW),
        ]:
            b = _bundle(metric, vector, point)
            expect = closed_form_ricci(theta, b.connection, b.ricci["g"])
            assert np.max(np.abs(b.ricci[theta] - expect)) < 1e-10

    @pytest.mark.parametrize("theta", THETAS)
    def test_scalar_closed_form_holds_for_any_generator(self, theta):
        # The trace identities need no condition on the generator at all.
        for metric, vector, point in [
            (DESITTER, P_TIME, PT),
            (FLRW_LINEAR, P_FLRW, PT_FLRW),
            (MINKOWSKI, P_SPACE, PT),
        ]:
            b = _bundle(metric, vector, point)
            expect = closed_form_scalar(theta, b.connection, b.scalar["g"])
            assert b.scalar[theta] == pytest.approx(expect, abs=1e-10)

    def test_flat_translation_scalars_frozen(self):
        b = _bundle(MINKOWSKI, P_SPACE, PT)
        expect = {"g": 0.0, 0: -2.25, 1: -6.0, 2: 3.0, 3: 3.0, 4: 0.0, 5: -3.0}
        for theta, value in expect.items():
            assert b.scalar[theta] == pytest.approx(value, abs=1e-13)

    def test_unknown_family_rejected(self):
        c = build_connection(MINKOWSKI, P_SPACE, PT)
        with pytest.raises(ValueError):
            closed_form_ricci(7, c, np.zeros((4, 4)))
        with pytest.raises(ValueError):
            closed_form_scalar("h", c, 0.0)


class TestDeviationLaw:
    """Off-condition Ricci deviations are controlled by the traceless part
    of s = nabla pi - pi x pi + pi(P)/2 g."""

    def _s_traceless(self, c):
        s = (c.nabla_pi().T
             - np.outer(c.pi, c.pi)
             + 0.5 * c.pi_P * c.frame.g)
        trace = float(np.einsum("ab,ab->", c.frame.ginv, s)) / c.n
        return s - trace * c.frame.g

    def test_flat_translation_deviations(self):
        b = _bundle(MINKOWSKI, P_SPACE, PT)
        c = b.connection
        s0 = self._s_traceless(c)
        dev = {t: b.ricci[t] - closed_form_ricci(t, c, b.ricci["g"])
               for t in THETAS}
        assert np.max(np.abs(dev[1] + (c.n - 2) * s0)) < 1e-13
        for theta in (2, 3, 4):
            assert np.max(np.abs(dev[theta] - s0)) < 1e-13

    def test_deviation_vanishes_exactly_when_s_is_pure_trace(self):
        b = _bundle(FLRW_LINEAR, P_FLRW, PT_FLRW)
        s0 = self._s_traceless(b.connection)
        assert np.max(np.abs(s0)) < 1e-12


class TestStructure:
    def test_plane_slot_antisymmetry_families(self):
        b = _bundle(FLRW_LINEAR, P_FLRW, PT_FLRW)
        for theta in ("g", 0, 1, 2):
            r = b.riemann[theta]
            assert np.max(np.abs(r + np.swapaxes(r, 2, 3))) < 1e-12
        # The remaining families genuinely lose this symmetry when pi != 0.
        for theta in (3, 4, 5):
            r = b.riemann[theta]
            assert np.max(np.abs(r + np.swapaxes(r, 2, 3))) > 1e-3

    def test_families_two_and_three_merge_for_closed_pi(self):
        b = _bundle(FLRW_LINEAR, P_FLRW, PT_FLRW)
        assert np.max(np.abs(b.ricci[2] - b.ricci[3])) < 1e-13

    def test_einstein_tensors_are_traceless(self):
        for metric, vector, point in [
            (FLRW_LINEAR, P_FLRW, PT_FLRW),
            (MINKOWSKI, P_SPACE, PT),
        ]:
            b = _bundle(metric, vector, point)
            ginv = b.frame.ginv
            for theta in THETAS:
                assert abs(np.einsum("ab,ab->", ginv,
                                     b.einstein[theta])) < 1e-11

    def test_ricci_is_direction_trace_of_riemann(self):
        b = _bundle(FLRW_LINEAR, P_FLRW, PT_FLRW)
        for theta in THETAS:
            tr = np.einsum("cbca->ab", b.riemann[theta])
            assert np.max(np.abs(tr - b.ricci[theta])) < 1e-13


class TestEinsteinRelations:
    def test_hold_under_generator_condition(self):
        for metric, vector, point in [
            (DESITTER, P_TIME, PT),
            (FLRW_LINEAR, P_FLRW, PT_FLRW),
        ]:
            out = einstein_relations(_bundle(metric, vector, point))
            assert set(out) == {0, 1, 2, 3, 4, 5}
            assert max(out.values()) < 1e-12

    def test_fail_honestly_off_condition(self):
        out = einstein_relations(_bundle(MINKOWSKI, P_SPACE, PT))
        assert out[1] == pytest.approx(0.75, abs=1e-13)
        assert out[0] == pytest.approx(0.1875, abs=1e-13)
        assert out[5] == pytest.approx(0.1875, abs=1e-13)
