"""Vector-field taxonomy, quasi-Einstein fits, and warped-product detection."""

from pathlib import Path

import numpy as np
import pytest

from concirc import classify
from concirc.analysis import _evaluate_point, gather_points, run_analysis
from concirc.catalog import build_case
from concirc.classify import (
    TAXONOMY_FLAGS,
    RicciData,
    classify_point,
    classify_quasi_einstein,
    classify_vector,
    einstein_type,
    grw_detect,
    grw_identity_suite,
    perfect_fluid_kind,
    quasi_einstein_equivalences,
)
from concirc.config import apply_overrides, load_config
from concirc.connection import build_connection
from concirc.curvature import THETAS, curvature_family
from concirc.geometry import VectorFieldSpec
from concirc.report import Report

from testkit import (DESITTER, FLRW_LINEAR, MINKOWSKI, P_FLRW, P_SPACE, P_TIME,
                     PT, PT_FLRW, diag_metric)

MINK_G = np.diag([-1.0, 1.0, 1.0, 1.0])
UNIT_PI = np.array([-1.0, 0.0, 0.0, 0.0])


def _taxonomy(metric, vector, point):
    point = np.asarray(point, dtype=float)
    return classify_vector(metric, vector,
                           build_connection(metric, vector, point))


class TestVectorTaxonomy:
    def test_position_field_is_concurrent(self):
        m = diag_metric(("u", "v", "w"), ["1", "1", "1"])
        p = VectorFieldSpec.from_strings(("u", "v", "w"), ["u", "v", "w"])
        tax = _taxonomy(m, p, [0.4, -0.7, 1.1])
        assert not tax.indeterminate
        assert tax.torse_forming
        assert tax.omega_hat == pytest.approx(1.0, abs=1e-12)
        assert tax.concurrent
        assert tax.torqued
        assert tax.concircular_fialkow
        assert tax.concircular_yano
        assert not tax.recurrent
        assert not tax.parallel
        assert not tax.geodesic
        assert tax.conformal_killing
        assert tax.conformal_factor == pytest.approx(1.0, abs=1e-12)
        assert not tax.killing

    def test_rotation_field_is_killing_but_not_torse_forming(self):
        m = diag_metric(("u", "v"), ["1", "1"])
        p = VectorFieldSpec.from_strings(("u", "v"), ["0 - v", "u"])
        tax = _taxonomy(m, p, [0.4, -0.7])
        assert not tax.torse_forming
        assert tax.fit_residual > 1e-3
        assert tax.killing
        assert tax.conformal_killing
        assert tax.conformal_factor == pytest.approx(0.0, abs=1e-12)

    def test_zero_field_is_indeterminate(self):
        m = diag_metric(("u", "v"), ["1", "1"])
        p = VectorFieldSpec.from_strings(("u", "v"), ["0", "0"])
        tax = _taxonomy(m, p, [0.4, -0.7])
        assert tax.indeterminate
        assert tax.omega_hat is None
        assert tax.killing is None

    def test_warp_time_generator(self):
        tax = _taxonomy(DESITTER, P_TIME, PT)
        assert tax.torse_forming
        assert tax.omega_hat == pytest.approx(1.0, abs=1e-12)
        assert tax.self_torse_forming     # eta = pi = (-1, 0, 0, 0)
        assert tax.unit_timelike
        assert not tax.unit_spacelike
        assert tax.geodesic
        assert not tax.torqued            # eta(P) = -1, not 0
        assert not tax.concircular_fialkow
        assert tax.concircular_yano       # the fitted eta field is closed
        assert not tax.anti_torqued
        assert not tax.conformal_killing

    def test_power_law_generator_is_self_torse_forming(self):
        tax = _taxonomy(FLRW_LINEAR, P_FLRW, PT_FLRW)
        assert tax.torse_forming
        assert tax.self_torse_forming
        assert not tax.unit_timelike
        assert not tax.torqued
        assert not tax.concircular_fialkow
        assert not tax.recurrent

    def test_parallel_field_on_flat_space(self):
        tax = _taxonomy(MINKOWSKI, P_SPACE, PT)
        assert tax.torse_forming
        assert tax.omega_hat == pytest.approx(0.0, abs=1e-14)
        assert tax.parallel
        assert tax.recurrent
        assert tax.concircular_fialkow
        assert tax.geodesic
        assert tax.killing
        assert tax.unit_spacelike


class TestQuasiEinsteinFit:
    def test_exact_two_parameter_data(self):
        d = RicciData(MINK_G, 2.0 * MINK_G + 3.0 * np.outer(UNIT_PI, UNIT_PI),
                      UNIT_PI)
        fit = classify_quasi_einstein(d)
        assert fit.a == pytest.approx(2.0, abs=1e-12)
        assert fit.b == pytest.approx(3.0, abs=1e-12)
        assert fit.residual < 1e-14
        assert fit.quasi_einstein
        assert fit.b_identifiable
        # not Einstein: no multiple of g alone fits Ric
        assert not classify_quasi_einstein(
            RicciData(MINK_G, d.ric, np.zeros(4))).quasi_einstein

    def test_einstein_data_with_zero_form(self):
        d = RicciData(MINK_G, 5.0 * MINK_G, np.zeros(4))
        fit = classify_quasi_einstein(d)
        assert fit.a == pytest.approx(5.0, abs=1e-12)
        assert fit.b == 0.0
        assert fit.quasi_einstein       # with b = 0: Einstein
        assert not fit.b_identifiable

    def test_generic_data_rejected(self):
        ric = np.zeros((4, 4))
        ric[1, 2] = ric[2, 1] = 1.0
        d = RicciData(MINK_G, ric, UNIT_PI)
        fit = classify_quasi_einstein(d)
        assert not fit.quasi_einstein
        assert fit.residual > 1e-2


class TestRicciDataInverse:
    @staticmethod
    def _count_inversions(monkeypatch):
        calls = []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv",
                            lambda a: calls.append(1) or inv(a))
        return calls

    def test_g_is_inverted_once_per_instance(self, monkeypatch):
        calls = self._count_inversions(monkeypatch)
        d = RicciData(MINK_G, 3.0 * MINK_G + np.outer(UNIT_PI, UNIT_PI),
                      UNIT_PI)
        classify_quasi_einstein(d)
        for theta in (0, 4, 5):
            quasi_einstein_equivalences(theta, d)
        assert d.r == pytest.approx(11.0) and d.pi_P == pytest.approx(-1.0)
        assert len(calls) == 1

    def test_bundle_data_reuse_the_frame_inverse(self, monkeypatch):
        bundle = curvature_family(build_connection(DESITTER, P_TIME, PT))
        fresh = RicciData(bundle.frame.g, bundle.ricci["g"],
                          bundle.connection.pi)
        assert np.array_equal(RicciData.from_bundle(bundle).ginv, fresh.ginv)
        calls = self._count_inversions(monkeypatch)
        fit = classify_quasi_einstein(RicciData.from_bundle(bundle))
        perfect_fluid_kind(bundle, fit)
        assert calls == []


class TestEinsteinType:
    # Coefficient that makes the family-theta traceless tensor vanish for
    # Ric = (b + n - 1) g + b pi x pi with a unit timelike form, n = 4.
    B_BY_THETA = {0: 0.75, 4: 3.0, 5: 1.5}
    R_BY_THETA = {0: 14.25, 4: 21.0, 5: 16.5}

    @pytest.mark.parametrize("theta", [0, 4, 5])
    def test_constructed_data_passes(self, theta):
        b = self.B_BY_THETA[theta]
        ric = (b + 3.0) * MINK_G + b * np.outer(UNIT_PI, UNIT_PI)
        rep = quasi_einstein_equivalences(
            theta, RicciData(MINK_G, ric, UNIT_PI))
        assert rep.e_holds
        assert rep.e_residual < 1e-12

    @pytest.mark.parametrize("theta", [0, 4, 5])
    def test_wrong_family_fails(self, theta):
        other = {0: 4, 4: 5, 5: 0}[theta]
        b = self.B_BY_THETA[theta]
        ric = (b + 3.0) * MINK_G + b * np.outer(UNIT_PI, UNIT_PI)
        rep = quasi_einstein_equivalences(
            other, RicciData(MINK_G, ric, UNIT_PI))
        assert not rep.e_holds

    @pytest.mark.parametrize("theta", [0, 4, 5])
    def test_perturbed_data_fails(self, theta):
        b = self.B_BY_THETA[theta]
        ric = (b + 3.0) * MINK_G + b * np.outer(UNIT_PI, UNIT_PI)
        ric = ric.copy()
        ric[1, 2] = ric[2, 1] = 1e-3
        rep = quasi_einstein_equivalences(
            theta, RicciData(MINK_G, ric, UNIT_PI))
        assert not rep.e_holds

    @pytest.mark.parametrize("theta", [0, 4, 5])
    def test_equivalence_report_with_scalar_pinning(self, theta):
        b = self.B_BY_THETA[theta]
        ric = (b + 3.0) * MINK_G + b * np.outer(UNIT_PI, UNIT_PI)
        rep = quasi_einstein_equivalences(
            theta, RicciData(MINK_G, ric, UNIT_PI))
        assert rep.e_holds and rep.form_holds and rep.consistent
        assert rep.r == pytest.approx(self.R_BY_THETA[theta], abs=1e-10)
        assert rep.grw_kind_matches

    def test_five_dimensional_scalar_constant(self):
        g = np.diag([-1.0, 1.0, 1.0, 1.0, 1.0])
        pi = np.array([-1.0, 0.0, 0.0, 0.0, 0.0])
        b = 4.0  # family-4 coefficient in dimension five
        ric = (b + 4.0) * g + b * np.outer(pi, pi)
        rep = quasi_einstein_equivalences(4, RicciData(g, ric, pi))
        assert rep.e_holds and rep.form_holds
        assert rep.r == pytest.approx(36.0, abs=1e-10)
        assert rep.grw_kind_matches

    def test_bundle_source_accepted(self):
        bundle = curvature_family(build_connection(DESITTER, P_TIME, PT))
        assert einstein_type(1, bundle).holds
        assert einstein_type("g", bundle).holds
        assert not einstein_type(4, bundle).holds


class TestWarpedProductDetection:
    def test_exponential_warp_passes(self):
        rep = grw_detect(build_connection(DESITTER, P_TIME, PT))
        assert rep.passes
        assert rep.generator_residual < 1e-12

    def test_flat_translation_fails(self):
        c = build_connection(MINKOWSKI, P_SPACE, PT)
        rep = grw_detect(c)
        assert not rep.passes
        assert c.pi_P == pytest.approx(1.0)     # unit spacelike
        assert rep.generator_residual > 0.1

    def test_power_law_generator_fails(self):
        rep = grw_detect(build_connection(FLRW_LINEAR, P_FLRW, PT_FLRW))
        assert not rep.passes

    def test_identity_suite_on_detected_geometry(self):
        bundle = curvature_family(build_connection(DESITTER, P_TIME, PT))
        suite = grw_identity_suite(bundle)
        assert len(suite) == 16
        assert max(suite.values()) < 1e-11

    def test_fluid_coefficients_on_detected_geometry(self):
        bundle = curvature_family(build_connection(DESITTER, P_TIME, PT))
        fit = classify_quasi_einstein(RicciData.from_bundle(bundle))
        rep = perfect_fluid_kind(bundle, fit)
        assert rep.a_minus_b == pytest.approx(3.0, abs=1e-10)
        assert rep.rewrite_residual < 1e-12
        assert fit.a == pytest.approx(3.0, abs=1e-10)
        assert fit.b == pytest.approx(0.0, abs=1e-10)
        # every family's Ricci tensor is quasi-Einstein on de Sitter
        for theta in THETAS:
            data = RicciData(bundle.frame.g, bundle.ricci[theta],
                             bundle.connection.pi)
            assert classify_quasi_einstein(data).quasi_einstein, theta


class TestPointClassification:
    def test_full_report_on_warped_geometry(self):
        bundle = curvature_family(build_connection(DESITTER, P_TIME, PT))
        rep = classify_point(DESITTER, P_TIME, bundle)
        assert rep.concircular
        assert rep.concircular_residual < 1e-12
        assert rep.grw.passes
        holds = {t: v.holds for t, v in rep.kinds.items()}
        assert holds == {"g": True, 0: False, 1: True, 2: True,
                         3: True, 4: False, 5: False}

    def test_detection_gated_sections_absent_off_condition(self):
        bundle = curvature_family(build_connection(MINKOWSKI, P_SPACE, PT))
        rep = classify_point(MINKOWSKI, P_SPACE, bundle)
        assert not rep.concircular
        assert not rep.grw.passes
        assert rep.taxonomy.parallel

    def test_one_quasi_einstein_fit_per_grw_point(self, monkeypatch):
        """The fluid block reads classify_point's fit; it fits nothing."""
        setup = build_case("grw-generic")
        point = gather_points(apply_overrides(setup, points=1))[0][0]
        calls = {"eigh": 0, "fit": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "eigh",
                            counted("eigh", np.linalg.eigh))
        monkeypatch.setattr(classify, "classify_quasi_einstein",
                            counted("fit", classify.classify_quasi_einstein))
        rep = Report(setup.tol)
        _evaluate_point(rep, setup, point)
        assert "grw_fluid_coefficients" in {c.name for c in rep.checks}
        # one eigh in classify_vector, one in the quasi-Einstein fit
        assert calls == {"eigh": 2, "fit": 1}


# VERDICT rows the analysis takes from elsewhere than classify_point
NOT_CLASSIFIED = {"omega", "fluid_regime", "eos_w"}


def classification_rows(rep) -> dict:
    """The VERDICT rows a ClassificationReport stands for, by row name."""
    tax, qe = rep.taxonomy, rep.quasi_einstein
    rows = {"concircular": rep.concircular,
            "concircular_residual": rep.concircular_residual,
            "generator_indeterminate": tax.indeterminate,
            "quasi_einstein": qe.quasi_einstein,
            "einstein": rep.kinds["g"].holds,
            "qe_coefficient_a": qe.a,
            "qe_coefficient_b": qe.b if qe.b_identifiable else None,
            "grw": rep.grw.passes}
    rows.update((flag, getattr(tax, flag)) for flag in TAXONOMY_FLAGS)
    if not tax.indeterminate:
        rows["omega_hat"] = tax.omega_hat
        rows["conformal_factor"] = tax.conformal_factor
    rows.update(("einstein_type_theta%s" % t, kind.holds)
                for t, kind in rep.kinds.items())
    return rows


@pytest.mark.parametrize("source", ["grw-generic", "generic.cfg"])
def test_analysis_verdicts_are_classify_point_fields(source):
    """The CLI's verdicts are the library's, value for value."""
    if source == "generic.cfg":
        setup = load_config(Path(__file__).resolve().parents[1]
                            / "perfbench" / "generic.cfg")
    else:
        setup = build_case(source)
    setup = apply_overrides(setup, points=4)
    report = run_analysis(setup)
    emitted = {}
    for v in report.verdicts:
        if v.point >= 0:
            emitted.setdefault(v.point, {})[v.name] = v.value
    assert sorted(emitted) == list(range(4))
    for idx, point in enumerate(report.points):
        bundle = curvature_family(
            build_connection(setup.metric, setup.vector, point))
        want = classification_rows(
            classify_point(setup.metric, setup.vector, bundle, setup.tol))
        got = emitted[idx]
        assert set(got) - NOT_CLASSIFIED == set(want)
        assert {name: got[name] for name in want} == want
