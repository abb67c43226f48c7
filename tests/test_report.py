"""Record aggregation and the two output formats."""

import math

import pytest

from concirc.report import Report, fmt_float, fmt_value


class TestFormatting:
    def test_floats_round_trip_through_repr(self):
        for x in (0.1, 1e-300, 12.0, 3.141592653589793, -0.0):
            assert float(fmt_float(x)) == x

    def test_value_tokens(self):
        assert fmt_value(None) == "none"
        assert fmt_value(True) == "True"
        assert fmt_value(False) == "False"
        assert fmt_value(3) == "3"
        assert fmt_value(0.5) == "0.5"
        assert fmt_value("barrier") == "barrier"


def _sample_report():
    rep = Report(tol=1e-8)
    rep.add_point([0.0, 1.0])
    rep.check("alpha", 0, 1e-12)
    rep.check("beta", 0, 0.5)
    rep.verdict("gamma", 0, "yes")
    rep.add_point([2.0, 3.0])
    rep.check("alpha", 1, 4e-9)
    rep.check("beta", 1, 1e-13)
    rep.verdict("gamma", 1, "no")
    rep.aggregate()
    return rep


class TestAggregation:
    def test_checks_keep_worst_residual_and_and_the_verdicts(self):
        rep = _sample_report()
        agg = {c.name: c for c in rep.checks if c.point == -1}
        assert agg["alpha"].residual == 4e-9
        assert agg["alpha"].passed
        assert agg["beta"].residual == 0.5
        assert not agg["beta"].passed

    def test_mixed_verdicts_are_flagged(self):
        rep = _sample_report()
        agg = {v.name: v for v in rep.verdicts if v.point == -1}
        assert agg["gamma"].value == "mixed"

    def test_common_verdict_is_propagated(self):
        rep = Report(tol=1e-8)
        rep.add_point([0.0])
        rep.verdict("kind", 0, "same")
        rep.add_point([1.0])
        rep.verdict("kind", 1, "same")
        rep.aggregate()
        agg = {v.name: v for v in rep.verdicts if v.point == -1}
        assert agg["kind"].value == "same"

    @pytest.mark.parametrize("residuals", [(1e-16, math.nan),
                                           (math.nan, 1e-16)])
    def test_nan_residual_makes_the_aggregate_nan_and_fail(self, residuals):
        rep = Report(tol=1e-8)
        for idx, res in enumerate(residuals):
            rep.add_point([float(idx)])
            rep.check("alpha", idx, res)
        rep.aggregate()
        agg = rep.checks[-1]
        assert agg.point == -1
        assert math.isnan(agg.residual)
        assert not agg.passed
        assert "CHECK alpha point=-1 residual=nan status=FAIL" in \
            rep.render("machine").splitlines()

    def test_ok_requires_every_check_to_pass(self):
        rep = _sample_report()
        assert not rep.ok
        clean = Report(tol=1e-8)
        clean.add_point([0.0])
        clean.check("alpha", 0, 0.0)
        clean.aggregate()
        assert clean.ok


class TestRendering:
    def test_machine_lines(self):
        rep = _sample_report()
        lines = rep.render("machine").splitlines()
        assert "CHECK alpha point=0 residual=1e-12 status=PASS" in lines
        assert "CHECK beta point=0 residual=0.5 status=FAIL" in lines
        assert "VERDICT gamma point=-1 value=mixed" in lines

    def test_text_format_summarises(self):
        rep = _sample_report()
        text = rep.render("text")
        assert "result: FAIL" in text
        assert "point 0" in text and "point 1" in text

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            _sample_report().render("json")
