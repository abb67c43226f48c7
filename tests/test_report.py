"""Record aggregation and the two output formats."""

import io
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concirc.report import (CheckRecord, Report, VerdictRecord, fmt_float,
                            fmt_value)


def _rendered(rep, fmt):
    out = io.StringIO()
    rep.render(fmt, out)
    return out.getvalue()


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


def _rescan_aggregate(rep):
    """Summary rows by one scan of every record per name: the definition
    that ``Report.aggregate`` computes in a single pass."""
    names = []
    for rec in rep.checks:
        if rec.point >= 0 and rec.name not in names:
            names.append(rec.name)
    for name in names:
        rows = [c for c in rep.checks if c.name == name and c.point >= 0]
        if any(math.isnan(c.residual) for c in rows):
            worst = math.nan
        else:
            worst = max(c.residual for c in rows)
        rep.checks.append(CheckRecord(name, -1, worst,
                                      all(c.passed for c in rows)))
    names = []
    for rec in rep.verdicts:
        if rec.point >= 0 and rec.name not in names:
            names.append(rec.name)
    for name in names:
        rows = [v for v in rep.verdicts if v.name == name and v.point >= 0]
        values = {fmt_value(v.value) for v in rows}
        common = rows[0].value if len(values) == 1 else "mixed"
        rep.verdicts.append(VerdictRecord(name, -1, common))


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
                                           (math.nan, 1e-16),
                                           (math.nan, 0.5),
                                           (0.5, math.nan, 1.0),
                                           (1e-16, 2e-16, math.nan)])
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
            _rendered(rep, "machine").splitlines()

    @pytest.mark.parametrize("residuals", [(-0.0, 0.0), (0.0, -0.0)])
    def test_ties_keep_the_first_maximum(self, residuals):
        rep = Report(tol=1e-8)
        for idx, res in enumerate(residuals):
            rep.add_point([float(idx)])
            rep.check("alpha", idx, res)
        rep.aggregate()
        assert fmt_float(rep.checks[-1].residual) == fmt_float(residuals[0])

    def test_names_keep_first_appearance_order(self):
        rep = Report(tol=1e-8)
        rep.add_point([0.0])
        rep.check("beta", 0, 0.0)
        rep.check("alpha", 0, 0.0)
        rep.verdict("zeta", 0, 1)
        rep.add_point([1.0])
        rep.check("alpha", 1, 0.0)
        rep.check("gamma", 1, 0.0)
        rep.check("beta", 1, 0.0)
        rep.verdict("eta", 1, 2)
        rep.verdict("zeta", 1, 1)
        rep.aggregate()
        assert [c.name for c in rep.checks if c.point == -1] == \
            ["beta", "alpha", "gamma"]
        assert [v.name for v in rep.verdicts if v.point == -1] == \
            ["zeta", "eta"]

    @pytest.mark.parametrize("values, expected", [
        ((1, 1.0), "mixed"),                 # tokens "1" and "1.0" differ
        ((True, 1), "mixed"),
        (("barrier", "barrier", "phantom"), "mixed"),
        ((None, None), None),
        ((0.5, np.float64(0.5)), 0.5),       # same token: first value kept
    ])
    def test_mixed_is_decided_by_the_printed_token(self, values, expected):
        rep = Report(tol=1e-8)
        for idx, value in enumerate(values):
            rep.add_point([float(idx)])
            rep.verdict("kind", idx, value)
        rep.aggregate()
        agg = rep.verdicts[-1]
        assert agg.point == -1
        assert agg.value == expected
        assert type(agg.value) is type(expected)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.tuples(
        st.sampled_from(("alpha", "beta", "gamma")),
        st.sampled_from((0.0, -0.0, 1e-12, 4e-9, 0.5, math.nan)),
        st.sampled_from((True, False, 1, 1.0, "x", None))),
        max_size=4), min_size=1, max_size=6))
    def test_matches_the_per_name_rescan(self, points):
        fast, slow = Report(tol=1e-8), Report(tol=1e-8)
        for rep in (fast, slow):
            for pt in points:
                idx = rep.add_point([0.0])
                for name, residual, value in pt:
                    rep.check(name, idx, residual)
                    rep.verdict("v_" + name, idx, value)
        fast.aggregate()
        _rescan_aggregate(slow)
        assert _rendered(fast, "machine") == _rendered(slow, "machine")
        assert _rendered(fast, "text") == _rendered(slow, "text")

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
        lines = _rendered(rep, "machine").splitlines()
        assert "CHECK alpha point=0 residual=1e-12 status=PASS" in lines
        assert "CHECK beta point=0 residual=0.5 status=FAIL" in lines
        assert "VERDICT gamma point=-1 value=mixed" in lines

    def test_text_format_summarises(self):
        rep = _sample_report()
        text = _rendered(rep, "text")
        assert "result: FAIL" in text
        assert "point 0" in text and "point 1" in text

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            _sample_report().render("json", io.StringIO())


class _Discard:
    """A write-only sink that keeps nothing."""

    def write(self, text):
        return len(text)


class _Writes(list):
    """A sink that keeps each write as one item."""

    write = list.append


@pytest.fixture(scope="module")
def large_report():
    """1024 points with the 10 CHECK + 32 VERDICT rows a point of a
    generic-metric run produces."""
    rep = Report(tol=1e-8)
    rep.preamble.append("coordinates: t x y z")
    for i in range(1024):
        idx = rep.add_point([0.1 * i, -0.25, 1.0 / (i + 1), 3.0])
        for k in range(10):
            rep.check("check_%d" % k, idx, 1e-17 * (i + 1) * (k + 1))
        for k in range(32):
            rep.verdict("verdict_%d" % k, idx,
                        i / (k + 7.0) if k % 4 == 0 else (i + k) % 3 == 0)
    rep.aggregate()
    return rep


class TestStreaming:
    @pytest.mark.parametrize("fmt", ["text", "machine"])
    def test_render_holds_no_output_in_memory(self, large_report, fmt):
        tracemalloc.start()
        try:
            large_report.render(fmt, _Discard())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * 2 ** 20

    @pytest.mark.parametrize("fmt", ["text", "machine"])
    def test_every_write_ends_a_line(self, fmt):
        writes = _Writes()
        _sample_report().render(fmt, writes)
        assert len(writes) > 6
        assert all(w.endswith("\n") and w.count("\n") <= 2 for w in writes)
