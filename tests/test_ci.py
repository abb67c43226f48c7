"""The tier-1 workflow's failure filter, run on small JUnit reports."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CRITERION_1 = ('<testcase classname="tests.test_acceptance" '
               'name="test_criterion_1_closed_form_curvature_anchor">'
               '<failure message="by design"/></testcase>')


def _filter(tmp_path, cases: str):
    xml = tmp_path / "tier1.xml"
    xml.write_text('<?xml version="1.0"?><testsuites><testsuite name="pytest">'
                   '<testcase classname="tests.test_cli" name="test_ok"/>'
                   + cases + "</testsuite></testsuites>")
    return subprocess.run(
        [sys.executable, str(ROOT / ".github" / "check_tier1.py"), str(xml)],
        capture_output=True, text=True)


def test_only_criterion_1_failing_passes(tmp_path):
    res = _filter(tmp_path, CRITERION_1)
    assert res.returncode == 0, res.stdout + res.stderr


def test_an_extra_failure_or_error_fails_and_is_named(tmp_path):
    for kind in ("failure", "error"):
        res = _filter(tmp_path, CRITERION_1
                      + '<testcase classname="tests.test_report" '
                        'name="test_extra"><%s/></testcase>' % kind)
        assert res.returncode == 1, kind
        assert "unexpected: ['tests.test_report::test_extra']" in res.stdout
