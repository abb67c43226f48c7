"""The tier-1 workflow's checks: the failure filter, run on small JUnit
reports, and the benchmark digest replay, judged on synthetic stdout."""

import functools
import hashlib
import importlib.util
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


@functools.lru_cache(maxsize=None)
def _replay_script():
    spec = importlib.util.spec_from_file_location(
        "check_bench_golden", ROOT / ".github" / "check_bench_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _replay(outputs: dict, golden_seeds=None):
    """Replay one synthetic workload whose seed-s run gives outputs[s]."""
    script = _replay_script()
    run = script.run
    work = run.Workload("fake", lambda s: [], 0, lambda out: [])
    seeds = run.GATE_SEEDS if golden_seeds is None else golden_seeds
    golden = {"fake": {str(s): {"exit": 0, "sha256": hashlib.sha256(
        b"row %d\n" % s).hexdigest()} for s in seeds}}
    return script.replay([work], golden, lambda w, s: outputs[s])


def test_replay_passes_only_the_recorded_bytes_and_exit(capsys):
    seeds = _replay_script().run.GATE_SEEDS
    good = {s: (0, b"row %d\n" % s) for s in seeds}
    assert _replay(good) == 0
    assert capsys.readouterr().out.count(": ok\n") == len(seeds)
    last = seeds[-1]
    for wrong in ((0, b"row %d \n" % last), (1, b"row %d\n" % last)):
        assert _replay({**good, last: wrong}) == 1
        out = capsys.readouterr().out
        assert "fake seed %d: exit" % last in out
        assert "fake seed %d: ok" % seeds[0] in out


def test_replay_fails_a_seed_with_no_record(capsys):
    seeds = _replay_script().run.GATE_SEEDS
    good = {s: (0, b"row %d\n" % s) for s in seeds}
    assert _replay(good, golden_seeds=seeds[:1]) == 1
    assert ("fake seed %d: no recorded digest" % seeds[-1]
            in capsys.readouterr().out)
