"""Self-tests of the benchmark.  Run from the source root:

    python3 -m pytest perfbench -q
"""

import hashlib
import json
import os
import subprocess
import sys

import compare
import run
import spans


def _span(name, start, end, parent):
    return [name, start, end, parent, 0, None, None]


def test_self_time_subtracts_only_covered_child_time():
    tree = [
        _span(0, 0, 100, -1),    # root
        _span(1, 10, 40, 0),     # child, with a grandchild
        _span(2, 20, 30, 1),     # grandchild
        _span(1, 50, 60, 0),     # second child
        _span(2, 95, 120, 0),    # child running past the root's end
    ]
    assert spans.self_times(tree) == [100 - 30 - 10 - 5, 20, 10, 10, 25]
    ix = spans.SpanIndex({"names": ["a", "b", "b.c"], "spans": tree})
    # "b" names both b and its nested b.c, which must not count twice
    assert ix.outer_ms("b") == (30 + 10 + 25) / 1e6
    assert ix.self_ms("b.c") == (10 + 25) / 1e6
    assert ix.self_ms("b") == (20 + 10 + 10 + 25) / 1e6


def _cli(args):
    env = run.child_env()
    return subprocess.run([sys.executable, "-m", "concirc.cli"] + args,
                          cwd=run.ROOT, env=env, capture_output=True)


def test_any_one_byte_change_to_stdout_fails_the_gate():
    w = run.WORKLOADS["selftest"]
    golden = run.load_golden()
    res = _cli(w.args(0))
    assert run.gate(w, 0, res.returncode, res.stdout, golden, None) == []
    digest = hashlib.sha256(res.stdout).hexdigest()
    for i in range(len(res.stdout)):
        bad = bytearray(res.stdout)
        bad[i] ^= 0x01
        assert run.gate(w, 0, res.returncode, bytes(bad), golden, None)
        assert run.gate(w, 5, res.returncode, bytes(bad), golden, digest)
    assert run.gate(w, 0, 0, res.stdout, golden, None)


def _bindings():
    owners = [m for n, m in sorted(sys.modules.items())
              if n == "concirc" or n.startswith("concirc.")]
    owners += [v for m in owners for v in vars(m).values()
               if isinstance(v, type) and v.__module__.startswith("concirc")]
    return {(id(o), k): (tuple(map(id, v)) if isinstance(v, tuple) else id(v))
            for o in owners for k, v in vars(o).items()}


def test_install_wraps_every_import_site_and_restore_undoes_it():
    sys.path.insert(0, run.SRC)
    try:
        spans.import_all()
        import concirc.classify
        import concirc.connection
        import concirc.selftest
        before = _bindings()
        original = concirc.connection.build_connection
        criteria = concirc.selftest.CRITERIA
        tracer = spans.Tracer()
        tracer.install(full=True)
        try:
            assert concirc.classify.build_connection is not original
            assert concirc.selftest.CRITERIA[0] is not criteria[0]
            changed = {k for k, v in _bindings().items() if before[k] != v}
            assert len(changed) > len(spans.FULL_SPANS)
        finally:
            tracer.restore()
        assert _bindings() == before
        assert concirc.classify.build_connection is original
    finally:
        sys.path.remove(run.SRC)


def _traced_counts(w, tmp):
    c = run.run_child(w, 3, "full", str(tmp))
    assert c.code == 0 and not c.problems
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    return {k: v for k, v in spans.layer_metrics(c.trace).items()
            if units[k] != "ms"}


def test_two_traced_runs_give_identical_counts(tmp_path):
    small = {
        "grw-generic": run.Workload(
            "grw", lambda s: ["builtin", "grw-generic", "--points", "4",
                              "--format", "machine", "--seed", str(s)],
            0, run._machine_all_pass(4)),
        "generic-field": run.Workload(
            "gen", lambda s: ["analyze", "perfbench/generic.cfg", "--points",
                              "4", "--seed", str(s)],
            0, run._text_all_pass(4)),
    }
    counts = {}
    for name, w in small.items():
        first, second = (_traced_counts(w, tmp_path) for _ in range(2))
        assert first == second
        counts[name] = first
    assert counts["grw-generic"]["classify.fd_rebuilds_per_point"] == 9
    assert counts["generic-field"]["classify.fd_rebuilds_per_point"] == 0
    assert counts["grw-generic"]["geometry.frame_at_calls_per_point"] == 11
    assert counts["generic-field"]["geometry.frame_at_calls_per_point"] == 2


def test_verdicts_follow_the_pairing_and_bound_rules():
    base = [10.0 + 0.01 * i for i in range(10)]
    assert compare.verdict(base, [x * 0.8 for x in base], "lower",
                           0.1) == "improved"
    assert compare.verdict(base, [x * 1.2 for x in base], "lower",
                           0.1) == "worse"
    assert compare.verdict(base, list(base), "lower", 0.1) == "unchanged"
    noisy = [10.0, 14.0] * 5
    assert compare.verdict(noisy, noisy[::-1], "lower", 0.1) == "unresolved"
    # fewer than ten pairs never makes a gain
    assert compare.verdict(base[:5], [x * 0.8 for x in base[:5]], "lower",
                           0.1) == "unresolved"
