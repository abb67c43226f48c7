"""The concirc benchmark: one workload, run as fresh CLI processes, one at a
time, for a fixed number of seconds.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--out RESULTS.jsonl]

Run it from the root of a source tree: each child imports concirc from
``src``.  Every child's exit code and stdout are checked (see ``gate``); the
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones of BENCHMARK.json, taken as medians over the children; with
``--trace 1`` the run alternates untraced and fully traced children and the
metrics are the per-layer ones, medians over the traced children.  The lines
before it stamp the environment and list every metric, with ``fail_ratio``.
``--workload all`` runs each workload in turn.  ``--out`` appends one JSON
record per run, for compare.py.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import itertools
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Callable

import spans

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
CHILD_TIMEOUT_S = 150.0
BLAS_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
# Seeds whose exact stdout is recorded in golden.json: the CLI default and
# one held out from tuning.  Each run checks one of them before timing.
GATE_SEEDS = (0, 1009)
MIN_CHILDREN = 3          # per kind of child, whatever --seconds says


# ---------------------------------------------------------------------------
# workloads and their output checks
# ---------------------------------------------------------------------------

_MACHINE_ROW = re.compile(
    r"(CHECK \S+ point=(-?\d+) residual=\S+ status=(PASS|FAIL)"
    r"|VERDICT \S+ point=(-?\d+) value=\S+)\Z")


def _machine_all_pass(points: int):
    def check(out: bytes) -> list[str]:
        problems, seen = [], set()
        for line in out.decode("ascii", "replace").splitlines():
            m = _MACHINE_ROW.match(line)
            if not m:
                problems.append("unparsed line %r" % line[:80])
                continue
            seen.add(int(m.group(2) or m.group(4)))
            if m.group(3) == "FAIL":
                problems.append("failing row %r" % line[:80])
        if seen != set(range(-1, points)):
            problems.append("point indices are not -1..%d" % (points - 1))
        return problems
    return check


def _text_all_pass(points: int):
    def check(out: bytes) -> list[str]:
        text = out.decode("ascii", "replace")
        problems = []
        if "summary over %d point(s)" % points not in text:
            problems.append("no summary over %d points" % points)
        if "[FAIL]" in text:
            problems.append("a [FAIL] row")
        if not text.endswith("\nresult: PASS\n"):
            problems.append("last line is not 'result: PASS'")
        return problems
    return check


def _selftest_rows(out: bytes) -> list[str]:
    rows = out.decode("ascii", "replace").splitlines()
    names = [r.split()[1] if len(r.split()) > 1 else "" for r in rows]
    problems = []
    if len(rows) != 8 or not all(
            r.startswith("CHECK acceptance_%d_" % (i + 1))
            for i, r in enumerate(rows)):
        problems.append("not the 8 acceptance rows in order")
    failing = [n for n, r in zip(names, rows) if r.endswith("status=FAIL")]
    if failing != ["acceptance_1_closed_form_curvature_anchor"]:
        problems.append("failing rows %s, expected only acceptance_1" %
                        failing)
    return problems


@dataclass(frozen=True)
class Workload:
    name: str
    args: Callable[[int], list]       # concirc CLI arguments for a seed
    exit_code: int
    check: Callable[[bytes], list]    # problems found in stdout


# Why each workload is here: see README.md in this directory.
WORKLOADS = {w.name: w for w in (
    Workload("grw-generic-256",
             lambda s: ["builtin", "grw-generic", "--points", "256",
                        "--format", "machine", "--seed", str(s)],
             0, _machine_all_pass(256)),
    Workload("generic-field-1024",
             lambda s: ["analyze", "perfbench/generic.cfg", "--points",
                        "1024", "--seed", str(s)],
             0, _text_all_pass(1024)),
    Workload("selftest",
             lambda s: ["selftest", "--format", "machine", "--seed", str(s)],
             1, _selftest_rows),
)}


def load_golden() -> dict:
    with open(os.path.join(BENCH_DIR, "golden.json")) as fh:
        return json.load(fh)


def gate(w: Workload, seed: int, code: int, out: bytes, golden: dict,
         reference: str | None) -> list[str]:
    """Everything wrong with one child's result; empty when it is correct.

    ``reference`` is the digest every child of this run must reproduce (the
    run's first result), or None for the first one."""
    problems = []
    if code != w.exit_code:
        problems.append("exit code %d, expected %d" % (code, w.exit_code))
    problems += w.check(out)
    digest = hashlib.sha256(out).hexdigest()
    expected = golden.get(w.name, {}).get(str(seed))
    if expected is not None and (code, digest) != (expected["exit"],
                                                   expected["sha256"]):
        problems.append("exit %d / stdout sha256 %s, recorded %d / %s"
                        % (code, digest[:16], expected["exit"],
                           expected["sha256"][:16]))
    if reference is not None and digest != reference:
        problems.append("stdout differs from this run's first result")
    return problems


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------


@dataclass
class Child:
    mode: str              # "stamps" (untraced) or "full" (traced)
    code: int
    out: bytes
    wall_s: float
    rss_mb: float
    trace: dict | None     # the spans child.py wrote
    stamps: dict | None    # setup_s, points, points_per_s of a "stamps" child
    problems: list


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC, **BLAS_THREADS)


def run_child(w: Workload, seed: int, mode: str, tmp: str) -> Child:
    """One CLI process: wall time, its own peak RSS, stdout and spans."""
    trace_path = os.path.join(tmp, "spans.json")
    out_path, err_path = os.path.join(tmp, "out"), os.path.join(tmp, "err")
    if os.path.exists(trace_path):
        os.remove(trace_path)
    argv = [sys.executable, os.path.join(BENCH_DIR, "child.py"), trace_path,
            mode, "--"] + w.args(seed)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    problems, trace, stamps = [], None, None
    try:
        with open(trace_path) as fh:
            trace = json.load(fh)
    except (OSError, ValueError) as exc:
        with open(err_path, "rb") as fh:
            tail = fh.read()[-400:].decode("utf-8", "replace")
        problems.append("no span file (%s); stderr: %s" % (exc, tail))
    if trace is not None and mode == "stamps":
        stamps = spans.stamp_metrics(trace, trace["import_s"])
    return Child(mode, proc.returncode, stdout, wall,
                 usage.ru_maxrss / 1024.0, trace, stamps, problems)


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit, dirty = None, None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        def git(*args):
            return subprocess.run(["git", "-C", ROOT] + list(args),
                                  capture_output=True, text=True,
                                  timeout=30).stdout.strip()
        commit = git("rev-parse", "HEAD") or None
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "commit": commit,
        "dirty": dirty,
        "seed": seed,
    }


def measure(w: Workload, seed: int, seconds: float, traced: bool,
            tmp: str, golden: dict) -> tuple[list, list]:
    """The gate child, then timed children until ``seconds`` run out.

    The gate child runs first and untimed at a recorded seed, so it also
    warms the file cache and the bytecode cache."""
    gate_seed = GATE_SEEDS[seed % len(GATE_SEEDS)]
    first = run_child(w, gate_seed, "stamps", tmp)
    first.problems += gate(w, gate_seed, first.code, first.out, golden, None)
    modes = ("stamps", "full") if traced else ("stamps",)
    timed: list[Child] = []
    reference = None
    deadline = time.perf_counter() + seconds
    for i in itertools.count():
        mode = modes[i % len(modes)]
        same = [c.wall_s for c in timed if c.mode == mode]
        if len(same) >= MIN_CHILDREN and (
                time.perf_counter() + statistics.median(same) > deadline):
            break
        c = run_child(w, seed, mode, tmp)
        c.problems += gate(w, seed, c.code, c.out, golden, reference)
        reference = reference or hashlib.sha256(c.out).hexdigest()
        timed.append(c)
    return [first], timed


def end_to_end(timed: list) -> dict:
    plain = [c for c in timed if c.mode == "stamps"]
    return {
        "wall_s": statistics.median(c.wall_s for c in plain),
        "setup_s": statistics.median(c.stamps["setup_s"] for c in plain),
        "points_per_s": statistics.median(c.stamps["points_per_s"]
                                          for c in plain),
        "peak_rss_mb": statistics.median(c.rss_mb for c in plain),
    }


def per_layer(timed: list) -> dict:
    traced = [spans.layer_metrics(c.trace) for c in timed
              if c.mode == "full"]
    out = {k: statistics.median(m[k] for m in traced) for k in traced[0]}
    out["trace.overhead_ratio"] = (
        statistics.median(c.wall_s for c in timed if c.mode == "full")
        / statistics.median(c.wall_s for c in timed if c.mode == "stamps"))
    return out


def _child_record(c: Child) -> dict:
    rec = {"mode": c.mode, "wall_s": c.wall_s, "rss_mb": c.rss_mb,
           "code": c.code, "problems": c.problems}
    rec.update(c.stamps or {})
    return rec


def run_workload(w: Workload, seed: int, seconds: float, traced: bool,
                 bench: dict, out_file: str | None) -> dict:
    golden = load_golden()
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        gated, timed = measure(w, seed, seconds, traced, tmp, golden)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    children = gated + timed
    failed = [c for c in children if c.problems]
    for c in failed:
        print("FAILED %s child (%s): %s" % (w.name, c.mode,
                                            "; ".join(c.problems)),
              file=sys.stderr)
    usable = [c for c in timed if not c.problems]
    values = {}
    if any(c.mode == "stamps" for c in usable) and (
            not traced or any(c.mode == "full" for c in usable)):
        values = per_layer(usable) if traced else end_to_end(usable)
    declared = bench["per_layer" if traced else "end_to_end"]
    env = environment(seed)
    print("env: %s" % json.dumps(env, sort_keys=True))
    print("workload %s seed %d: %d children, %d of them traced"
          % (w.name, seed, len(children),
             sum(c.mode == "full" for c in children)))
    for m in declared:
        if m["name"] in values:
            print("  %-44s %.6g %s" % (m["name"], values[m["name"]],
                                       m["unit"]))
    print("  %-44s %.6g (%d of %d children)"
          % ("fail_ratio", len(failed) / len(children), len(failed),
             len(children)))
    result = {
        "correct": not failed and all(m["name"] in values for m in declared),
        "attempted": len(children),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared if m["name"] in values},
    }
    if out_file:
        record = dict(result, workload=w.name, seed=seed, trace=int(traced),
                      seconds=seconds, env=env,
                      children=[_child_record(c) for c in children])
        with open(out_file, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    sys.stdout.flush()
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append one JSON record per run here")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "concirc", "__init__.py")):
        print("error: no concirc source tree at %s" % SRC, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        run_workload(WORKLOADS[name], args.seed, args.seconds,
                     bool(args.trace), bench, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
