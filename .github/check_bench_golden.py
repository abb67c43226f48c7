"""Replay the benchmark's recorded stdout digests.

``perfbench/golden.json`` records the exit code and stdout sha256 of each
workload in ``perfbench/run.py``'s ``WORKLOADS`` at the seeds in
``GATE_SEEDS``.  This runs each of them once, as a CLI process on the
source tree, and judges the result with ``run.gate``, the check the
benchmark makes before it times anything.  Usage:
``python .github/check_bench_golden.py``.  Exits 0 when every workload
reproduces its record, 1 otherwise, naming each failing workload and seed.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run  # noqa: E402  perfbench/run.py, only read from


def execute(w: run.Workload, seed: int):
    """(exit code, stdout bytes) of one CLI run of workload w."""
    proc = subprocess.run([sys.executable, "-m", "concirc.cli"] + w.args(seed),
                          cwd=run.ROOT, env=run.child_env(),
                          stdout=subprocess.PIPE)
    return proc.returncode, proc.stdout


def replay(workloads, golden: dict, runner) -> int:
    """Judge runner(w, seed) for each workload and gate seed; 0 if all pass.

    A workload and seed with no record fails: it would pass run.gate
    unchecked."""
    failed = 0
    for w in workloads:
        for seed in run.GATE_SEEDS:
            if str(seed) in golden.get(w.name, {}):
                code, out = runner(w, seed)
                problems = run.gate(w, seed, code, out, golden, None)
            else:
                problems = ["no recorded digest in golden.json"]
            print("%s seed %d: %s"
                  % (w.name, seed, "; ".join(problems) or "ok"))
            failed += bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(replay(run.WORKLOADS.values(), run.load_golden(), execute))
