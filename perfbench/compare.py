"""Compare two result sets written by ``run.py --out``.  Reports; never
gates.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Make the runs of the two sides alternately (base, change, base, ...), each
appending to its own file: runs are paired in file order, and the machine's
speed can drift by more than the bounds between two sets made one after the
other.

For each workload, and each metric that both sets measured, it prints the
median and quartiles of the per-run values on each side and a verdict:

* improved   -- at least ten runs a side, the change wins at least nine
                tenths of the pairs (ties count for neither), and the
                medians differ by more than the base's quartile spread;
* worse      -- the change's median is worse than the base's by more than
                the metric's bound in BENCHMARK.json (per-layer metrics
                have no bound: the mirror image of "improved");
* unresolved -- neither, and either the quartile spread of a side is wider
                than the bound (unless every run of the change reads better
                than every run of the base), or the change looks better by
                more than the base's spread without meeting "improved";
* unchanged  -- otherwise.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _wins(base, change, sign) -> int:
    return sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)


def verdict(base: list, change: list, better: str,
            bound: float | None) -> str:
    sign = 1.0 if better == "higher" else -1.0
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    pairs = min(len(base), len(change))
    gain = sign * (cm - bm)
    if pairs >= 10 and _wins(base, change, sign) >= 0.9 * pairs \
            and gain > b3 - b1:
        return "improved"
    if bound is None:
        if pairs >= 10 and _wins(change, base, sign) >= 0.9 * pairs \
                and -gain > b3 - b1:
            return "worse"
        return "unchanged" if abs(gain) <= b3 - b1 else "unresolved"
    if -gain > bound * abs(bm):
        return "worse"
    if max(b3 - b1, c3 - c1) > bound * abs(bm):
        worst_change = min(sign * c for c in change)
        best_base = max(sign * b for b in base)
        return "unchanged" if worst_change > best_base else "unresolved"
    return "unresolved" if gain > b3 - b1 else "unchanged"


def load(path: str) -> dict:
    """{(workload, trace): {metric: [per-run values, in file order]}}"""
    out: dict = {}
    with open(path) as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            runs = out.setdefault((rec["workload"], rec["trace"]), {})
            for name, m in rec["metrics"].items():
                runs.setdefault(name, []).append(m["value"])
    return out


def compare(base: dict, change: dict, bench: dict) -> list[str]:
    declared = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    lines = []
    for key in sorted(set(base) & set(change)):
        workload, trace = key
        rows, summary = [], []
        for name, meta in declared.items():
            if name not in base[key] or name not in change[key]:
                continue
            b, c = base[key][name], change[key][name]
            v = verdict(b, c, meta["better"], meta.get("bound"))
            summary.append("%s %s" % (name, v))
            rows.append("    %-44s %s -> %s  %s %s (%d/%d runs)" % (
                name, _fmt(b), _fmt(c), meta["unit"], v, len(b), len(c)))
        lines.append("%s%s: %s" % (workload, " (traced)" if trace else "",
                                   ", ".join(summary)))
        lines += rows
    return lines


def _fmt(values) -> str:
    q1, med, q3 = quartiles(values)
    return "%.6g [%.6g, %.6g]" % (med, q1, q3)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for line in compare(load(argv[0]), load(argv[1]), bench):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
