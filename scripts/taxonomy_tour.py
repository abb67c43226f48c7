#!/usr/bin/env python3
"""Classify a gallery of vector fields and print the taxonomy side by side.

Each column is one (metric, field) pair; each row one structural property.
The gallery covers the canonical examples: a concurrent position field, a
rotational Killing field, a parallel translation, and the time generators
of the shipped warped geometries.
"""

import numpy as np

from concirc.catalog import build_case
from concirc.classify import TAXONOMY_FLAGS, classify_vector
from concirc.connection import build_connection
from concirc.geometry import MetricSpec, VectorFieldSpec

def _flat(coords, entries):
    n = len(coords)
    rows = [["0"] * n for _ in range(n)]
    for i, e in enumerate(entries):
        rows[i][i] = e
    return MetricSpec.from_strings(coords, rows)


def _case_builtin(name):
    case = build_case(name)
    point = np.array([0.5 * (lo + hi) for lo, hi in case.bounds])
    return case.metric, case.vector, point


def gallery():
    e3 = ("u", "v", "w")
    yield "position", (
        _flat(e3, ["1", "1", "1"]),
        VectorFieldSpec.from_strings(e3, ["u", "v", "w"]),
        np.array([0.4, -0.7, 1.1]))
    yield "rotation", (
        _flat(("u", "v"), ["1", "1"]),
        VectorFieldSpec.from_strings(("u", "v"), ["0 - v", "u"]),
        np.array([0.4, -0.7]))
    yield "translation", _case_builtin("minkowski")
    yield "exp warp", _case_builtin("desitter-flat")
    yield "power warp", _case_builtin("flrw")
    yield "curved base", _case_builtin("grw-generic")


def main() -> int:
    columns = list(gallery())
    names = [name for name, _ in columns]
    taxa = [classify_vector(m, p, build_connection(m, p, pt))
            for _, (m, p, pt) in columns]

    width = max(len(r) for r in TAXONOMY_FLAGS) + 2
    colw = max(max(len(n) for n in names) + 2, 7)
    print(" " * width + "".join(n.rjust(colw) for n in names))
    for row in TAXONOMY_FLAGS:
        marks = []
        for tax in taxa:
            value = getattr(tax, row)
            marks.append({True: "yes", False: "-", None: "n/a"}[value])
        print(row.ljust(width) + "".join(m.rjust(colw) for m in marks))

    print()
    print("fitted omega".ljust(width) + "".join(
        ("%.3f" % t.omega_hat if t.omega_hat is not None else "n/a").rjust(colw)
        for t in taxa))
    print("fit residual".ljust(width) + "".join(
        ("%.1e" % t.fit_residual if t.fit_residual is not None else "n/a")
        .rjust(colw) for t in taxa))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
