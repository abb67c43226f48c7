#!/usr/bin/env python3
"""Sweep constant (sigma, p) fluids over a geometry and map the w = -1 line.

For each grid cell the script reports the norm of the stress-energy
divergence (for a constant fluid it is (sigma + p) div(pi x pi), so
conservation is equivalent to sigma + p = 0) and the equation-of-state
regime.  The barrier column of the table is exactly the anti-diagonal
sigma = -p.

Usage: fluid_grid.py [--name grw-generic] [--lo -2] [--hi 2] [--steps 9]
"""

import argparse

import numpy as np

from concirc.catalog import BUILTIN_NAMES, build_case
from concirc.connection import build_connection
from concirc.curvature import curvature_family
from concirc.relativity import FluidParams, div_tau, phantom_verdict

MARK = {"undefined": "?", "barrier": "B", "phantom": "P", "ordinary": "."}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--name", default="grw-generic", choices=BUILTIN_NAMES)
    ap.add_argument("--lo", type=float, default=-2.0)
    ap.add_argument("--hi", type=float, default=2.0)
    ap.add_argument("--steps", type=int, default=9)
    args = ap.parse_args()

    case = build_case(args.name)
    point = np.array([0.5 * (lo + hi) for lo, hi in case.bounds])
    bundle = curvature_family(
        build_connection(case.metric, case.vector, point))

    grid = np.linspace(args.lo, args.hi, args.steps)
    print("case %s at %s" % (args.name, " ".join("%g" % x for x in point)))
    print("cells: regime mark (%s), then |div tau|"
          % ", ".join("%s=%s" % (v, k) for k, v in MARK.items()))
    header = "sigma\\p " + " ".join("%8.2f" % p for p in grid)
    print(header)
    for sigma in grid:
        cells = []
        for p in grid:
            fluid = FluidParams.from_strings(
                case.coords, sigma="%.6f" % sigma, p="%.6f" % p)
            norm = float(np.max(np.abs(div_tau(bundle, fluid))))
            regime = phantom_verdict(sigma, p).regime
            cells.append("%s %6.0e" % (MARK[regime], norm))
        print("%7.2f  %s" % (sigma, " ".join(cells)))

    print("\nconservation holds to rounding on the B column/diagonal: "
          "div tau = (sigma + p) div(pi x pi) for a constant fluid.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
