#!/usr/bin/env python3
"""Walk the full identity chain for one builtin geometry at one point.

Prints, in dependency order: the generator data (omega, pi(P)), the
concircularity residual, the parallelism of the generator under the
torsionful connection, the warped-product detection, the six family
scalars with the residuals of the ricci_closed_form_theta* and
scalar_relation_theta* CHECK rows, the quasi-Einstein coefficients, and
the vacuum field equation when the case ships a fluid.

Usage: identity_chain.py [--name desitter-flat] [--point T X Y Z]
"""

import argparse

import numpy as np

from concirc.catalog import BUILTIN_NAMES, build_case
from concirc.classify import (RicciData, classify_quasi_einstein, grw_detect,
                              perfect_fluid_kind)
from concirc.connection import build_connection, check_concircular, nabla1_P
from concirc.curvature import (
    THETAS,
    closed_form_scalar,
    curvature_family,
    ricci_relations,
    scalar_relations,
)
from concirc.relativity import efe_residual


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--name", default="desitter-flat", choices=BUILTIN_NAMES)
    ap.add_argument("--point", type=float, nargs="+", default=None,
                    help="evaluation point (defaults to the bounds centre)")
    args = ap.parse_args()

    case = build_case(args.name)
    if args.point is None:
        point = np.array([0.5 * (lo + hi) for lo, hi in case.bounds])
    else:
        if len(args.point) != len(case.coords):
            ap.error("--point needs %d values" % len(case.coords))
        point = np.array(args.point)

    print("case   : %s — %s" % (args.name, case.description))
    print("point  : %s" % " ".join("%g" % x for x in point))

    c = build_connection(case.metric, case.vector, point)
    print("\ngenerator")
    print("  omega            %+.12f" % c.omega)
    print("  pi(P)            %+.12f" % c.pi_P)
    print("  div P            %+.12f" % c.div_P)
    conc = check_concircular(c)
    print("  condition        %s (residual %.3e)"
          % ("holds" if conc.holds else "fails", conc.residual))
    gen = nabla1_P(c)
    print("  |nabla1 P|       %.3e (closed-form residual %.3e)"
          % (np.max(np.abs(gen.tensor)), gen.closed_form_residual))
    grw = grw_detect(c)
    print("  warped product   %s" % ("detected" if grw.passes else "no"))

    bundle = curvature_family(c)
    ricci_res, scalar_res = ricci_relations(bundle), scalar_relations(bundle)
    print("\nfamily   scalar        closed form   ricci resid  scalar resid")
    for theta in THETAS[1:]:
        closed_r = closed_form_scalar(theta, c, bundle.scalar["g"])
        print("  %-5s  %+12.6f  %+12.6f  %.3e    %.3e"
              % (theta, bundle.scalar[theta], closed_r, ricci_res[theta],
                 scalar_res[theta]))

    if grw.passes:
        fg = classify_quasi_einstein(RicciData.from_bundle(bundle))
        fluid_kind = perfect_fluid_kind(bundle, fg)
        print("\nquasi-Einstein (Levi-Civita family)")
        print("  a = %+.9f  b = %+.9f  a - b = %+.9f (expect %d)"
              % (fg.a, fg.b, fluid_kind.a_minus_b, c.n - 1))
        print("  scalar rewrite residual %.3e" % fluid_kind.rewrite_residual)

    if case.fluid is not None:
        rep = efe_residual(bundle, case.fluid)
        print("\nfield equation")
        print("  sigma = %+.6f  p = %+.6f  lambda = %+.3f  k = %.3f"
              % (rep.sigma, rep.p, case.fluid.lam, case.fluid.k))
        print("  residual %.3e" % rep.residual)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
