"""Command-line front end.

    concirc analyze <config>            run the pipeline on a config file
    concirc builtin <name>              run it on a catalogued case
    concirc selftest                    run the acceptance battery

Exit codes: 0 all checks pass, 1 at least one check failed, 2 the input
could not be used (config syntax, unknown builtin, bad parameter, metric
singular everywhere, ...).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .analysis import AnalysisError, run_analysis
from .catalog import BUILTIN_NAMES, CatalogError, build_case
from .config import AnalysisSetup, ConfigError, load_config
from .expr import ExprError, to_string
from .relativity import FluidParams

_USAGE_ERRORS = (ConfigError, CatalogError, AnalysisError, ExprError,
                 OSError, ValueError)


def _add_common(sub, sampling=True):
    sub.add_argument("--format", choices=("text", "machine"), default=None,
                     help="output format (default: text, or the config value)")
    sub.add_argument("--tol", type=float, default=None,
                     help="residual tolerance (default 1e-8)")
    if sampling:
        sub.add_argument("--seed", type=int, default=None,
                         help="sampling seed (default 0)")
        sub.add_argument("--points", type=int, default=None,
                         help="number of sampled points (default 16)")


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="concirc",
        description="curvature analysis for semi-symmetric metric "
                    "connections with a concircular generator")
    subs = ap.add_subparsers(dest="command", required=True)

    a = subs.add_parser("analyze", help="run on a config file")
    a.add_argument("config", help="path to a run configuration")
    _add_common(a)

    b = subs.add_parser("builtin", help="run on a built-in case")
    b.add_argument("name", help="one of: %s" % ", ".join(BUILTIN_NAMES))
    b.add_argument("--param", action="append", default=[], metavar="KEY=EXPR",
                   help="builtin parameter, e.g. f=exp(t) (repeatable)")
    b.add_argument("--fluid", action="append", default=[], metavar="KEY=VAL",
                   help="fluid data: sigma, p (alias rho), lambda, k "
                        "(repeatable)")
    _add_common(b)

    s = subs.add_parser("selftest", help="run the acceptance battery")
    s.add_argument("--format", choices=("text", "machine"), default="text")
    s.add_argument("--seed", type=int, default=0)
    return ap


def _pairs(items, flag):
    out = {}
    for item in items:
        if "=" not in item:
            raise ValueError("%s expects KEY=VALUE, got %r" % (flag, item))
        key, value = item.split("=", 1)
        key = key.strip()
        if key in out:
            raise ValueError("%s given twice for %s" % (key, flag))
        out[key] = value.strip()
    return out


def _fluid_from_cli(case, overrides) -> FluidParams | None:
    if not overrides:
        return case.fluid
    if "p" in overrides and "rho" in overrides:
        raise ValueError("--fluid: give either p or its alias rho, not both")
    if "rho" in overrides:
        overrides["p"] = overrides.pop("rho")
    unknown = set(overrides) - {"sigma", "p", "lambda", "k"}
    if unknown:
        raise ValueError("--fluid: unknown key(s) %s" % ", ".join(sorted(unknown)))
    base = case.fluid
    sigma = overrides.get("sigma",
                          to_string(base.sigma) if base else "0")
    p = overrides.get("p", to_string(base.p) if base else "0")
    lam = float(overrides.get("lambda", base.lam if base else 0.0))
    k = float(overrides.get("k", base.k if base else 1.0))
    return FluidParams.from_strings(case.coords, sigma, p, lam, k)


def _apply_overrides(setup: AnalysisSetup, args) -> AnalysisSetup:
    updates = {}
    if args.tol is not None:
        if args.tol <= 0:
            raise ValueError("--tol must be positive")
        updates["tol"] = args.tol
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.points is not None:
        if args.points < 0:
            raise ValueError("--points must be >= 0")
        updates["n_points"] = args.points
    if args.format is not None:
        updates["fmt"] = args.format
    return dataclasses.replace(setup, **updates) if updates else setup


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "selftest":
            from .selftest import run_selftest
            return run_selftest(seed=args.seed, fmt=args.format,
                                stream=sys.stdout)
        if args.command == "analyze":
            setup = _apply_overrides(load_config(args.config), args)
            report = run_analysis(setup)
        else:
            case = build_case(args.name, _pairs(args.param, "--param"))
            fluid = _fluid_from_cli(case, _pairs(args.fluid, "--fluid"))
            setup = _apply_overrides(AnalysisSetup(
                coords=case.coords, metric=case.metric, vector=case.vector,
                bounds=case.bounds, explicit_points=(), avoid=case.avoid,
                fluid=fluid), args)
            report = run_analysis(setup, description=case.description)
    except _USAGE_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    report.render(setup.fmt, sys.stdout)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
