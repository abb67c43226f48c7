"""Command-line front end.

    concirc analyze <config>            run the pipeline on a config file
    concirc builtin <name>              run it on a catalogued case
    concirc selftest                    run the acceptance battery

Exit codes: 0 all checks pass, 1 at least one check failed or the reader
of stdout closed it before the output was written (``concirc ... | head``),
2 the input could not be used (config syntax, unknown builtin, bad
parameter or override, no point to evaluate, metric singular everywhere, a
value that is not finite at a point, ...).
"""

from __future__ import annotations

import argparse
import os
import sys

from .analysis import run_analysis
from .catalog import BUILTIN_NAMES, build_case
from .config import AnalysisSetup, apply_overrides, load_config

# ConfigError, CatalogError, AnalysisError, ExprError and NonFiniteError are
# ValueErrors
_USAGE_ERRORS = (OSError, ValueError)


def _add_common(sub):
    # None keeps the setup's value; the help names AnalysisSetup's defaults
    default = AnalysisSetup._field_defaults
    sub.add_argument("--format", choices=("text", "machine"), default=None,
                     help="output format (default: %s, or the config value)"
                          % default["fmt"])
    sub.add_argument("--tol", type=float, default=None,
                     help="residual tolerance (default %r)" % default["tol"])
    sub.add_argument("--seed", type=int, default=None,
                     help="sampling seed (default %d)" % default["seed"])
    sub.add_argument("--points", type=int, default=None,
                     help="number of sampled points (default %d)"
                          % default["n_points"])


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


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = _run(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # Python flushes stdout again at exit; point its descriptor at
        # devnull so that flush neither fails nor prints "Exception ignored"
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    return code


def _run(args) -> int:
    """Run one subcommand, writing its output to sys.stdout."""
    if args.command == "selftest":
        from .selftest import run_selftest
        return run_selftest(args.seed, args.format, sys.stdout)
    try:
        if args.command == "analyze":
            setup = load_config(args.config)
            fluid = {}
        else:
            setup = build_case(args.name, _pairs(args.param, "--param"))
            fluid = _pairs(args.fluid, "--fluid")
        setup = apply_overrides(setup, tol=args.tol, seed=args.seed,
                                points=args.points, fmt=args.format,
                                fluid=fluid)
        report = run_analysis(setup)
    except _USAGE_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    report.render(setup.fmt, sys.stdout)
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
