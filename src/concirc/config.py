"""Strict, line-oriented run configuration.

The format is deliberately small: named sections in square brackets,
``key = value`` pairs, ``#`` comments, blank lines ignored.  Expression
values are double-quoted; numeric values are bare.  Anything unrecognised —
unknown sections, unknown keys, duplicate keys, malformed values, numbers
that are not finite — is an error that names the offending line, because
silently ignoring a typo like ``g_t_y`` in a metric would corrupt every
downstream number.

    [manifold]
    coords = t x y z

    [metric]                      # symmetric; omitted entries are 0
    g_t_t = "-1"
    g_x_x = "exp(2*t)"

    [vector_field]                # omitted components are 0
    P_t = "1"

    [sampling]
    points = 16                   # sampled points (explicit ones add to these)
    seed = 0
    bounds_t = -0.5 0.5           # default bounds are -1 1
    point = 0.3 0.4 -0.2 0.7      # repeatable: evaluate here as well
    avoid_t = 0                   # keep samples 'margin' away from these
    margin = 0.1

    [fluid]                       # optional; enables the field-equation check
    sigma = "0"
    p = "0"                       # 'rho' is accepted as an alias for p
    lambda = 3
    k = 1

    [tolerances]
    tol = 1e-8

    [report]
    format = text                 # or machine

The values shown are the defaults.  A key the config leaves out keeps the
default of its ``AnalysisSetup`` field, which owns them: ``tol`` is
``geometry.DEFAULT_TOL`` and ``margin`` is ``sampling.AVOID_MARGIN``.

``apply_overrides`` puts command-line values over a setup under the same
rules, naming the flag where a config error names the line.
"""

from __future__ import annotations

import math
import re
from typing import NamedTuple

import numpy as np

from .expr import Expr, ExprError, parse
from .geometry import DEFAULT_TOL, MetricSpec, VectorFieldSpec
from .relativity import FluidParams
from .sampling import AVOID_MARGIN

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_SECTIONS = ("manifold", "metric", "vector_field", "sampling", "fluid",
             "tolerances", "report")


class ConfigError(ValueError):
    """``where`` is the line number in a config file, or a command-line flag."""

    def __init__(self, message: str, where: int | str | None = None):
        self.line = where if isinstance(where, int) else None
        if where is not None:
            message = "%s: %s" % (where if self.line is None
                                  else "line %d" % where, message)
        super().__init__(message)


class AnalysisSetup(NamedTuple):
    """Everything one run needs, from a config file or a builtin."""

    coords: tuple
    metric: MetricSpec
    vector: VectorFieldSpec
    bounds: tuple
    explicit_points: tuple = ()    # tuple of ndarray
    n_points: int = 16
    seed: int = 0
    avoid: tuple = ()
    margin: float = AVOID_MARGIN
    fluid: FluidParams | None = None
    tol: float = DEFAULT_TOL
    fmt: str = "text"
    description: str | None = None  # a builtin's summary; no config key


def apply_overrides(setup: AnalysisSetup, tol=None, seed=None, points=None,
                    fmt=None, fluid=None) -> AnalysisSetup:
    """``None`` keeps the setup's value; ``fluid`` maps [fluid] keys to text."""
    updates = {}
    if tol is not None:
        updates["tol"] = _positive(tol, "tol", "--tol")
    if seed is not None:
        updates["seed"] = seed
    if points is not None:
        updates["n_points"] = _count(points, "--points")
    if fmt is not None:
        updates["fmt"] = fmt
    if fluid:
        updates["fluid"] = _fluid_over(
            setup.fluid, setup.coords,
            [(key, value, "--fluid") for key, value in fluid.items()],
            quoted=False)
    return setup._replace(**updates)


def load_config(path: str) -> AnalysisSetup:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def parse_config(text: str) -> AnalysisSetup:
    entries = _split(text)
    coords = _manifold(entries)
    metric = _metric(entries, coords)
    vector = _vector(entries, coords)
    fields = _sampling(entries, coords)
    rows = _take(entries, "fluid")
    if rows:
        fields["fluid"] = _fluid_over(None, coords, rows, quoted=True)
    fields.update(_tolerances(entries))
    fields.update(_report(entries))
    return AnalysisSetup(coords, metric, vector, **fields)


def _split(text: str) -> dict:
    """-> {section: [(key, value, line), ...]}; validates raw shape only."""
    entries = {}
    section = None
    seen_keys = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not (line.endswith("]") and _IDENT.match(line[1:-1] or " ")):
                raise ConfigError("malformed section header %r" % line, lineno)
            section = line[1:-1]
            if section not in _SECTIONS:
                raise ConfigError(
                    "unknown section [%s]; expected one of %s"
                    % (section, ", ".join(_SECTIONS)), lineno)
            if section in entries:
                raise ConfigError("section [%s] appears twice" % section,
                                  lineno)
            entries[section] = []
            continue
        if section is None:
            raise ConfigError("key before any [section]: %r" % line, lineno)
        if "=" not in line:
            raise ConfigError("expected key = value, got %r" % line, lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if not _IDENT.match(key):
            raise ConfigError("malformed key %r" % key, lineno)
        if key not in ("point",) and (section, key) in seen_keys:
            raise ConfigError("duplicate key %r in [%s]" % (key, section),
                              lineno)
        seen_keys.add((section, key))
        entries[section].append((key, value, lineno))
    return entries


def _take(entries, section, required=False):
    if section not in entries:
        if required:
            raise ConfigError("missing required section [%s]" % section)
        return []
    return entries[section]


def _quoted(value: str, key: str, lineno: int) -> str:
    if len(value) < 2 or value[0] != '"' or value[-1] != '"':
        raise ConfigError("%s must be a double-quoted expression, got %r"
                          % (key, value), lineno)
    inner = value[1:-1]
    if '"' in inner:
        raise ConfigError("stray quote inside %s" % key, lineno)
    return inner


def _expression(text: str, key: str, where, coords) -> Expr:
    try:
        return parse(text, coords)
    except ExprError as exc:
        raise ConfigError("in %s: %s" % (key, exc), where) from exc


def _number(value: str, key: str, where) -> float:
    try:
        number = float(value)
    except ValueError:
        raise ConfigError("%s expects a number, got %r" % (key, value),
                          where) from None
    return _finite(number, key, where)


def _finite(value: float, key: str, where) -> float:
    if not math.isfinite(value):
        raise ConfigError("%s must be finite, got %r" % (key, value), where)
    return value


def _integer(value: str, key: str, lineno: int) -> int:
    try:
        return int(value, 10)
    except ValueError:
        raise ConfigError("%s expects an integer, got %r" % (key, value),
                          lineno) from None


def _positive(value: float, key: str, where) -> float:
    if _finite(value, key, where) <= 0:
        raise ConfigError("%s must be positive" % key, where)
    return value


def _count(value: int, where) -> int:
    if value < 0:
        raise ConfigError("points must be >= 0", where)
    return value


def _manifold(entries) -> tuple:
    coords = None
    for key, value, lineno in _take(entries, "manifold", required=True):
        if key != "coords":
            raise ConfigError("unknown key %r in [manifold]" % key, lineno)
        names = tuple(value.split())
        if len(names) < 2:
            raise ConfigError("need at least two coordinates", lineno)
        for name in names:
            if not _IDENT.match(name):
                raise ConfigError("bad coordinate name %r" % name, lineno)
        if len(set(names)) != len(names):
            raise ConfigError("repeated coordinate name", lineno)
        coords = names
    if coords is None:
        raise ConfigError("[manifold] must define coords")
    return coords


def _metric(entries, coords) -> MetricSpec:
    n = len(coords)
    exprs = np.full((n, n), parse("0", coords), dtype=object)
    given = set()
    for key, value, lineno in _take(entries, "metric", required=True):
        parts = key.split("_")
        if len(parts) != 3 or parts[0] != "g" or parts[1] not in coords \
                or parts[2] not in coords:
            raise ConfigError(
                "metric keys look like g_<coord>_<coord>; got %r" % key,
                lineno)
        i, j = coords.index(parts[1]), coords.index(parts[2])
        if (i, j) in given or (j, i) in given:
            raise ConfigError("metric entry (%s, %s) set twice"
                              % (coords[i], coords[j]), lineno)
        given.add((i, j))
        exprs[i, j] = exprs[j, i] = _expression(
            _quoted(value, key, lineno), key, lineno, coords)
    if not given:
        raise ConfigError("[metric] defines no entries")
    return MetricSpec(coords, exprs)


def _vector(entries, coords) -> VectorFieldSpec:
    comps = [parse("0", coords)] * len(coords)
    for key, value, lineno in _take(entries, "vector_field", required=True):
        parts = key.split("_", 1)
        if len(parts) != 2 or parts[0] != "P" or parts[1] not in coords:
            raise ConfigError("vector keys look like P_<coord>; got %r" % key,
                              lineno)
        comps[coords.index(parts[1])] = _expression(
            _quoted(value, key, lineno), key, lineno, coords)
    return VectorFieldSpec(coords, tuple(comps))


def _sampling(entries, coords) -> dict:
    """The [sampling] fields, with only the keys the section sets."""
    n = len(coords)
    bounds = [(-1.0, 1.0)] * n
    out = {}
    avoid = []
    points = []
    for key, value, lineno in _take(entries, "sampling"):
        if key == "points":
            out["n_points"] = _count(_integer(value, key, lineno), lineno)
        elif key == "seed":
            out["seed"] = _integer(value, key, lineno)
        elif key == "margin":
            out["margin"] = _positive(_number(value, key, lineno), key,
                                      lineno)
        elif key == "point":
            vals = [_number(v, key, lineno) for v in value.split()]
            if len(vals) != n:
                raise ConfigError(
                    "point expects %d coordinates, got %d" % (n, len(vals)),
                    lineno)
            points.append(np.array(vals))
        elif key.startswith("bounds_"):
            name = key[len("bounds_"):]
            if name not in coords:
                raise ConfigError("bounds for unknown coordinate %r" % name,
                                  lineno)
            vals = [_number(v, key, lineno) for v in value.split()]
            if len(vals) != 2 or vals[0] >= vals[1]:
                raise ConfigError("%s expects 'lo hi' with lo < hi" % key,
                                  lineno)
            bounds[coords.index(name)] = (vals[0], vals[1])
        elif key.startswith("avoid_"):
            name = key[len("avoid_"):]
            if name not in coords:
                raise ConfigError("avoid for unknown coordinate %r" % name,
                                  lineno)
            for v in value.split():
                avoid.append((coords.index(name), _number(v, key, lineno)))
        else:
            raise ConfigError("unknown key %r in [sampling]" % key, lineno)
    out["bounds"] = tuple(bounds)
    out["avoid"] = tuple(avoid)
    out["explicit_points"] = tuple(points)
    return out


_FLUID_FIELDS = {"sigma": "sigma", "p": "p", "rho": "p", "lambda": "lam",
                 "k": "k"}


def _fluid_over(base: FluidParams | None, coords, rows,
                quoted: bool) -> FluidParams:
    """The [fluid] rule, for config rows and --fluid alike.

    ``rows`` are (key, value, where); sigma and p are expressions (double-
    quoted in a config file), lambda and k numbers.  A field no row sets
    keeps ``base``'s value, or sigma = p = 0, lambda = 0, k = 1.
    """
    fields = {}
    for key, value, where in rows:
        name = _FLUID_FIELDS.get(key)
        if name is None:
            raise ConfigError("unknown key %r in [fluid]" % key, where)
        if name in fields:  # only through p's alias; keys are unique
            raise ConfigError("pressure given twice (p and its alias rho)",
                              where)
        if name in ("sigma", "p"):
            text = _quoted(value, key, where) if quoted else value
            fields[name] = _expression(text, key, where, coords)
        else:
            fields[name] = _number(value, key, where)
    return (base or FluidParams.from_strings(coords))._replace(**fields)


def _tolerances(entries) -> dict:
    out = {}
    for key, value, lineno in _take(entries, "tolerances"):
        if key != "tol":
            raise ConfigError("unknown key %r in [tolerances]" % key, lineno)
        out["tol"] = _positive(_number(value, key, lineno), key, lineno)
    return out


def _report(entries) -> dict:
    out = {}
    for key, value, lineno in _take(entries, "report"):
        if key != "format":
            raise ConfigError("unknown key %r in [report]" % key, lineno)
        if value not in ("text", "machine"):
            raise ConfigError("format is 'text' or 'machine', got %r" % value,
                              lineno)
        out["fmt"] = value
    return out
