"""Built-in chart + metric + generator configurations.

Each entry documents what the analysis is expected to say about it, so the
catalog doubles as a living regression corpus:

* ``minkowski`` — flat metric with the spacelike generator P = d_x.  The
  generator is parallel (hence torse-forming in the degenerate sense) but it
  is NOT concircular: nabla pi - pi x pi = -pi x pi cannot be a multiple of
  the metric for a nonzero spacelike pi.  The ``concircular`` gate therefore
  holds back the closed-form Ricci relations; the scalar relations still hold
  because they only need the trace normalisation of omega.
* ``desitter-flat`` — flat-sliced exponential warp, P = d_t.  Unit timelike,
  self-torse-forming, concircular with omega = 1; a GRW generator.  Vacuum
  field equations close with lam = 3.
* ``flrw`` — warp f(t) (default f = t) with the generator
  P = (t / (1 + t^2/2)) d_t, which satisfies the concircularity equation with
  omega = phi/t at every t != 0 for the default warp.  Overriding f without
  changing P flips the verdict and closes the anchors' ``concircular`` gate.
* ``grw-generic`` — warp e^t over a curved conformally flat base, so the
  scalar curvature 12 + 6 e^{-2t} genuinely varies from point to point while
  the perfect-fluid coefficients keep a - b = n - 1 = 3.
* ``grw`` — fully parameterised warped product: --param f=... (function of t
  only) and --param base_<i>_<j>=... (spatial coordinates only) assemble
  g = -dt^2 + f(t)^2 h.

``build_case`` returns the same ``config.AnalysisSetup`` a config file
gives, with the config defaults for everything a case does not set.
"""

from __future__ import annotations

from .config import AnalysisSetup
from .expr import ExprError, parse
from .geometry import MetricSpec, VectorFieldSpec
from .relativity import FluidParams

_SPATIAL = ("x", "y", "z")
_COORDS = ("t", "x", "y", "z")


class CatalogError(ValueError):
    pass


def _case(description, rows, vector, bounds, **rest) -> AnalysisSetup:
    return AnalysisSetup(_COORDS, MetricSpec.from_strings(_COORDS, rows),
                         VectorFieldSpec.from_strings(_COORDS, vector),
                         bounds, description=description, **rest)


def _case_minkowski(params):
    _no_params("minkowski", params)
    rows = [["-1", "0", "0", "0"], ["0", "1", "0", "0"],
            ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
    return _case("flat spacetime, spacelike generator P = d_x "
                 "(parallel but not concircular)",
                 rows, ["0", "1", "0", "0"], ((-1.0, 1.0),) * 4,
                 fluid=FluidParams.from_strings(_COORDS))


def _case_desitter(params):
    _no_params("desitter-flat", params)
    rows = [["-1", "0", "0", "0"],
            ["0", "exp(2*t)", "0", "0"],
            ["0", "0", "exp(2*t)", "0"],
            ["0", "0", "0", "exp(2*t)"]]
    return _case("exponentially warped flat slices, P = d_t "
                 "(GRW generator, omega = 1, vacuum with lam = 3)",
                 rows, ["1", "0", "0", "0"],
                 ((-0.5, 0.5), (-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)),
                 fluid=FluidParams.from_strings(_COORDS, "0", "0", lam=3.0))


def _case_flrw(params):
    f = params.pop("f", "t")
    _no_params("flrw", params)
    _restricted("f", f, ("t",))
    f2 = "(%s)^2" % f
    rows = [["-1", "0", "0", "0"], ["0", f2, "0", "0"],
            ["0", "0", f2, "0"], ["0", "0", "0", f2]]
    return _case("spatially flat cosmology with warp f(t) = %s and the "
                 "concircular generator P = (t/(1+t^2/2)) d_t" % f,
                 rows, ["t/(1+(t^2)/2)", "0", "0", "0"],
                 ((0.2, 2.0), (-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)),
                 avoid=((0, 0.0),))


_CONF = "(1+(x^2+y^2+z^2)/4)^2"


def _case_grw_generic(params):
    _no_params("grw-generic", params)
    d = "exp(2*t)/" + _CONF
    rows = [["-1", "0", "0", "0"], ["0", d, "0", "0"],
            ["0", "0", d, "0"], ["0", "0", "0", d]]
    return _case("warp e^t over a curved (unit curvature, conformally "
                 "flat) base: scalar curvature 12 + 6 e^{-2t} varies "
                 "while a - b stays 3",
                 rows, ["1", "0", "0", "0"],
                 ((0.0, 1.0), (-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)),
                 fluid=FluidParams.from_strings(
                     _COORDS, "3+3*exp(-2*t)", "-3-exp(-2*t)"))


def _case_grw(params):
    f = params.pop("f", "exp(t)")
    _restricted("f", f, ("t",))
    base = [["1" if i == j else "0" for j in range(3)] for i in range(3)]
    given = {}
    for key in list(params):
        if not key.startswith("base_"):
            continue
        bits = key.split("_")
        if len(bits) != 3 or bits[1] not in _SPATIAL or bits[2] not in _SPATIAL:
            raise CatalogError(
                "base entries look like base_x_y with spatial coordinates; "
                "got %r" % key)
        val = params.pop(key)
        _restricted(key, val, _SPATIAL)
        i, j = _SPATIAL.index(bits[1]), _SPATIAL.index(bits[2])
        first = given.setdefault(frozenset((i, j)), key)
        if first != key:
            raise CatalogError("base entry (%s, %s) set twice: %s and %s"
                               % (bits[1], bits[2], first, key))
        base[i][j] = val
        base[j][i] = val
    _no_params("grw", params)
    f2 = "(%s)^2" % f
    rows = [["-1", "0", "0", "0"]]
    for i in range(3):
        rows.append(["0"] + ["%s*(%s)" % (f2, base[i][j]) for j in range(3)])
    return _case("warped product -dt^2 + f(t)^2 h with f = %s" % f,
                 rows, ["1", "0", "0", "0"],
                 ((-0.5, 0.5), (-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)))


_BUILDERS = {
    "minkowski": _case_minkowski,
    "desitter-flat": _case_desitter,
    "flrw": _case_flrw,
    "grw-generic": _case_grw_generic,
    "grw": _case_grw,
}

BUILTIN_NAMES = tuple(sorted(_BUILDERS))


def build_case(name: str, params: dict | None = None) -> AnalysisSetup:
    if name not in _BUILDERS:
        raise CatalogError("unknown builtin %r; available: %s"
                           % (name, ", ".join(BUILTIN_NAMES)))
    return _BUILDERS[name](dict(params or {}))


def _no_params(name, params):
    if params:
        raise CatalogError("builtin %r does not take parameter(s): %s"
                           % (name, ", ".join(sorted(params))))


def _restricted(key, text, allowed):
    """Reject an expression that uses coordinates outside ``allowed``."""
    try:
        parse(text, allowed)
    except ExprError as exc:
        raise CatalogError(
            "parameter %s must be an expression in (%s): %s"
            % (key, ", ".join(allowed), exc)) from exc
