"""Builtin geometry catalog and the line-oriented run configuration."""

import numpy as np
import pytest

from concirc.catalog import BUILTIN_NAMES, CatalogError, build_case
from concirc.config import (ConfigError, apply_overrides, load_config,
                            parse_config)
from concirc.connection import build_connection, check_concircular
from concirc.expr import to_string

GOLDEN = """\
# exponential warp on a flat slice
[manifold]
coords = t x y z

[metric]
g_t_t = "-1"
g_x_x = "exp(2*t)"
g_y_y = "exp(2*t)"
g_z_z = "exp(2*t)"

[vector_field]
P_t = "1"

[sampling]
points = 4
seed = 11
bounds_t = -0.5 0.5
point = 0.3 0.4 -0.2 0.7
avoid_x = 0
margin = 0.2

[fluid]
sigma = "0"
p = "0"
lambda = 3
k = 1

[tolerances]
tol = 1e-9

[report]
format = machine
"""


class TestCatalog:
    def test_builtin_names_are_sorted_and_stable(self):
        assert BUILTIN_NAMES == tuple(sorted(BUILTIN_NAMES))
        assert "minkowski" in BUILTIN_NAMES
        assert "desitter-flat" in BUILTIN_NAMES

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_every_case_builds_and_samples(self, name):
        case = build_case(name)
        assert case.description
        assert len(case.bounds) == len(case.coords)
        point = np.array([0.5 * (lo + hi) for lo, hi in case.bounds])
        # scripts/ evaluate at the bounds centre, so it avoids every
        # avoided value by the sampling margin
        for slot, value in case.avoid:
            assert abs(point[slot] - value) > case.margin
        c = build_connection(case.metric, case.vector, point)
        assert c.n == len(case.coords)

    @pytest.mark.parametrize("name", ["desitter-flat", "flrw", "grw",
                                      "grw-generic"])
    def test_shipped_generators_satisfy_the_condition(self, name):
        case = build_case(name)
        point = np.array([0.5 * (lo + hi) for lo, hi in case.bounds])
        rep = check_concircular(build_connection(case.metric, case.vector,
                                                 point))
        assert rep.holds, (name, rep.residual)

    def test_flat_translation_case_fails_the_condition(self):
        case = build_case("minkowski")
        point = np.array([0.1, 0.2, 0.3, 0.4])
        rep = check_concircular(build_connection(case.metric, case.vector,
                                                 point))
        assert not rep.holds

    def test_power_law_case_accepts_warp_parameter(self):
        case = build_case("flrw", {"f": "t^2"})
        assert to_string(case.metric.entries[1, 1]) == "(t^2)^2"

    def test_product_case_accepts_base_entries(self):
        case = build_case("grw", {"base_x_y": "x * 0.1"})
        assert "x * 0.1" in to_string(case.metric.entries[1, 2])

    def test_unknown_name_rejected(self):
        with pytest.raises(CatalogError, match="unknown builtin"):
            build_case("nope")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(CatalogError, match="does not take parameter"):
            build_case("flrw", {"nope": "1"})

    def test_parameterless_case_rejects_parameters(self):
        with pytest.raises(CatalogError, match="does not take parameter"):
            build_case("minkowski", {"f": "t"})

    def test_parameter_expressions_are_scope_checked(self):
        with pytest.raises(CatalogError, match="must be an expression"):
            build_case("flrw", {"f": "q + 1"})

    def test_vacuum_cases_ship_fluid_defaults(self):
        assert build_case("minkowski").fluid is not None
        assert build_case("desitter-flat").fluid.lam == 3.0
        assert build_case("flrw").fluid is None

    def test_power_law_case_avoids_coordinate_singularity(self):
        case = build_case("flrw")
        assert (0, 0.0) in case.avoid
        assert case.bounds[0][0] > 0.0


class TestOverrides:
    def test_unset_fluid_keys_keep_the_base_values(self):
        base = build_case("desitter-flat")
        setup = apply_overrides(base, fluid={"sigma": "1"})
        assert setup.fluid.lam == 3.0
        assert to_string(setup.fluid.sigma) == "1"
        assert setup.fluid.p is base.fluid.p

    def test_fluid_without_a_base_uses_the_config_defaults(self):
        setup = apply_overrides(build_case("flrw"), fluid={"p": "t"})
        assert to_string(setup.fluid.sigma) == "0"
        assert to_string(setup.fluid.p) == "t"
        assert (setup.fluid.lam, setup.fluid.k) == (0.0, 1.0)


class TestConfigParsing:
    def test_golden_document(self):
        setup = parse_config(GOLDEN)
        assert setup.coords == ("t", "x", "y", "z")
        assert to_string(setup.metric.entries[1, 1]) == "exp(2 * t)"
        assert to_string(setup.metric.entries[0, 1]) == "0"
        assert to_string(setup.vector.components[0]) == "1"
        assert setup.n_points == 4
        assert setup.seed == 11
        assert setup.bounds[0] == (-0.5, 0.5)
        assert setup.bounds[1] == (-1.0, 1.0)
        assert len(setup.explicit_points) == 1
        assert np.allclose(setup.explicit_points[0], [0.3, 0.4, -0.2, 0.7])
        assert setup.avoid == ((1, 0.0),)
        assert setup.margin == 0.2
        assert setup.fluid is not None
        assert setup.fluid.lam == 3.0
        assert setup.tol == 1e-9
        assert setup.fmt == "machine"

    def test_shipped_sample_config_loads(self, tmp_path):
        setup = load_config("configs/desitter.cfg")
        assert setup.coords == ("t", "x", "y", "z")
        assert setup.fluid.lam == 3.0

    def test_minimal_document_uses_defaults(self):
        text = """
[manifold]
coords = u v

[metric]
g_u_u = "1"
g_v_v = "1"

[vector_field]
P_u = "u"
"""
        setup = parse_config(text)
        assert setup.n_points == 16
        assert setup.seed == 0
        assert setup.bounds == ((-1.0, 1.0), (-1.0, 1.0))
        assert setup.fluid is None
        assert setup.tol == 1e-8
        assert setup.fmt == "text"
        assert to_string(setup.vector.components[1]) == "0"

    def _expect_error(self, text, fragment):
        with pytest.raises(ConfigError, match=fragment) as exc:
            parse_config(text)
        return exc.value

    def test_error_catalogue(self):
        base = GOLDEN
        err = self._expect_error(
            base.replace('g_x_x = "exp(2*t)"', 'g_x_x = "exp(2*t"'),
            "in g_x_x")
        assert err.line == 7
        self._expect_error(base.replace("[metric]", "[metrics]"),
                           "unknown section")
        self._expect_error('g_t_t = "-1"\n' + base, "key before any")
        self._expect_error(
            base.replace('P_t = "1"', 'P_t = "1"\nP_t = "2"'),
            "duplicate key")
        self._expect_error(
            base.replace('g_t_t = "-1"', 'g_q_q = "-1"'),
            "metric keys look like")
        self._expect_error(
            base.replace('g_t_t = "-1"', 'g_t_t = -1'),
            "double-quoted")
        self._expect_error(
            base.replace("bounds_t = -0.5 0.5", "bounds_t = 0.5 -0.5"),
            "lo < hi")
        self._expect_error(
            base.replace("point = 0.3 0.4 -0.2 0.7", "point = 0.3 0.4"),
            "coordinate")
        self._expect_error(
            base.replace("coords = t x y z", "coords = t"),
            "at least two")
        self._expect_error(
            base.replace("coords = t x y z", "coords = t x x z"),
            "repeated coordinate")
        self._expect_error(
            base.replace("tol = 1e-9", "tol = 0"), "tol must be positive")
        self._expect_error(
            base.replace("format = machine", "format = json"),
            "text.*machine")
        self._expect_error(
            base.replace("seed = 11", "seed = 1.5"), "integer")
        self._expect_error(
            base.replace("margin = 0.2", "margin = -1"),
            "margin must be positive")
        self._expect_error(
            base.replace('sigma = "0"', 'sigma = "0"\nrho = "1"'),
            "unknown key 'rho' in \\[fluid\\]")
        self._expect_error(
            base.replace("[sampling]", "[sampling]\nwidth = 2"),
            "unknown key")
        lines = base.splitlines()
        for old, new in (("bounds_t = -0.5 0.5", "bounds_t = nan 0.5"),
                         ("point = 0.3 0.4 -0.2 0.7",
                          "point = inf 0.4 -0.2 0.7"),
                         ("avoid_x = 0", "avoid_x = nan"),
                         ("margin = 0.2", "margin = inf"),
                         ("lambda = 3", "lambda = nan"),
                         ("k = 1", "k = -inf"),
                         ("tol = 1e-9", "tol = inf")):
            key = old.split()[0]
            err = self._expect_error(base.replace(old, new),
                                     "%s must be finite" % key)
            assert err.line == lines.index(old) + 1

    def test_vector_expression_error_names_key_and_line(self):
        err = self._expect_error(GOLDEN.replace('P_t = "1"', 'P_t = "(1"'),
                                 "in P_t")
        assert err.line == GOLDEN.splitlines().index('P_t = "1"') + 1

    def test_missing_required_section(self):
        self._expect_error("[manifold]\ncoords = u v\n",
                           "missing required section")

    def test_symmetric_entry_conflict(self):
        text = GOLDEN.replace('g_x_x = "exp(2*t)"',
                              'g_t_x = "1"\ng_x_t = "2"')
        self._expect_error(text, "set twice")

    def test_each_expression_is_parsed_once(self, monkeypatch):
        import concirc.config
        import concirc.geometry
        texts = []

        def counted(text, coords, _parse=concirc.config.parse):
            texts.append(text)
            return _parse(text, coords)

        for module in (concirc.config, concirc.geometry):
            monkeypatch.setattr(module, "parse", counted)
        load_config("perfbench/generic.cfg")
        # its 8 distinct quoted expressions once each, and one "0" each for
        # the absent entries of g and of P
        assert len(texts) == 10 and texts.count("0") == 2
        assert len(set(texts)) == 9

    def test_load_config_reports_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_config(str(tmp_path / "absent.cfg"))
