"""Acceptance gate: the eight release criteria, one test per criterion.

Each test drives the corresponding battery from ``concirc.selftest`` at the
pinned seed and prints a single PASS/FAIL line so the test log doubles as
the acceptance checklist.  Tolerances are pinned inside the batteries
(1e-8 for identities, 1e-6 for the derivative oracle, 1e-9 for the vacuum
field equation); nothing here loosens them.

The first criterion asks the Ricci closed forms to hold on every shipped
geometry, including the flat-space case whose generator provably violates
the hypothesis they need.  Its failure is real and expected; the assertion
is kept strict rather than special-cased, so the log records the true state.

One cross-check ties the battery to the analysis: on its two concircular
cases, criterion 1's per-case worst is the worst closed-form row that the
analysis emits for the same 16 points.
"""

import numpy as np

from concirc import selftest
from concirc.analysis import run_analysis
from concirc.catalog import build_case
from concirc.sampling import sample_points

SEED = 0


def _drive(fn):
    res = fn(seed=SEED)
    print("ACCEPTANCE %d %s: %s (worst %.3e)" % (
        res.number, res.name, "PASS" if res.passed else "FAIL", res.worst))
    assert res.passed, "criterion %d (%s): %s" % (
        res.number, res.name, res.detail)


def test_criterion_1_closed_form_curvature_anchor():
    _drive(selftest.closed_form_curvature_anchor)


def test_criterion_1_worst_is_the_analysis_worst_closed_form_row():
    detail = selftest.closed_form_curvature_anchor(seed=SEED).detail
    for name in ("desitter-flat", "grw-generic"):
        case = build_case(name)
        rep = run_analysis(case._replace(seed=SEED, n_points=16))
        # the analysis drew criterion 1's points: no draw was singular
        assert np.array_equal(
            rep.points, sample_points(case.bounds, 16, SEED, case.avoid))
        rows = [c for c in rep.checks if c.point >= 0 and c.name.startswith(
            ("ricci_closed_form_theta", "scalar_relation_theta"))]
        assert sum(c.name.startswith("ricci") for c in rows) == 6 * 16
        worst = max(c.residual for c in rows)
        assert "%s %.3e" % (name, worst) in detail, detail


def test_criterion_2_derivative_oracle():
    _drive(selftest.derivative_oracle)


def test_criterion_3_desitter_chain():
    _drive(selftest.desitter_chain)


def test_criterion_4_grw_identity_battery():
    _drive(selftest.grw_identity_battery)


def test_criterion_5_einstein_kind_equivalences():
    _drive(selftest.einstein_kind_equivalences)


def test_criterion_6_field_equation_and_fluid():
    _drive(selftest.field_equation_and_fluid)


def test_criterion_7_concircular_condition_equivalence():
    _drive(selftest.concircular_condition_equivalence)


def test_criterion_8_determinism():
    _drive(selftest.determinism)
