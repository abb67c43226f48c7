"""Second-order forward-mode jets against analytic derivatives."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from concirc.jets import FUNCTIONS, Jet2, JetDomainError, absval, exp, log, sqrt

safe = st.floats(min_value=-3.0, max_value=3.0,
                 allow_nan=False, allow_infinity=False)


def var(x, i=0, n=1):
    return Jet2.variable(x, i, n)


def const(c, n=1):
    return Jet2.constant(c, n)


def test_variable_and_constant_shape():
    j = Jet2.variable(2.5, 1, 3)
    assert j.value == 2.5
    assert np.array_equal(j.grad, [0.0, 1.0, 0.0])
    assert np.array_equal(j.hess, np.zeros((3, 3)))
    c = Jet2.constant(-4.0, 3)
    assert c.is_constant()
    assert not j.is_constant()


def test_arithmetic_product_and_quotient_rules():
    x = var(0.7, 0, 2)
    y = var(-1.3, 1, 2)
    f = (x * x * y - y / x) + const(2.0, 2)
    # f = x^2 y - y/x + 2
    xv, yv = 0.7, -1.3
    assert f.value == pytest.approx(xv * xv * yv - yv / xv + 2.0, rel=1e-15)
    assert f.grad[0] == pytest.approx(2 * xv * yv + yv / xv ** 2, rel=1e-14)
    assert f.grad[1] == pytest.approx(xv * xv - 1.0 / xv, rel=1e-14)
    assert f.hess[0, 0] == pytest.approx(2 * yv - 2 * yv / xv ** 3, rel=1e-14)
    assert f.hess[0, 1] == pytest.approx(2 * xv + 1.0 / xv ** 2, rel=1e-14)
    assert np.array_equal(f.hess, f.hess.T)


def test_constant_on_the_left():
    x = var(2.0)
    assert (const(3.0) - x).value == 1.0
    assert (const(3.0) - x).grad[0] == -1.0
    assert (const(1.0) / x).value == 0.5
    assert (const(1.0) / x).grad[0] == -0.25
    assert (const(1.0) / x).hess[0, 0] == 0.25
    assert (const(2.0) ** x).value == 4.0
    assert (const(2.0) ** x).grad[0] == pytest.approx(4.0 * math.log(2.0))


@given(safe)
def test_sin_exp_composite_matches_analytic(x):
    j = FUNCTIONS["sin"](var(x)) * exp(var(x))
    # d/dx [sin e^x] = (sin + cos) e^x ; second: 2 cos e^x
    assert j.value == pytest.approx(math.sin(x) * math.exp(x), rel=1e-12,
                                    abs=1e-12)
    assert j.grad[0] == pytest.approx(
        (math.sin(x) + math.cos(x)) * math.exp(x), rel=1e-12, abs=1e-12)
    assert j.hess[0, 0] == pytest.approx(2 * math.cos(x) * math.exp(x),
                                         rel=1e-12, abs=1e-12)


@given(st.floats(min_value=0.1, max_value=4.0), st.integers(-3, 5))
def test_integer_pow_matches_log_exp_path(x, k):
    fast = var(x) ** const(k)
    slow = exp(log(var(x)) * const(float(k)))
    assert fast.value == pytest.approx(slow.value, rel=1e-12)
    assert fast.grad[0] == pytest.approx(slow.grad[0], rel=1e-11, abs=1e-11)
    assert fast.hess[0, 0] == pytest.approx(slow.hess[0, 0], rel=1e-10,
                                            abs=1e-10)


def test_integer_pow_negative_base():
    j = var(-2.0) ** const(3)
    assert j.value == -8.0
    assert j.grad[0] == 12.0
    assert j.hess[0, 0] == -12.0


def test_pow_zero_conventions():
    assert (var(0.0) ** const(0)).value == 1.0
    assert (var(0.0) ** const(2)).value == 0.0
    with pytest.raises(JetDomainError):
        _ = var(0.0) ** const(-1)


def test_non_integer_pow_requires_positive_base():
    j = var(4.0) ** const(0.5)
    assert j.value == pytest.approx(2.0)
    assert j.grad[0] == pytest.approx(0.25)
    with pytest.raises(JetDomainError):
        _ = var(-4.0) ** const(0.5)


def test_domain_errors():
    with pytest.raises(JetDomainError):
        log(var(-1.0))
    with pytest.raises(JetDomainError):
        sqrt(var(-1.0))
    with pytest.raises(JetDomainError):
        var(1.0) / const(0.0)


def test_sqrt_of_exact_zero_constant():
    # the one sqrt(0) that is allowed: a literal zero with no derivatives
    j = sqrt(const(0.0, 2))
    assert j.value == 0.0
    assert not np.any(j.grad)


def test_abs_subgradient_at_zero():
    j = absval(var(0.0))
    assert j.value == 0.0
    assert j.grad[0] == 0.0
    k = absval(var(-1.5) * var(-1.5, 0, 1))
    assert k.value == pytest.approx(2.25)


def test_hyperbolics_and_tan():
    x = 0.4
    for name, f, df in [
        ("tan", math.tan, lambda v: 1.0 / math.cos(v) ** 2),
        ("sinh", math.sinh, math.cosh),
        ("cosh", math.cosh, math.sinh),
        ("tanh", math.tanh, lambda v: 1.0 / math.cosh(v) ** 2),
    ]:
        j = FUNCTIONS[name](var(x))
        assert j.value == pytest.approx(f(x), rel=1e-14)
        assert j.grad[0] == pytest.approx(df(x), rel=1e-12)


def test_hessian_exact_symmetry_under_mixed_products():
    x = var(1.1, 0, 3)
    y = var(0.6, 1, 3)
    z = var(-0.9, 2, 3)
    f = exp(x * y) * FUNCTIONS["sin"](y * z) / (const(1.0, 3) + z * z)
    assert np.array_equal(f.hess, f.hess.T)  # bitwise, not approx
