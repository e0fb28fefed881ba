"""Double-double kernel checks against exact rational arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddouble import (
    DDSum,
    dd_add,
    dd_div,
    dd_mul,
    dd_sqrt,
    two_prod,
    two_sum,
)

# magnitudes kept well inside the range where products and their rounding
# errors are representable (error-free transforms break on subnormals)
_mag = st.floats(min_value=1e-6, max_value=1e6)
finite = st.one_of(st.just(0.0), _mag, _mag.map(lambda x: -x))
nonzero = st.one_of(_mag, _mag.map(lambda x: -x))


@given(finite, finite)
def test_two_sum_error_free(a, b):
    s, e = two_sum(a, b)
    assert Fraction(s) + Fraction(e) == Fraction(a) + Fraction(b)


@given(finite, finite)
def test_two_prod_error_free(a, b):
    p, e = two_prod(a, b)
    assert Fraction(p) + Fraction(e) == Fraction(a) * Fraction(b)


@given(finite, finite, finite, finite)
@settings(max_examples=200)
def test_dd_add_relative_error(xh, xl, yh, yl):
    xl, yl = xl * 1e-17, yl * 1e-17
    rh, rl = dd_add(xh, xl, yh, yl)
    exact = Fraction(xh) + Fraction(xl) + Fraction(yh) + Fraction(yl)
    got = Fraction(rh) + Fraction(rl)
    if exact != 0:
        assert abs((got - exact) / exact) < Fraction(1, 10**30)


@given(nonzero, nonzero)
@settings(max_examples=200)
def test_dd_mul_div_roundtrip(a, b):
    ph, pl = dd_mul(a, 0.0, b, 0.0)
    qh, ql = dd_div(ph, pl, b, 0.0)
    exact = Fraction(a)
    got = Fraction(qh) + Fraction(ql)
    assert abs(got - exact) <= abs(exact) * Fraction(1, 10**29)


def test_dd_sqrt():
    rh, rl = dd_sqrt(2.0, 0.0)
    got = Fraction(rh) + Fraction(rl)
    assert abs(got * got - 2) < Fraction(1, 10**30)


def test_ddsum_cancellation_certification():
    acc = DDSum()
    # 1e16 - 1e16 + 1 loses ~16 digits relative to the magnitudes seen
    acc.add(1e16, 0.0)
    acc.add(-1e16, 0.0)
    acc.add(1.0, 0.0)
    assert acc.value() == 1.0
    assert 15.0 < acc.loss_digits() < 17.0
    assert 14.0 < acc.surviving_digits() < 17.0


def test_ddsum_no_cancellation():
    acc = DDSum()
    for v in (1.0, 2.0, 3.0):
        acc.add(v)
    assert acc.loss_digits() == pytest.approx(0.0, abs=1e-12)

