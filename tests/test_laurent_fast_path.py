"""The Laurent fast path of RatFunc.__mul__ against the product it replaced.

reference_mul below is RatFunc.__mul__ as it stood before the fast path:
int and Fraction operands made constants, zero tested by truthiness, the
general Laurent product (one convolution, then a cancel by the power of s
that divides the numerator) for two values over powers of s, and the
cross-cancelling product for every other pair.  The fast path must give
the same canonical tuples with the same coefficient types (int where
integral, Fraction elsewhere) for units, one-term values, Fraction
coefficients, negative valuations, generic values and int or Fraction
operands on either side.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_scalars import F1, F2, laurents, ratfuncs, small_rationals

from qdq.errors import FieldMismatchError
from qdq.scalars import RatFunc, ScalarField, _mul_cross_cancel, _pmul, _valuation


def reference_mul(x, y):
    """(num, den) of x * y by the route taken before the fast path."""
    field = x.field if isinstance(x, RatFunc) else y.field
    x, y = (v if isinstance(v, RatFunc) else field.from_rational(v) for v in (x, y))
    if x.field.root_order != y.field.root_order:
        raise FieldMismatchError("mixed root orders")
    if not x or not y:
        return (), (1,)
    n1, d1, n2, d2 = x.num, x.den, y.num, y.den
    if not any(d1[:-1]) and not any(d2[:-1]):
        num = _pmul(n1, n2)
        e = len(d1) + len(d2) - 2
        c = min(_valuation(num), e)
        return num[c:], (0,) * (e - c) + (1,)
    return _mul_cross_cancel(n1, d1, n2, d2)


def assert_matches_reference(x, y):
    got = x * y
    num, den = reference_mul(x, y)
    assert (got.num, got.den) == (num, den)
    assert [type(c) for c in got.num + got.den] == [type(c) for c in num + den]


nonzero_rationals = small_rationals.filter(bool)


@st.composite
def one_terms(draw, field=F1):
    """c s^e for any integer e: a constant, a monomial or c over s^-e."""
    return field.monomial(draw(st.integers(-5, 5)), draw(nonzero_rationals))


units = st.sampled_from([F1.one, F1.from_rational(1), F1.monomial(0), F1.from_coeffs([2], [2])])
values = st.one_of(units, one_terms(), laurents(), ratfuncs())
coercibles = st.one_of(st.integers(-4, 4), small_rationals, st.sampled_from([1, Fraction(1)]))


@settings(max_examples=400, deadline=None)
@given(values, values)
def test_products_match_the_reference(x, y):
    assert_matches_reference(x, y)
    assert_matches_reference(y, x)


@settings(max_examples=200, deadline=None)
@given(st.one_of(one_terms(), laurents()), st.one_of(one_terms(), laurents()))
def test_laurent_products_match_the_reference(x, y):
    # both operands over powers of s, so only the fast path runs
    assert_matches_reference(x, y)
    assert_matches_reference(x, x)


@settings(max_examples=200, deadline=None)
@given(values, coercibles)
def test_int_and_fraction_operands_match_the_reference(x, c):
    for got, want in [(x * c, reference_mul(x, c)), (c * x, reference_mul(c, x))]:
        assert (got.num, got.den) == want
        assert [type(v) for v in got.num + got.den] == [type(v) for v in want[0] + want[1]]


@settings(max_examples=100, deadline=None)
@given(st.one_of(one_terms(), laurents()), units)
def test_a_unit_operand_returns_the_other_laurent_operand(x, one):
    # a generic operand keeps the cross-cancelling route, unit or not
    assume(not x.is_one())  # of two units, either may come back
    assert x * one is x and one * x is x
    assert x * 1 is x and Fraction(1) * x is x


@settings(max_examples=100, deadline=None)
@given(st.one_of(values, st.just(F1.zero)), st.one_of(st.just(F2.one), st.just(F2.zero), one_terms(F2),
                                                       laurents(F2), ratfuncs(F2)))
def test_mixed_root_orders_still_raise(x, y):
    with pytest.raises(FieldMismatchError):
        x * y
    with pytest.raises(FieldMismatchError):
        y * x


def test_equal_root_orders_from_distinct_fields_multiply():
    other = ScalarField(1)
    assert other.s * F1.s == F1.monomial(2)
    assert F1.one * other.q_inv == F1.monomial(-1)
    assert (other.s + 1) * (F1.s - 1) == F1.from_coeffs([-1, 0, 1])
