"""The Laurent fast paths of RatFunc.__mul__ and __add__ against the
routes they replaced.

reference_mul below is RatFunc.__mul__ as it stood before the fast path:
int and Fraction operands made constants, zero tested by truthiness, the
general Laurent product (one convolution, then a cancel by the power of s
that divides the numerator) for two values over powers of s, and the
cross-cancelling product for every other pair.  The fast path must give
the same canonical tuples with the same coefficient types (int where
integral, Fraction elsewhere) for units, one-term values, Fraction
coefficients, negative valuations, generic values and int or Fraction
operands on either side.  reference_add is RatFunc.__add__ as it stood
before its fast path, checked the same way, and also on sums that cancel
exactly or by a power of s.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_scalars import F1, F2, laurents, ratfuncs, small_rationals

from qdq.errors import FieldMismatchError
from qdq.scalars import (
    RatFunc,
    ScalarField,
    _make,
    _mul_cross_cancel,
    _padd,
    _pmul,
    _valuation,
)


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


def reference_add(x, y):
    """(num, den) of x + y by the route taken before the fast path: one
    numerator sum over a shared denominator, else the cross sum over the
    product of the denominators, each canonicalized by a gcd."""
    field = x.field if isinstance(x, RatFunc) else y.field
    x, y = (v if isinstance(v, RatFunc) else field.from_rational(v) for v in (x, y))
    if x.field.root_order != y.field.root_order:
        raise FieldMismatchError("mixed root orders")
    if not y:
        return x.num, x.den
    if not x:
        return y.num, y.den
    if x.den == y.den:
        num = _padd(x.num, y.num)
        if x.den == (1,):
            return num, (1,)
        out = _make(num, x.den, field)
    else:
        num = _padd(_pmul(x.num, y.den), _pmul(y.num, x.den))
        out = _make(num, _pmul(x.den, y.den), field)
    return out.num, out.den


def assert_sum_matches_reference(got, want):
    assert (got.num, got.den) == want
    assert [type(c) for c in got.num + got.den] == [type(c) for c in want[0] + want[1]]


def value_of(pair, field=F1):
    return field.from_coeffs(*pair)


@settings(max_examples=150, deadline=None)
@given(values, values)
def test_sums_match_the_reference(x, y):
    assert_sum_matches_reference(x + y, reference_add(x, y))
    assert_sum_matches_reference(y + x, reference_add(y, x))
    assert_sum_matches_reference(x - y, reference_add(x, -y))


@settings(max_examples=150, deadline=None)
@given(st.one_of(one_terms(), laurents()), st.one_of(one_terms(), laurents()))
def test_laurent_sums_match_the_reference(x, y):
    # both operands over powers of s, so only the fast path runs
    assert_sum_matches_reference(x + y, reference_add(x, y))
    assert_sum_matches_reference(x + x, reference_add(x, x))


@settings(max_examples=80, deadline=None)
@given(values)
def test_exact_cancellation_gives_the_zero(x):
    for z in (x + (-x), x - x, (-x) + x):
        assert (z.num, z.den) == ((), (1,)) and z is x.field.zero


@settings(max_examples=150, deadline=None)
@given(laurents(), laurents(), st.integers(-3, 4), nonzero_rationals)
def test_sums_that_cancel_a_power_of_s_match_the_reference(x, w, k, c):
    # y = c s^k w - x, built without the sum under test, so x + y is
    # c s^k w and the power of s the sum shares with s^e is cut
    y = value_of(reference_add(F1.monomial(k, c) * w, -x))
    assume(y)
    got = x + y
    assert_sum_matches_reference(got, reference_add(x, y))
    assert got == F1.monomial(k, c) * w


@settings(max_examples=60, deadline=None)
@given(ratfuncs(), ratfuncs())
def test_generic_sums_keep_the_old_route(x, y):
    assert_sum_matches_reference(x + y, reference_add(x, y))


@settings(max_examples=100, deadline=None)
@given(values, coercibles)
def test_int_and_fraction_summands_match_the_reference(x, c):
    for got, want in [
        (x + c, reference_add(x, c)),
        (c + x, reference_add(c, x)),
        (x - c, reference_add(x, -c)),
        (c - x, reference_add(c, -x)),
    ]:
        assert_sum_matches_reference(got, want)


@settings(max_examples=40, deadline=None)
@given(st.one_of(values, st.just(F1.zero)), st.one_of(st.just(F2.one), one_terms(F2),
                                                       laurents(F2), ratfuncs(F2)))
def test_mixed_root_orders_still_raise_in_sums(x, y):
    for bad in (lambda: x + y, lambda: y + x, lambda: x - y):
        with pytest.raises(FieldMismatchError):
            bad()
