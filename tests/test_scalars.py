"""Exact arithmetic in Q(s): canonical forms, field axioms, q-powers."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdq.errors import (
    FieldMismatchError,
    InputError,
    NonRepresentableExponentError,
    ZeroInverseError,
)
from qdq.io_json import ratfunc_from_json, ratfunc_to_json
from qdq.scalars import (
    MAX_EXPONENT,
    MAX_ROOT_ORDER,
    Q,
    RatFunc,
    ScalarField,
    _make,
    _mul_cross_cancel,
    _pdiv_exact,
    _pdivmod,
    _ptrim,
    lcm_denominators,
    q_power,
)

F1 = ScalarField(1)
F2 = ScalarField(2)


def conv(a, b):
    """Independent polynomial multiplication oracle (plain convolution)."""
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += Fraction(x) * Fraction(y)
    while out and out[-1] == 0:
        out.pop()
    return out


def coeffs(x):
    return [Fraction(int(c.numerator), int(c.denominator)) for c in x.num], [
        Fraction(int(c.numerator), int(c.denominator)) for c in x.den
    ]


def test_add_identity_and_monomials():
    x = F1.from_coeffs([1, 2, 3])
    assert F1.zero + x == x
    assert x + F1.zero == x
    assert F1.s * F1.s == F1.monomial(2)


def test_mul_q_plus_minus_inverse_expansion():
    # (q - 1/q)(q + 1/q) at M=1; oracle: expand numerators by convolution
    q = F1.q
    lhs = (q - q.inv()) * (q + q.inv())
    num = conv([-1, 0, 1], [1, 0, 1])  # (s^2-1)(s^2+1)
    den = conv([0, 1], [0, 1])  # s*s
    assert lhs == F1.from_coeffs(num, den)
    n, d = coeffs(lhs)
    assert n == [-1, 0, 0, 0, 1] and d == [0, 0, 1]


def test_invert():
    assert F1.one.inv() == F1.one
    x = F1.q - F1.q_inv  # (s^2-1)/s
    y = x.inv()
    assert x * y == F1.one
    n, d = coeffs(y)
    assert n == [0, 1] and d == [-1, 0, 1]
    with pytest.raises(ZeroInverseError):
        F1.zero.inv()


def test_q_power():
    assert q_power(0, F1) == F1.one
    assert q_power(Fraction(1, 2), F2) == F2.s
    assert q_power(-1, F1) == F1.monomial(-1)
    assert q_power(Fraction(3, 2), F2) == F2.monomial(3)
    with pytest.raises(NonRepresentableExponentError):
        q_power(Fraction(1, 2), F1)


def test_field_mismatch_detected():
    with pytest.raises(FieldMismatchError):
        F1.one + F2.one


def test_canonical_form_unique():
    a = F1.from_coeffs([2, 2], [0, 4])  # (2s+2)/(4s)
    b = F1.from_coeffs([1, 1], [0, 2])
    assert a == b
    assert a.den[-1] == 1
    # normalizing twice is a fixed point
    c = F1.from_coeffs(a.num, a.den)
    assert c.num == a.num and c.den == a.den


def test_eq_against_numbers():
    assert F1.from_rational(Fraction(3, 4)) == Fraction(3, 4)
    assert F1.zero == 0
    assert not (F1.s == 1)
    assert F1.from_rational(5) == 5


def test_constants_hash_like_the_rationals_they_equal():
    for c in (3, Q(1, 2), 0):
        for f in (F1, F2):
            x = f.from_rational(c)
            assert x == c and hash(x) == hash(c)
            assert len({x, c}) == 1
    assert F1.zero == 0 and len({F1.zero, 0}) == 1


def test_evaluate():
    x = (F2.q - F2.q_inv) * F2.from_rational(Fraction(1, 3))
    assert x.evaluate(1) == 0
    # q = s^2 at root order 2, so s=2 gives q = 4
    assert x.evaluate(2) == Fraction(4 - Fraction(1, 4), 3)
    with pytest.raises(ZeroDivisionError):
        F1.s.inv().evaluate(0)


def test_lcm_denominators():
    assert lcm_denominators([Fraction(1, 2), Fraction(1, 3), 4]) == 6
    assert lcm_denominators([]) == 1


small_rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


@st.composite
def ratfuncs(draw, field=F1):
    num = draw(st.lists(small_rationals, min_size=0, max_size=4))
    den = draw(
        st.lists(small_rationals, min_size=1, max_size=3).filter(
            lambda cs: any(cs)
        )
    )
    return field.from_coeffs(num, den)


@settings(max_examples=120, deadline=None)
@given(ratfuncs(), ratfuncs(), ratfuncs())
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert (x * y) * z == x * (y * z)
    assert x * y == y * x
    assert x * (y + z) == x * y + x * z


@settings(max_examples=120, deadline=None)
@given(ratfuncs())
def test_mul_inverse(x):
    if x:
        assert x * x.inv() == F1.one
    else:
        with pytest.raises(ZeroInverseError):
            x.inv()


@settings(max_examples=80, deadline=None)
@given(
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
)
def test_q_power_additive(a, b):
    M = lcm_denominators([a, b])
    f = ScalarField(M)
    assert q_power(a, f) * q_power(b, f) == q_power(a + b, f)


@settings(max_examples=60, deadline=None)
@given(ratfuncs(), ratfuncs())
def test_sub_and_div_consistent(x, y):
    assert (x - y) + y == x
    if y:
        assert (x / y) * y == x


@settings(max_examples=150, deadline=None)
@given(
    st.lists(small_rationals, max_size=6),
    st.integers(min_value=0, max_value=4),
    st.booleans(),
)
def test_monomial_shift_matches_long_division(cs, v, exact):
    # dividing by s^v is a shift; Euclidean division is the oracle,
    # and an inexact division must still be refused
    a = _ptrim(Q(c) for c in cs)
    if exact:
        a = _ptrim((Q(0),) * v + a)
    b = (Q(0),) * v + (Q(1),)
    q, r = _pdivmod(a, b)
    if r:
        with pytest.raises(ArithmeticError):
            _pdiv_exact(a, b)
    else:
        assert _pdiv_exact(a, b) == q


@st.composite
def laurents(draw, field=F1):
    """A nonzero Laurent value: any numerator, leading zeros allowed, over s^a."""
    num = draw(st.lists(small_rationals, min_size=1, max_size=5).filter(any))
    a = draw(st.integers(min_value=0, max_value=4))
    return field.from_coeffs(num, [0] * a + [1])


@settings(max_examples=300, deadline=None)
@given(laurents(), laurents())
def test_laurent_product_matches_cross_cancellation(x, y):
    # the shift-only product of two Laurent values is the canonical form
    # the gcd route gives, tuple for tuple, and hashes alike
    prod = x * y
    num, den = _mul_cross_cancel(x.num, x.den, y.num, y.den)
    assert (prod.num, prod.den) == (num, den)
    assert hash(prod) == hash(RatFunc._raw(num, den, F1))


def test_pow():
    x = F1.q - F1.one
    assert x**0 == F1.one
    assert x**3 == x * x * x
    y = F1.q
    assert y**-2 == y.inv() * y.inv()


def test_str_render():
    assert str(F1.zero) == "0"
    assert str(F1.q - F1.q_inv) == "(s^2 - 1)/s"
    assert str(F1.from_rational(Fraction(-1, 2))) == "-1/2"


def test_rational_helper():
    assert Q(6, 4) == Q(3, 2)
    assert Q(Fraction(2, 6)) == Q(1, 3)


# ---------------------------------------------------------------------------
# Differential oracle: the all-Fraction representation.  Coefficients are
# ints where integral; the same value built as raw tuples of Fractions must
# give results that are equal, hash alike and print alike, and the factory
# results must hold no float and no integral Fraction.
# ---------------------------------------------------------------------------

def all_fraction(x):
    return RatFunc._raw(
        tuple(Fraction(c) for c in x.num), tuple(Fraction(c) for c in x.den), x.field
    )


def proper_coefficient(c):
    """An int, or a Fraction that is not integral: never a float."""
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def assert_same(new, old):
    assert new == old and old == new
    assert hash(new) == hash(old)
    assert str(new) == str(old)
    assert all(map(proper_coefficient, new.num + new.den))


@st.composite
def operands(draw):
    """A value drawn as Laurent, as integral or as genuinely rational."""
    kind = draw(st.sampled_from(["laurent", "integral", "rational"]))
    if kind == "laurent":
        return draw(laurents())
    if kind == "integral":
        ints = st.integers(min_value=-4, max_value=4)
        num = draw(st.lists(ints, max_size=4))
        den = draw(st.lists(ints, min_size=1, max_size=3).filter(any))
        return F1.from_coeffs(num, den)
    return draw(ratfuncs())


@settings(max_examples=200, deadline=None)
@given(operands(), operands(), st.integers(min_value=-3, max_value=3))
def test_ring_operations_match_the_all_fraction_representation(x, y, e):
    ox, oy = all_fraction(x), all_fraction(y)
    assert_same(x, ox)
    assert_same(x + y, ox + oy)
    assert_same(x - y, ox - oy)
    assert_same(x * y, ox * oy)
    assert_same(-x, -ox)
    if y:
        assert_same(x / y, ox / oy)
        assert_same(y.inv(), oy.inv())
    if x or e >= 0:
        assert_same(x**e, ox**e)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(small_rationals, max_size=4),
    st.lists(small_rationals, min_size=1, max_size=3).filter(any),
)
def test_from_coeffs_matches_the_all_fraction_representation(num, den):
    # den may be non-monic and non-integral: canonicalization divides
    x = F1.from_coeffs(num, den)
    old = _make(tuple(map(Fraction, num)), tuple(map(Fraction, den)), F1)
    assert_same(x, old)
    assert x.den[-1] == 1
    for s in (Fraction(2), Fraction(-3), Fraction(1, 3)):
        d = sum(c * s**i for i, c in enumerate(den))
        if d:
            assert x.evaluate(s) == sum(c * s**i for i, c in enumerate(num)) / d


@settings(max_examples=150, deadline=None)
@given(operands())
def test_json_round_trip_matches_the_all_fraction_representation(x):
    old = all_fraction(x)
    enc = ratfunc_to_json(x)
    assert json.dumps(enc) == json.dumps(ratfunc_to_json(old))
    back = ratfunc_from_json(enc, F1)
    assert_same(back, old)
    assert (back.num, back.den) == (x.num, x.den)


def test_root_order_is_bounded():
    # q = s^M holds M + 1 coefficients, so an unbounded M from user input
    # would ask for any amount of memory before a check could refuse it
    assert ScalarField(MAX_ROOT_ORDER).q.num[-1] == 1
    with pytest.raises(InputError, match="exceeds the bound"):
        ScalarField(MAX_ROOT_ORDER + 1)


def test_cartan_exponent_is_bounded():
    # q^r = s^(rM) holds |rM| + 1 coefficients, and r comes from user grids
    assert q_power(MAX_EXPONENT, F1) == F1.monomial(MAX_EXPONENT)
    assert q_power(-MAX_EXPONENT, F1) == F1.monomial(-MAX_EXPONENT)
    assert q_power(Fraction(MAX_EXPONENT, 2), F2) == F2.monomial(MAX_EXPONENT)
    assert q_power(1, ScalarField(MAX_ROOT_ORDER)) == ScalarField(MAX_ROOT_ORDER).q
    for r, f in [(MAX_EXPONENT + 1, F1), (-MAX_EXPONENT - 1, F1),
                 (Fraction(MAX_EXPONENT + 1, 2), F2)]:
        with pytest.raises(InputError, match=f"exceeds the bound {MAX_EXPONENT}"):
            q_power(r, f)
