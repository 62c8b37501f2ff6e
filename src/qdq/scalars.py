"""Exact scalar arithmetic: rationals and the field Q(s) with q = s^M.

Every coefficient in the package is an element of Q(s), the field of
rational functions in one indeterminate s over the rationals.  The quantum
parameter is q = s^M, where the root order M is chosen large enough that
every fractional power q^a occurring in a computation is a plain power of
s.  Polynomials are stored dense in ascending degree; the canonical form
(coprime numerator/denominator, monic denominator) is unique, so equality
is structural.

Coefficients are exact rationals held as Python ints whenever they are
integral and as fractions.Fraction (denominator > 1) only when they are
not; every path that builds a coefficient goes through _coeff, _div or
_ints, so no coefficient is a float or an integral Fraction.  Since
1 == Fraction(1), hash(1) == hash(Fraction(1)) and str(3) ==
str(Fraction(3)), an int coefficient compares, hashes and prints exactly
as the Fraction it replaces: equality stays structural and a constant
still hashes like the rational it holds.  Values handed to callers as
rationals (as_rational, evaluate) are fractions.Fraction, which prints
as "p/q".
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import (
    FieldMismatchError,
    InputError,
    NonRepresentableExponentError,
    ZeroInverseError,
)

Q = Fraction  # exact rational number, canonical and hashable

_Q0 = 0
_Q1 = 1

MAX_ROOT_ORDER = 1024  # q = s^M holds M + 1 coefficients, and M is user input
MAX_EXPONENT = 1 << 16  # q^r = s^(rM) holds |rM| + 1 coefficients, and r is user input


def as_rational(x):
    """Coerce int / Fraction / 'p/q' string to a Fraction."""
    return Fraction(x)


def _coeff(x):
    """x as a coefficient: an int when it is integral, else a Fraction."""
    if type(x) is int:
        return x
    c = Fraction(x)
    return c.numerator if c.denominator == 1 else c


def _div(a, b):
    """Exact quotient a/b of coefficients, an int when it is integral."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    c = a / b
    return c.numerator if c.denominator == 1 else c


def _ints(cs):
    """cs with every integral Fraction made an int; cs itself when none is
    a Fraction, the usual case, found by one scan at C speed."""
    if Fraction not in map(type, cs):
        return cs
    return [c.numerator if type(c) is Fraction and c.denominator == 1 else c for c in cs]


def lcm_denominators(values) -> int:
    """lcm of the denominators of an iterable of rationals (at least 1)."""
    m = 1
    for v in values:
        m = math.lcm(m, int(as_rational(v).denominator))
    return m


# ---------------------------------------------------------------------------
# Dense polynomials over Q: tuples of coefficients (see _coeff), ascending
# degree, no trailing zeros; the zero polynomial is the empty tuple.
# ---------------------------------------------------------------------------

def _ptrim(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _ptrim(_ints(out))


def _pneg(a):
    return tuple(-c for c in a)


def _pmul(a, b):
    if not a or not b:
        return ()
    if len(a) == 1:
        c = a[0]
        return tuple(_ints([c * x if x else x for x in b]))
    if len(b) == 1:
        c = b[0]
        return tuple(_ints([c * x if x else x for x in a]))
    out = [_Q0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
    return _ptrim(_ints(out))


def _pdivmod(a, b):
    """Euclidean division over Q; b must be nonzero."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if len(a) < len(b):
        return (), a
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    q = [_Q0] * (len(a) - db)
    for k in range(len(a) - len(b), -1, -1):
        c = _div(r[db + k], lb)
        if c:
            q[k] = c
            for i in range(db + 1):
                r[k + i] -= c * b[i]
    return _ptrim(q), _ptrim(r)


def _pdiv_exact(a, b):
    v = len(b) - 1
    if b and b[v] == 1 and not any(b[:v]):
        # b = s^v, the usual gcd of Laurent values: a shift, no division
        if any(a[:v]):
            raise ArithmeticError("inexact polynomial division")
        return a[v:]
    q, r = _pdivmod(a, b)
    if r:
        raise ArithmeticError("inexact polynomial division")
    return q


def _pmonic(a):
    if not a:
        return ()
    lc = a[-1]
    if lc == 1:
        return tuple(a)
    return tuple(_div(c, lc) for c in a)


def _valuation(a):
    for i, c in enumerate(a):
        if c:
            return i
    return None


def _is_monomial(a):
    return sum(1 for c in a if c) == 1


def _int_primitive(p):
    """Clear denominators and content; ascending list of Python/gmp ints."""
    den = 1
    for c in p:
        den = math.lcm(den, int(c.denominator))
    ints = [int(c * den) for c in p]
    g = 0
    for v in ints:
        g = math.gcd(g, v)
    return [v // g for v in ints]


def _int_prem_desc(a, b):
    """Pseudo-remainder of descending integer coefficient lists."""
    r = list(a)
    db = len(b) - 1
    lb = b[0]
    while len(r) - 1 >= db:
        lead = r[0]
        r = [lb * c for c in r]
        for i in range(db + 1):
            r[i] -= lead * b[i]
        r.pop(0)
        while r and r[0] == 0:
            r.pop(0)
    return r


def _pgcd(a, b):
    """Monic gcd over Q via a primitive pseudo-remainder sequence."""
    if not a:
        return _pmonic(b)
    if not b:
        return _pmonic(a)
    if len(a) == 1 or len(b) == 1:
        return (_Q1,)
    va, vb = _valuation(a), _valuation(b)
    v = min(va, vb)
    if _is_monomial(a) or _is_monomial(b):
        return ((_Q0,) * v) + (_Q1,)
    if v:
        a, b = a[va:], b[vb:]
    u = _int_primitive(a)[::-1]
    w = _int_primitive(b)[::-1]
    if len(u) < len(w):
        u, w = w, u
    while w:
        r = _int_prem_desc(u, w)
        if r:
            g = 0
            for c in r:
                g = math.gcd(g, c)
            r = [c // g for c in r]
        u, w = w, r
    core = _pmonic(tuple(reversed(u)))
    if v:
        core = ((_Q0,) * v) + tuple(c for c in core)
        # re-trim not needed: leading coefficient of core is 1
    return core


def _peval(a, x):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _pstr(p, var="s"):
    if not p:
        return "0"
    terms = []
    for e in range(len(p) - 1, -1, -1):
        c = p[e]
        if not c:
            continue
        if e == 0:
            terms.append(str(c))
        else:
            mono = var if e == 1 else f"{var}^{e}"
            if c == 1:
                terms.append(mono)
            elif c == -1:
                terms.append(f"-{mono}")
            else:
                terms.append(f"{c}*{mono}")
    out = terms[0]
    for t in terms[1:]:
        out += " - " + t[1:] if t.startswith("-") else " + " + t
    return out


# ---------------------------------------------------------------------------
# The scalar field and its elements
# ---------------------------------------------------------------------------

class ScalarField:
    """Q(s) with the convention q = s^root_order.

    All values exchanged between modules must carry the same root order;
    mixing fields raises FieldMismatchError.
    """

    __slots__ = ("root_order", "zero", "one", "s", "q", "q_inv")

    def __init__(self, root_order: int = 1):
        if not isinstance(root_order, int) or root_order < 1:
            raise ValueError(f"root order must be a positive integer, got {root_order!r}")
        if root_order > MAX_ROOT_ORDER:
            raise InputError(f"root order {root_order} exceeds the bound {MAX_ROOT_ORDER}")
        self.root_order = root_order
        self.zero = RatFunc._raw((), (_Q1,), self)
        self.one = RatFunc._raw((_Q1,), (_Q1,), self)
        self.s = self.monomial(1)
        self.q = self.monomial(root_order)
        self.q_inv = self.monomial(-root_order)

    def __eq__(self, other):
        return isinstance(other, ScalarField) and other.root_order == self.root_order

    def __hash__(self):
        return hash(("ScalarField", self.root_order))

    def __repr__(self):
        return f"ScalarField(root_order={self.root_order})"

    def monomial(self, e: int, coeff=_Q1) -> RatFunc:
        """coeff * s^e, e may be negative."""
        c = _coeff(coeff)
        if not c:
            return self.zero
        if e >= 0:
            return RatFunc._raw((_Q0,) * e + (c,), (_Q1,), self)
        return RatFunc._raw((c,), (_Q0,) * (-e) + (_Q1,), self)

    def from_rational(self, x) -> RatFunc:
        c = _coeff(x)
        if not c:
            return self.zero
        return RatFunc._raw((c,), (_Q1,), self)

    def from_coeffs(self, num, den=(1,)) -> RatFunc:
        """Build and canonicalize from raw coefficient sequences."""
        return _make(
            tuple(_coeff(c) for c in num),
            tuple(_coeff(c) for c in den),
            self,
        )


def _make(num, den, field) -> RatFunc:
    num = _ptrim(num)
    den = _ptrim(den)
    if not den:
        raise ZeroDivisionError("rational function with zero denominator")
    if not num:
        return field.zero
    g = _pgcd(num, den)
    if len(g) > 1 or g[0] != 1:
        num = _pdiv_exact(num, g)
        den = _pdiv_exact(den, g)
    lc = den[-1]
    if lc != 1:
        num = tuple(_div(c, lc) for c in num)
        den = tuple(_div(c, lc) for c in den)
    return RatFunc._raw(num, den, field)


_ONE_DEN = (_Q1,)


def _mul_cross_cancel(n1, d1, n2, d2):
    """Canonical (num, den) of (n1/d1)(n2/d2), both canonical, by cancelling
    n1 against d2 and n2 against d1: factors stay small and no final gcd is
    needed."""
    g1 = _pgcd(n1, d2)
    if len(g1) > 1 or g1[0] != 1:
        n1 = _pdiv_exact(n1, g1)
        d2 = _pdiv_exact(d2, g1)
    g2 = _pgcd(n2, d1)
    if len(g2) > 1 or g2[0] != 1:
        n2 = _pdiv_exact(n2, g2)
        d1 = _pdiv_exact(d1, g2)
    num = _pmul(n1, n2)
    den = _pmul(d1, d2)
    lc = den[-1]
    if lc != 1:
        num = tuple(_div(c, lc) for c in num)
        den = tuple(_div(c, lc) for c in den)
    return num, den


class RatFunc:
    """Element of Q(s) in canonical form.

    Immutable; arithmetic returns canonical elements.  Equality against
    ints and rationals compares with the constant element.
    """

    __slots__ = ("num", "den", "field")

    def __init__(self, *_args, **_kwargs):
        raise TypeError("use ScalarField factories (from_coeffs, monomial, ...)")

    @staticmethod
    def _raw(num, den, field) -> RatFunc:
        self = object.__new__(RatFunc)
        self.num = num
        self.den = den
        self.field = field
        return self

    # -- predicates --------------------------------------------------------

    def __bool__(self):
        return bool(self.num)

    def is_one(self):
        return self.num == _ONE_DEN and self.den == _ONE_DEN

    # -- ring operations ----------------------------------------------------

    def _check(self, other):
        if self.field.root_order != other.field.root_order:
            raise FieldMismatchError(
                f"mixed root orders {self.field.root_order} and {other.field.root_order}"
            )

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other:
            return self
        if not self:
            return other
        if self.den == other.den:
            num = _padd(self.num, other.num)
            if self.den == _ONE_DEN:
                return RatFunc._raw(num, _ONE_DEN, self.field) if num else self.field.zero
            return _make(num, self.den, self.field)
        num = _padd(_pmul(self.num, other.den), _pmul(other.num, self.den))
        return _make(num, _pmul(self.den, other.den), self.field)

    __radd__ = __add__

    def __neg__(self):
        if not self:
            return self
        return RatFunc._raw(_pneg(self.num), self.den, self.field)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if type(other) is not RatFunc:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        elif other.field is not self.field:
            self._check(other)
        n1, n2 = self.num, other.num
        if not n1 or not n2:
            return self.field.zero
        d1, d2 = self.den, other.den
        e1, e2 = len(d1) - 1, len(d2) - 1
        # a monic denominator with e zeros below its top is s^e: Laurent
        if d1.count(0) != e1 or d2.count(0) != e2:
            return RatFunc._raw(*_mul_cross_cancel(n1, d1, n2, d2), self.field)
        if not e2 and n2 == _ONE_DEN:
            return self
        if not e1 and n1 == _ONE_DEN:
            return other
        if len(n1) - n1.count(0) != 1:
            if len(n2) - n2.count(0) != 1:
                # n1/s^e1 times n2/s^e2 over s^(e1+e2) cancels only by
                # the power of s that divides its numerator
                num = _pmul(n1, n2)
                e = e1 + e2
                c = min(_valuation(num), e)
                return RatFunc._raw(num[c:], (_Q0,) * (e - c) + _ONE_DEN, self.field)
            n1, e1, n2, e2 = n2, e2, n1, e1
        # n1 is c s^v: the product is c s^k times n2 with its low zeros cut
        c, w = n1[-1], _valuation(n2)
        k = len(n1) - 1 - e1 - e2 + w
        num = n2[w:] if c == 1 else tuple(_ints([c * x if x else x for x in n2[w:]]))
        if k >= 0:
            return RatFunc._raw((_Q0,) * k + num, _ONE_DEN, self.field)
        return RatFunc._raw(num, (_Q0,) * -k + _ONE_DEN, self.field)

    __rmul__ = __mul__

    def inv(self) -> RatFunc:
        """Multiplicative inverse; raises ZeroInverseError on zero."""
        if not self.num:
            raise ZeroInverseError("inverse of the zero rational function")
        num, den = self.den, self.num
        lc = den[-1]
        if lc != 1:
            num = tuple(_div(c, lc) for c in num)
            den = tuple(_div(c, lc) for c in den)
        return RatFunc._raw(num, den, self.field)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inv()

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.inv() ** (-e)
        out = self.field.one
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, RatFunc):
            return (
                self.field.root_order == other.field.root_order
                and self.num == other.num
                and self.den == other.den
            )
        if isinstance(other, (int, Fraction)):
            c = _coeff(other)
            if not c:
                return not self.num
            return self.den == _ONE_DEN and self.num == (c,)
        return NotImplemented

    def __hash__(self):
        # a constant equals the rational it holds, so it must hash like it
        if self.den == _ONE_DEN and len(self.num) <= 1:
            return hash(self.num[0] if self.num else _Q0)
        return hash((self.num, self.den, self.field.root_order))

    # -- misc ----------------------------------------------------------------

    def evaluate(self, x):
        """Exact value at a rational point; the point must not be a pole."""
        x = as_rational(x)
        d = _peval(self.den, x)
        if not d:
            raise ZeroDivisionError(f"pole at s = {x}")
        return _peval(self.num, x) / d

    def __str__(self):
        if self.den == _ONE_DEN:
            return _pstr(self.num)
        n = _pstr(self.num)
        if len([c for c in self.num if c]) > 1:
            n = f"({n})"
        d = _pstr(self.den)
        if len([c for c in self.den if c]) > 1:
            d = f"({d})"
        return f"{n}/{d}"

    def __repr__(self):
        return f"RatFunc({self}, M={self.field.root_order})"


def q_power(r, field: ScalarField) -> RatFunc:
    """q^r as an element of Q(s), where q = s^M.

    Defined only when r*M is an integer; otherwise the root order was
    computed wrongly upstream and NonRepresentableExponentError is raised.
    An exponent |r*M| above MAX_EXPONENT is refused with InputError.
    """
    r = as_rational(r)
    e = r * field.root_order
    if e.denominator != 1:
        raise NonRepresentableExponentError(
            f"q^{r} is not a power of s at root order {field.root_order}"
        )
    if abs(e) > MAX_EXPONENT:
        raise InputError(f"q^{r} is s^{e}, whose exponent exceeds the bound {MAX_EXPONENT}")
    return field.monomial(int(e))
