"""The coefficient invariant of Q(s): ints where integral, Fractions elsewhere.

qdq.scalars keeps a coefficient as a Python int when it is integral and
as a fractions.Fraction (denominator > 1) only when it is not.  Values
stay correct either way, since 1 == Fraction(1) and both hash alike, so
only a walk over the coefficients themselves sees a path that leaks
integral Fractions (the slow representation) or floats (an inexact one).
"""

from fractions import Fraction

from test_scalars import proper_coefficient

from qdq.frt import build_T, qdet_coaction
from qdq.linalg import Matrix, gauss_invert
from qdq.quasidet import NCSquare, corner_factors
from qdq.scalars import RatFunc, ScalarField
from qdq.twist import BDTriple, build_twist, cartan_data


def coefficients(obj):
    """Every num/den coefficient of the RatFuncs inside obj."""
    if isinstance(obj, RatFunc):
        yield from obj.num
        yield from obj.den
    elif isinstance(obj, (Matrix, NCSquare)):
        for row in obj.entries:
            for x in row:
                yield from coefficients(x)
    elif isinstance(obj, (list, tuple)):
        for x in obj:
            yield from coefficients(x)
    else:
        raise TypeError(f"no coefficients in {type(obj).__name__}")


def bad_coefficients(obj):
    """Coefficients that are neither an int nor a non-integral Fraction."""
    return [c for c in coefficients(obj) if not proper_coefficient(c)]


def test_gl4_beta_battery_keeps_integral_coefficients_as_ints():
    triple = BDTriple.make(4, [1], [3], {1: 3})
    u, v, w = cartan_data(triple).h0_basis[:3]
    beta = [
        [
            Fraction(1, 2) * (u[i] * v[j] - v[i] * u[j])
            - (u[i] * w[j] - w[i] * u[j])
            for j in range(4)
        ]
        for i in range(4)
    ]
    tw = build_twist(triple, beta=beta)
    model = build_T(tw, 1, 1)
    parts = {
        "R_J": tw.r_j,
        "L+": model.l_plus,
        "L-": model.l_minus,
        "T": model.t_blocks,
        "corner factors": corner_factors(model.t_blocks),
        "D": qdet_coaction(model),
    }
    for name, obj in parts.items():
        assert next(coefficients(obj), None) is not None, name
        assert bad_coefficients(obj) == [], name


def test_generic_gauss_invert_keeps_integral_coefficients_as_ints():
    # non-monic, non-monomial denominators: the inverse needs genuine
    # Fractions, and every integral coefficient must still be an int
    f = ScalarField(1)
    grid = [
        [([1, -2, 3], [2, 1, 1]), ([0, 1], [3, 0, 2]), ([2], [1, 3])],
        [([-1, 0, 1], [1, 2]), ([3, 1], [5, 1, 2]), ([1, 1, 1], [2])],
        [([2, -1], [1, 1, 1]), ([1], [4, 3]), ([-3, 2, 1], [1, 0, 3])],
    ]
    a = Matrix(3, 3, [[f.from_coeffs(n, d) for n, d in row] for row in grid], f)
    inv = gauss_invert(a)
    assert a * inv == Matrix.identity(3, f)
    assert any(type(c) is Fraction for c in coefficients(inv))
    for obj in (a, inv, a * inv, inv * a):
        assert bad_coefficients(obj) == []
