"""Quasideterminant identities against commutative determinant oracles."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from qdq.errors import SingularMatrixError, SubmatrixSingularError
from qdq.frt import build_T
from qdq.linalg import Matrix, gauss_invert
from qdq.quasidet import (
    NCSquare,
    all_sigmas,
    corner_factors,
    det_sigma,
    inverse_via_quasiminors,
    quasideterminant,
    triangular_invariance_check,
)
from qdq.scalars import ScalarField
from qdq.twist import BDTriple, build_twist

F = ScalarField(1)
H = Fraction(1, 2)


def scalar_square(grid):
    return NCSquare(
        [[F.from_rational(Fraction(v)) for v in row] for row in grid], F
    )


def leibniz_det(grid):
    """Independent commutative determinant (Leibniz sum over permutations)."""
    m = len(grid)
    total = Fraction(0)
    for perm in permutations(range(m)):
        sign = 1
        for a in range(m):
            for b in range(a + 1, m):
                if perm[a] > perm[b]:
                    sign = -sign
        term = Fraction(1)
        for r, c in enumerate(perm):
            term *= Fraction(grid[r][c])
        total += sign * term
    return total


def submatrix(grid, i, j):
    return [
        [v for c, v in enumerate(row, 1) if c != j]
        for r, row in enumerate(grid, 1)
        if r != i
    ]


def rand_grid(rng, m, lo=-5, hi=5):
    return [[Fraction(rng.randint(lo, hi)) for _ in range(m)] for _ in range(m)]


def test_one_by_one():
    x = scalar_square([[7]])
    assert quasideterminant(x, 1, 1) == 7


def test_two_by_two_formula_operator_entries():
    # |X|_11 = x11 - x12 x22^{-1} x21, checked with noncommuting entries
    rng = random.Random(1)
    f = F
    ents = [
        [
            Matrix(
                2,
                2,
                [[f.from_rational(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)],
                f,
            )
            for _ in range(2)
        ]
        for _ in range(2)
    ]
    # make x22 invertible
    ents[1][1] = ents[1][1] + Matrix.identity(2, f).scale(f.from_rational(10))
    x = NCSquare(ents, f)
    got = quasideterminant(x, 1, 1)
    want = ents[0][0] - ents[0][1] * gauss_invert(ents[1][1]) * ents[1][0]
    assert got == want


def test_commutative_ratio():
    x = scalar_square([[1, 2], [3, 4]])
    assert quasideterminant(x, 1, 1) == Fraction(-1, 2)
    # equals det(X)/det(X^11) = -2/4
    assert quasideterminant(x, 1, 1) == Fraction(
        leibniz_det([[1, 2], [3, 4]]), leibniz_det([[4]])
    )


def test_commutative_ratio_randomized():
    rng = random.Random(2024)
    checked = 0
    while checked < 100:
        m = rng.randint(2, 5)
        grid = rand_grid(rng, m)
        i, j = rng.randint(1, m), rng.randint(1, m)
        minor = leibniz_det(submatrix(grid, i, j))
        x = scalar_square(grid)
        if minor == 0:
            with pytest.raises(SubmatrixSingularError):
                quasideterminant(x, i, j)
            continue
        lhs = quasideterminant(x, i, j) * F.from_rational(minor)
        rhs = F.from_rational((-1) ** (i + j) * leibniz_det(grid))
        assert lhs == rhs
        checked += 1


def test_det_sigma_two_by_two():
    x = scalar_square([[1, 2], [3, 4]])
    facts = corner_factors(x)
    # factor list is (|X|_22, x_11)
    assert facts[0] == Fraction(4 - 3 * 2, 1) and facts[1] == 1
    for sigma in all_sigmas(2):
        assert det_sigma(x, sigma) == -2


def test_det_sigma_identity_matrix():
    for m in (1, 2, 3, 4):
        x = scalar_square([[1 if i == j else 0 for j in range(m)] for i in range(m)])
        for sigma in all_sigmas(m):
            assert det_sigma(x, sigma) == 1


def test_det_sigma_equals_commutative_det():
    rng = random.Random(5)
    done = 0
    while done < 25:
        m = rng.randint(2, 4)
        grid = rand_grid(rng, m)
        x = scalar_square(grid)
        try:
            vals = [det_sigma(x, sigma) for sigma in all_sigmas(m)]
        except SubmatrixSingularError:
            continue
        want = F.from_rational(leibniz_det(grid))
        assert all(v == want for v in vals)
        done += 1


def test_sigma_independence_only_after_commutation():
    # harness rule: check pairwise commutators of the factors first
    rng = random.Random(6)
    grid = rand_grid(rng, 3)
    x = scalar_square(grid)
    try:
        facts = corner_factors(x)
    except SubmatrixSingularError:
        facts = None
    if facts is not None:
        for a in facts:
            for b in facts:
                assert a * b == b * a
        base = det_sigma(x, (1, 2, 3), factors=facts)
        for sigma in all_sigmas(3):
            assert det_sigma(x, sigma, factors=facts) == base


def test_inverse_via_quasiminors():
    ident = scalar_square([[1, 0], [0, 1]])
    got = inverse_via_quasiminors(ident)
    assert got == ident
    x = scalar_square([[1, 2], [3, 4]])
    inv = inverse_via_quasiminors(x)
    want = scalar_square(
        [[-2, 1], [Fraction(3, 2), Fraction(-1, 2)]]
    )  # adjugate/det oracle
    assert inv == want


def test_inverse_via_quasiminors_operator_entries():
    rng = random.Random(12)
    f = F
    while True:
        ents = [
            [
                Matrix(
                    2,
                    2,
                    [
                        [f.from_rational(rng.randint(-2, 2)) for _ in range(2)]
                        for _ in range(2)
                    ],
                    f,
                )
                for _ in range(3)
            ]
            for _ in range(3)
        ]
        for d in range(3):
            ents[d][d] = ents[d][d] + Matrix.identity(2, f).scale(f.from_rational(7))
        x = NCSquare(ents, f)
        try:
            inv = inverse_via_quasiminors(x)
            break
        except SubmatrixSingularError:
            continue
    prod = x.matmul(inv)
    ident = Matrix.identity(2, f)
    for i in range(3):
        for j in range(3):
            if i == j:
                assert prod.entries[i][j] == ident
            else:
                assert prod.entries[i][j].is_zero()
    # and it agrees with the inverse of the flattening
    assert inv == NCSquare.from_flat(gauss_invert(x.flatten()), 3)


def rand_unitriangular(rng, m, lower):
    grid = [[Fraction(1 if i == j else 0) for j in range(m)] for i in range(m)]
    for i in range(m):
        for j in range(m):
            if (j < i) if lower else (j > i):
                grid[i][j] = Fraction(rng.randint(-3, 3))
    return grid


def test_triangular_invariance_commutative():
    rng = random.Random(31)
    done = 0
    while done < 20:
        m = rng.randint(2, 3)
        x = scalar_square(rand_grid(rng, m))
        z = scalar_square(rand_unitriangular(rng, m, lower=True))
        y = scalar_square(rand_unitriangular(rng, m, lower=False))
        sigma = all_sigmas(m)[rng.randrange(len(all_sigmas(m)))]
        try:
            assert triangular_invariance_check(x, z, y, sigma)
        except SubmatrixSingularError:
            continue
        done += 1


def test_triangular_invariance_identity_z_y():
    x = scalar_square([[2, 1], [1, 2]])
    ident = scalar_square([[1, 0], [0, 1]])
    assert triangular_invariance_check(x, ident, ident, (1, 2))


def test_triangular_validation():
    x = scalar_square([[2, 1], [1, 2]])
    bad = scalar_square([[2, 0], [0, 1]])
    with pytest.raises(ValueError):
        triangular_invariance_check(x, bad, bad, (1, 2))


def test_submatrix_singular_carries_position():
    x = scalar_square([[1, 1, 1], [1, 1, 1], [1, 1, 2]])
    with pytest.raises(SubmatrixSingularError) as err:
        quasideterminant(x, 3, 3)  # minor is the singular all-ones 2x2
    assert (err.value.i, err.value.j) == (3, 3)


def inverse_route_quasideterminant(x, i, j):
    """Oracle: |X|_ij by the route the one solve replaced.

    The whole inverse of X^ij, as gauss_invert of its flattening read back
    as a square, then the (m-1)^2 block triple products r_a (X^ij)^{-1}_ab c_b
    summed before x_ij is subtracted.
    """
    if x.m == 1:
        return x[(1, 1)]
    minor = NCSquare(
        [
            [e for c, e in enumerate(row, 1) if c != j]
            for r, row in enumerate(x.entries, 1)
            if r != i
        ],
        x.field,
    )
    try:
        flat = gauss_invert(minor.flatten())
    except SingularMatrixError:
        raise SubmatrixSingularError(i, j) from None
    if isinstance(x.one, Matrix):
        inv = NCSquare.from_flat(flat, x.m - 1)
    else:
        inv = NCSquare(flat.entries, x.field)
    row = [x.entries[i - 1][c] for c in range(x.m) if c != j - 1]
    col = [x.entries[r][j - 1] for r in range(x.m) if r != i - 1]
    corr = x.zero
    for a, ra in enumerate(row):
        for b, cb in enumerate(col):
            mid = inv.entries[a][b]
            if ra and cb and mid:
                corr = corr + ra * mid * cb
    return x[(i, j)] - corr


def punctures_agree(x):
    """Compare both routes at every puncture; returns the singular ones."""
    singular = []
    for i in range(1, x.m + 1):
        for j in range(1, x.m + 1):
            try:
                want = inverse_route_quasideterminant(x, i, j)
            except SubmatrixSingularError as exc:
                with pytest.raises(SubmatrixSingularError) as err:
                    quasideterminant(x, i, j)
                assert (err.value.i, err.value.j) == (exc.i, exc.j) == (i, j)
                singular.append((i, j))
                continue
            assert quasideterminant(x, i, j) == want, (i, j)
    return singular


def rand_qs(rng):
    return F.from_coeffs(
        [rng.randint(-3, 3) for _ in range(3)], [1, rng.randint(0, 3), rng.randint(0, 2)]
    )


def rand_blocks(rng, m, d=2):
    """Blocks of polynomials a + b s; generic Q(s) blocks would be slow."""
    return NCSquare(
        [
            [
                Matrix(
                    d,
                    d,
                    [[F.from_coeffs([rng.randint(-2, 2), rng.randint(-2, 2)]) for _ in range(d)]
                     for _ in range(d)],
                    F,
                )
                for _ in range(m)
            ]
            for _ in range(m)
        ],
        F,
    )


def test_solve_matches_inverse_route_scalar_qs():
    rng = random.Random(41)
    for m in (1, 2, 3, 4, 2, 3):
        x = NCSquare([[rand_qs(rng) for _ in range(m)] for _ in range(m)], F)
        assert punctures_agree(x) == []


def test_solve_matches_inverse_route_operator_blocks():
    rng = random.Random(43)
    for m in (2, 3, 2):
        assert punctures_agree(rand_blocks(rng, m)) == []


@pytest.mark.parametrize(
    "triple, theta",
    [
        (BDTriple.make(3, [1], [2], {1: 2}), [[0, H, H], [H, 0, H], [0, H, 0]]),
        (BDTriple.make(4, [1], [3], {1: 3}), None),
    ],
    ids=["gl3-cg", "gl4-1to3"],
)
def test_solve_matches_inverse_route_on_T_corners(triple, theta):
    # X^ij of a corner is invertible on the diagonal only
    t = build_T(build_twist(triple, theta)).t_blocks
    for l in range(1, t.m + 1):
        off = [(i, j) for i in range(1, l + 1) for j in range(1, l + 1) if i != j]
        assert punctures_agree(t.corner(l)) == off


def test_solve_matches_inverse_route_singular_x():
    # X is singular but every X^ij is invertible: each |X|_ij is 0
    x = scalar_square([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert punctures_agree(x) == []
    assert all(quasideterminant(x, i, j) == 0 for i in (1, 2, 3) for j in (1, 2, 3))
    rng = random.Random(47)
    a = rand_blocks(rng, 1).entries[0][0]
    gauss_invert(a)  # every X^ij below is a, invertible
    y = NCSquare([[a, a], [a, a]], F)
    assert punctures_agree(y) == []
    assert all(quasideterminant(y, i, j).is_zero() for i in (1, 2) for j in (1, 2))


def test_solve_matches_inverse_route_singular_submatrix():
    x = scalar_square([[1, 1, 1], [1, 1, 1], [1, 1, 2]])
    assert punctures_agree(x) == [(1, 3), (2, 3), (3, 1), (3, 2), (3, 3)]
    rng = random.Random(53)
    y = rand_blocks(rng, 3)
    ents = [list(row) for row in y.entries]
    ents[0][1], ents[1][1] = ents[0][0], ents[1][0]  # X^33 has equal block columns
    singular = punctures_agree(NCSquare(ents, F))
    assert (3, 3) in singular
