"""The standard quantum gl_n R-matrix on V (x) V and its calculus.

Conventions (validated at runtime by the Yang-Baxter and Hecke checks):

    R(v_a (x) v_b) = q^[a=b] v_a (x) v_b + (q - 1/q) [a > b] v_b (x) v_a

(standard_r writes R as its matrix units), with Rhat = flip . R satisfying
(Rhat - q)(Rhat + 1/q) = 0.  The antisymmetric eigenvalue is -1/q; the
joint antisymmetric kernel in V^(x)n is one-dimensional and realizes the
quantum determinant comodule.  The classical limit pins the
normalization: R at s = 1 is the identity.
"""

from __future__ import annotations

from math import isqrt

from .errors import WrongWedgeDimensionError
from .linalg import (
    Matrix,
    TensorIndexing,
    flip_perm,
    from_units,
    gauss_invert,
    kernel_basis,
    leg_embed,  # unused here; perfbench's tracer tests read this binding
    leg_products,
    leg_rows,
    sparse_kernel,
)
from .report import Report, equality_report, timed
from .scalars import ScalarField, as_rational, q_power


def standard_r(n: int, field: ScalarField) -> Matrix:
    """The vector-representation image of the universal R-matrix of gl_n:
    R = sum_{a,b} q^[a=b] E_aa (x) E_bb + (q - 1/q) sum_{a<b} E_ab (x) E_ba."""
    v, lam = range(1, n + 1), field.q - field.q_inv
    units = {((a, b), (a, b)): field.q if a == b else field.one for a in v for b in v}
    units.update({((a, b), (b, a)): lam for a in v for b in v if a < b})
    return from_units(n, units, field)


def r_hat(r: Matrix) -> Matrix:
    """flip . R, the Hecke-normalized braiding operator."""
    return flip_perm(isqrt(r.rows), r.field) * r


def rll_sides(r: Matrix, a: Matrix, n: int, k: int):
    """R12 A13 A23 and A23 A13 R12 on V (x) V (x) V^(x)k, A acting on
    V (x) V^(x)k; the RLL relation holds when they are equal."""
    w_legs = tuple(range(3, k + 3))
    r12, a13, a23 = (r, (1, 2)), (a, (1, *w_legs)), (a, (2, *w_legs))
    return tuple(leg_products([[r12, a13, a23], [a23, a13, r12]], n, k + 2))


@timed
def ybe_check(r: Matrix) -> Report:
    """R12 R13 R23 = R23 R13 R12 on V^(x)3, exactly: the RLL relation of
    L = R on V (x) V."""
    n = isqrt(r.rows)
    return equality_report("ybe", {"n": n}, *rll_sides(r, r, n, 1))


@timed
def hecke_check(rhat: Matrix) -> Report:
    """(Rhat - q)(Rhat + 1/q) = 0 with eigenspaces of dimensions n(n+1)/2 and
    n(n-1)/2; the relation alone would pass q Id and -1/q Id."""
    field = rhat.field
    d = rhat.rows
    n = isqrt(d)
    ident = Matrix.identity(d, field)
    sym_factor = rhat - ident.scale(field.q)
    anti_factor = rhat + ident.scale(field.q_inv)
    zero = Matrix.zeros(d, d, field)
    rep = equality_report("hecke", {"dim": d}, sym_factor * anti_factor, zero)
    sym = len(kernel_basis(sym_factor))
    anti = len(kernel_basis(anti_factor))
    expected = (n * (n + 1) // 2, n * (n - 1) // 2)
    rep.details.update(eigenspace_dims=(sym, anti), expected_dims=expected)
    if rep.passed and (sym, anti) != expected:
        rep.passed, rep.witness = False, dict(rep.details)
    return rep


def wedge_top(rhat: Matrix, n: int):
    """Spanning vector of the joint antisymmetric kernel in V^(x)n.

    Computes the intersection of ker(Rhat_{i,i+1} + 1/q) over i = 1..n-1
    with sparse_kernel, its rows the nonzero leg_rows of C = Rhat + 1/q on
    the legs (i, i+1).  Asserts the intersection is one-dimensional and
    normalizes the first nonzero coordinate (in lexicographic basis order)
    to 1.
    """
    field = rhat.field
    c = rhat + Matrix.identity(n * n, field).scale(field.q_inv)
    rows = [row for i in range(1, n) for row in leg_rows(c, (i, i + 1), n, n) if row]
    basis = sparse_kernel(rows, n**n, field.zero, field.one)
    if len(basis) != 1:
        raise WrongWedgeDimensionError(len(basis))
    return basis[0]


def wedge_coefficients(w, n: int):
    """Nonzero wedge coordinates keyed by 1-based multi-index."""
    ti = TensorIndexing(n, n)
    return {ti.from_linear(i): c for i, c in enumerate(w) if c}


def l_plus(r_j: Matrix, k: int) -> Matrix:
    """L+ on V (x) W, W = V^(x)k, as one flat operator: R_{0,k} ... R_{0,1}
    with leg 0 the matrix leg (hexagon composition).  NCSquare.from_flat(op, n)
    reads it as an n x n square of operators on W."""
    factors = [(r_j, (1, j)) for j in range(k + 1, 1, -1)]
    return leg_products([factors], isqrt(r_j.rows), k + 1)[0]


def l_minus(r_j: Matrix, k: int) -> Matrix:
    """L- on V (x) V^(x)k, the mirror of L+: R_{k,0}^{-1} ... R_{1,0}^{-1},
    that is L+ built from R21^{-1}."""
    inv = gauss_invert(r_j)
    factors = [(inv, (j, 1)) for j in range(k + 1, 1, -1)]
    return leg_products([factors], isqrt(r_j.rows), k + 1)[0]


def cartan_exp(a_grid, field: ScalarField) -> Matrix:
    """Diagonal operator on V (x) V scaling v_k (x) v_l by q^{a_kl}:
    sum_{k,l} q^{a_kl} E_kk (x) E_ll.

    Every a_kl * root_order must be an integer."""
    n = len(a_grid)
    if any(len(row) != n for row in a_grid):
        raise ValueError("exponent grid must be square")
    units = {((k, l), (k, l)): q_power(as_rational(x), field)
             for k, row in enumerate(a_grid, 1) for l, x in enumerate(row, 1)}
    return from_units(n, units, field)


def weight_exp(c, k: int, field: ScalarField) -> Matrix:
    """Diagonal operator on V^(x)k scaling v_{i1} ... v_{ik} by
    q^{c_{i1} + ... + c_{ik}}; Cartan weights add over tensor factors."""
    c = [as_rational(x) for x in c]
    multis = TensorIndexing(len(c), k).all_multis()
    return Matrix.diag([q_power(sum(c[i - 1] for i in m), field) for m in multis], field)
