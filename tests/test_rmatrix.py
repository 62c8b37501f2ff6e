"""Standard R-matrix, Hecke structure, wedge vector, L-operators."""

import ast
import random
import sys
from fractions import Fraction
from itertools import permutations
from math import isqrt

import pytest
from test_frt import cg_twist, gl4_with_beta
from test_linalg import record_embeddings

import qdq.linalg
import qdq.rmatrix
import qdq.twist
from qdq.errors import NonRepresentableExponentError, WrongWedgeDimensionError
from qdq.linalg import (
    Matrix,
    TensorIndexing,
    first_mismatch,
    flip_perm,
    gauss_invert,
    leg_embed,
)
from qdq.frt import verify_factorization
from qdq.quasidet import NCSquare
from qdq.report import mismatch_witness
from qdq.rmatrix import (
    cartan_exp,
    hecke_check,
    l_minus,
    l_plus,
    r_hat,
    rll_sides,
    standard_r,
    wedge_coefficients,
    wedge_top,
    weight_exp,
    ybe_check,
)
from qdq.scalars import ScalarField

F = ScalarField(1)


def inversions(perm):
    n = len(perm)
    return sum(
        1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b]
    )


def test_standard_r_n1():
    r = standard_r(1, F)
    assert r == Matrix.diag([F.q], F)


def test_standard_r_n2_entries():
    r = standard_r(2, F)
    q = F.q
    lam = q - F.q_inv
    z, o = F.zero, F.one
    want = Matrix(
        4,
        4,
        [
            [q, z, z, z],
            [z, o, lam, z],
            [z, z, o, z],
            [z, z, z, q],
        ],
        F,
    )
    assert r == want


def test_standard_r_classical_limit():
    for n in (2, 3):
        r = standard_r(n, F)
        vals = r.evaluate(1)
        for i in range(n * n):
            for j in range(n * n):
                assert vals[i][j] == (1 if i == j else 0)


def test_r_hat_actions_n2():
    r = standard_r(2, F)
    rh = r_hat(r)
    ti = TensorIndexing(2, 2)
    c12, c21 = ti.to_linear((1, 2)), ti.to_linear((2, 1))
    # Rhat(v1 v2) = v2 v1
    assert rh.entries[c21][c12].is_one()
    assert all(not rh.entries[i][c12] for i in range(4) if i != c21)
    # Rhat(v2 v1) = v1 v2 + (q - 1/q) v2 v1
    assert rh.entries[c12][c21].is_one()
    assert rh.entries[c21][c21] == F.q - F.q_inv
    # Rhat(v_a v_a) = q v_a v_a
    for a in (1, 2):
        d = ti.to_linear((a, a))
        assert rh.entries[d][d] == F.q
    p = flip_perm(2, F)
    assert p * p * r == r


def test_ybe_pass_small():
    for n in (2, 3, 4):
        rep = ybe_check(standard_r(n, F))
        assert rep.passed, rep.witness


def generic_r():
    rng = random.Random(4)
    m = Matrix(
        4,
        4,
        [[F.from_rational(rng.randint(1, 9)) for _ in range(4)] for _ in range(4)],
        F,
    )
    return m


def test_ybe_fails_generic():
    rep = ybe_check(generic_r())
    assert not rep.passed
    assert rep.witness and "coords" in rep.witness
    assert rep.witness["lhs"] != rep.witness["rhs"]


def literal_ybe_sides(r):
    """Oracle: R12 R13 R23 and R23 R13 R12 written out on V^(x)3."""
    n = isqrt(r.rows)
    r12, r13, r23 = (leg_embed(r, legs, n, 3) for legs in ((1, 2), (1, 3), (2, 3)))
    return r12 * r13 * r23, r23 * r13 * r12


def perturbed_r(n, row, col):
    r = standard_r(n, F)
    r.entries[row][col] = r.entries[row][col] + F.q
    return r


@pytest.mark.parametrize(
    "make",
    [generic_r, lambda: perturbed_r(2, 1, 2), lambda: perturbed_r(3, 5, 2)],
    ids=["generic", "std2-perturbed", "std3-perturbed"],
)
def test_ybe_witness_is_the_literal_first_mismatch(make):
    r = make()
    lhs, rhs = literal_ybe_sides(r)
    loc = first_mismatch(lhs, rhs)
    assert loc is not None
    rep = ybe_check(r)
    assert not rep.passed and rep.witness == mismatch_witness(loc)
    # ybe is the k = 1 RLL relation of L+ = R
    assert rll_sides(r, l_plus(r, 1), isqrt(r.rows), 1) == (lhs, rhs)


def test_rll_sides_embed_each_factor_once(monkeypatch):
    r = standard_r(2, F)
    a = l_plus(r, 2)
    made = record_embeddings(monkeypatch)
    lhs, rhs = rll_sides(r, a, 2, 2)
    assert [(id(op), legs, k) for op, legs, k in made] == [
        (id(r), (1, 2), 4),
        (id(a), (1, 3, 4), 4),
        (id(a), (2, 3, 4), 4),
    ]
    assert lhs == rhs


def test_hecke_dims():
    for n, dims in ((2, (3, 1)), (3, (6, 3)), (4, (10, 6))):
        r = standard_r(n, F)
        rep = hecke_check(r_hat(r))
        assert rep.passed
        assert rep.details["eigenspace_dims"] == dims
        assert rep.details["expected_dims"] == dims


def test_hecke_fails_for_identity():
    rep = hecke_check(Matrix.identity(4, F))
    assert not rep.passed


def test_hecke_fails_for_degenerate_braidings():
    # q Id and -1/q Id satisfy the quadratic relation, one eigenspace empty
    ident = Matrix.identity(4, F)
    for rhat, dims in ((ident.scale(F.q), (4, 0)), (ident.scale(-F.q_inv), (0, 4))):
        rep = hecke_check(rhat)
        assert not rep.passed
        assert rep.witness == {"eigenspace_dims": dims, "expected_dims": (3, 1)}


def test_wedge_n2():
    r = standard_r(2, F)
    w = wedge_top(r_hat(r), 2)
    ti = TensorIndexing(2, 2)
    assert w[ti.to_linear((1, 2))].is_one()
    assert w[ti.to_linear((2, 1))] == -F.q_inv
    assert all(not w[ti.to_linear((a, a))] for a in (1, 2))


def test_antisymmetrizer_kernel_direct():
    # kernel_basis(Rhat + 1/q), solved independently: the 4x4 system pins
    # the single vector v1 v2 - 1/q v2 v1
    from qdq.linalg import kernel_basis

    r = standard_r(2, F)
    m = r_hat(r) + Matrix.identity(4, F).scale(F.q_inv)
    basis = kernel_basis(m)
    assert len(basis) == 1
    v = basis[0]
    assert [str(c) for c in v] == ["0", "1", str(-F.q_inv), "0"]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_wedge_coefficients_are_signed_q_powers(n):
    # oracle: independent inversion count over the permutation basis
    r = standard_r(n, F)
    w = wedge_top(r_hat(r), n)
    coeffs = wedge_coefficients(w, n)
    assert len(coeffs) == len(list(permutations(range(n))))
    mq = -F.q_inv
    for perm in permutations(range(1, n + 1)):
        want = F.one
        for _ in range(inversions(perm)):
            want = want * mq
        assert coeffs[perm] == want
    # the reversal has coefficient (-1/q)^(n choose 2)
    rev = tuple(range(n, 0, -1))
    assert coeffs[rev] == mq ** (n * (n - 1) // 2)


def test_wedge_wrong_dimension_detected():
    with pytest.raises(WrongWedgeDimensionError):
        wedge_top(Matrix.zeros(4, 4, F), 2)


def braidings():
    """The standard R for n = 2, 3, then twisted R_J: Cremmer-Gervais gl3
    and gl4 1->3 with a nonzero beta."""
    return [standard_r(2, F), standard_r(3, F), cg_twist().r_j, gl4_with_beta().r_j]


def test_l_plus_minus_flatten_identities():
    for r in braidings():
        assert l_plus(r, 1) == r
        p = flip_perm(isqrt(r.rows), r.field)
        assert l_minus(r, 1) == p * gauss_invert(r) * p


def test_braiding_layer_imports_nothing_from_quasidet():
    # R, R_J and L+- are plain operators; a caller that wants blocks makes them
    for mod in (qdq.rmatrix, qdq.twist):
        names = []
        for node in ast.walk(ast.parse(open(mod.__file__).read())):
            if isinstance(node, ast.ImportFrom):
                names += [node.module or "", *(alias.name for alias in node.names)]
            elif isinstance(node, ast.Import):
                names += [alias.name for alias in node.names]
        assert not [name for name in names if "quasidet" in name], mod.__name__


def test_l_plus_minus_blocks_n2():
    r = standard_r(2, F)
    lam = F.q - F.q_inv
    lp = NCSquare.from_flat(l_plus(r, 1), 2)
    assert lp.entries[0][0] == Matrix.diag([F.q, F.one], F)
    assert lp.entries[1][1] == Matrix.diag([F.one, F.q], F)
    assert lp.entries[1][0].is_zero()
    # off-diagonal block carries the lowering matrix unit of the second leg
    assert lp.entries[0][1] == Matrix.unit(2, 2, 2, 1, F, lam)
    lm = NCSquare.from_flat(l_minus(r, 1), 2)
    assert lm.entries[0][0] == Matrix.diag([F.q_inv, F.one], F)
    assert lm.entries[1][1] == Matrix.diag([F.one, F.q_inv], F)
    assert lm.entries[0][1].is_zero()
    assert lm.entries[1][0] == Matrix.unit(2, 2, 1, 2, F, -lam)


def test_block_triangularity_untwisted():
    for n in (2, 3):
        r = standard_r(n, F)
        lp = NCSquare.from_flat(l_plus(r, 1), n)
        lm = NCSquare.from_flat(l_minus(r, 1), n)
        for i in range(n):
            for j in range(n):
                if i > j:
                    assert lp.entries[i][j].is_zero()
                if i < j:
                    assert lm.entries[i][j].is_zero()


def test_l_plus_hexagon_k2():
    # L+ at k=2 is R_{02} R_{01} as an operator on V x V x V
    for r in braidings():
        n = isqrt(r.rows)
        r02 = leg_embed(r, (1, 3), n, 3)
        r01 = leg_embed(r, (1, 2), n, 3)
        assert l_plus(r, 2) == r02 * r01
        p = flip_perm(n, r.field)
        rt = p * gauss_invert(r) * p
        rt02 = leg_embed(rt, (1, 3), n, 3)
        rt01 = leg_embed(rt, (1, 2), n, 3)
        assert l_minus(r, 2) == rt02 * rt01


def test_only_r_hat_conjugates_by_the_flip(monkeypatch):
    # R_J and L- place their operators by leg order; the flip is R-hat's
    # left factor and nothing else in a battery
    real = qdq.linalg.flip_perm
    callers = []

    def recording(n, field):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(n, field)

    for name, mod in list(sys.modules.items()):
        if name.startswith("qdq") and getattr(mod, "flip_perm", None) is real:
            monkeypatch.setattr(mod, "flip_perm", recording)
    assert verify_factorization(gl4_with_beta()).passed
    assert callers and set(callers) == {"r_hat"}


def test_cartan_exp():
    n = 3
    zero_grid = [[0] * n for _ in range(n)]
    assert cartan_exp(zero_grid, F) == Matrix.identity(9, F)
    delta = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    got = cartan_exp(delta, F)
    r = standard_r(n, F)
    for idx in range(9):
        assert got.entries[idx][idx] == r.entries[idx][idx]
    f2 = ScalarField(2)
    half = [[Fraction(0)] * 2 for _ in range(2)]
    half[0][1] = Fraction(1, 2)
    m = cartan_exp(half, f2)
    ti = TensorIndexing(2, 2)
    assert m.entries[ti.to_linear((1, 2))][ti.to_linear((1, 2))] == f2.s
    with pytest.raises(NonRepresentableExponentError):
        cartan_exp(half, F)


def test_weight_exp():
    assert weight_exp([1, 1], 1, F) == Matrix.diag([F.q, F.q], F)
    assert weight_exp([0, 0, 0], 2, F) == Matrix.identity(9, F)
    f2 = ScalarField(2)
    m = weight_exp([Fraction(1, 2), 0, Fraction(-1, 2)], 1, f2)
    assert m == Matrix.diag([f2.s, f2.one, f2.s.inv()], f2)
    # weights add over tensor factors
    m2 = weight_exp([1, -1], 2, F)
    ti = TensorIndexing(2, 2)
    assert m2.entries[ti.to_linear((1, 2))][ti.to_linear((1, 2))].is_one()
    assert m2.entries[ti.to_linear((1, 1))][ti.to_linear((1, 1))] == F.q * F.q
