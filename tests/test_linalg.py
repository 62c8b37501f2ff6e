"""Matrices over Q(s): kron, leg embeddings, exact inversion, kernels."""

import random
from fractions import Fraction
from itertools import product

import pytest
from dense_elimination import invert_grid as dense_invert_grid
from dense_elimination import rref_rows as dense_rref_rows
from dense_elimination import solve_particular as dense_solve_particular

import qdq.linalg
from qdq.errors import SingularMatrixError, WrongWedgeDimensionError
from qdq.linalg import (
    Matrix,
    TensorIndexing,
    first_mismatch,
    flip_perm,
    gauss_invert,
    invert_grid,
    kernel_basis,
    kron,
    kernel_basis_grid,
    _row_times,
    leg_embed,
    leg_products,
    solve_particular,
    sparse_kernel,
)
from qdq.quasidet import NCSquare
from qdq.report import equality_report
from qdq.rmatrix import r_hat, wedge_top
from qdq.scalars import ScalarField
from qdq.twist import BDTriple, build_twist, untwisted

F = ScalarField(1)


def rand_matrix(rng, n, field=F, lo=-4, hi=4):
    return Matrix(
        n,
        n,
        [
            [field.from_rational(rng.randint(lo, hi)) for _ in range(n)]
            for _ in range(n)
        ],
        field,
    )


def rand_ratfunc(rng, field, deg=3):
    num = [rng.randint(-3, 3) for _ in range(rng.randint(1, deg + 1))]
    den = [0] * rng.randint(0, 2) + [1]
    return field.from_coeffs(num, den)


def test_tensor_indexing_roundtrip():
    ti = TensorIndexing(3, 2)
    assert ti.to_linear((1, 1)) == 0
    assert ti.to_linear((1, 2)) == 1
    assert ti.to_linear((2, 1)) == 3
    for idx in range(ti.dim):
        assert ti.to_linear(ti.from_linear(idx)) == idx


def test_kron_identity_and_units():
    i2 = Matrix.identity(2, F)
    assert kron(i2, i2) == Matrix.identity(4, F)
    e12 = Matrix.unit(2, 2, 1, 2, F)
    e21 = Matrix.unit(2, 2, 2, 1, F)
    m = kron(e12, e21)
    ti = TensorIndexing(2, 2)
    # single unit entry: row of v1 (x) v2, column of v2 (x) v1
    assert m.entries[ti.to_linear((1, 2))][ti.to_linear((2, 1))].is_one()
    assert sum(1 for r in m.entries for e in r if e) == 1


def test_kron_diag_ordering():
    q = F.q
    a = Matrix.diag([q, F.one], F)
    b = Matrix.diag([F.one, q], F)
    got = kron(a, b)
    assert got == Matrix.diag([q, q * q, F.one, q], F)


def test_kron_mixed_product_rule():
    rng = random.Random(7)
    for _ in range(10):
        a, b, c, d = (rand_matrix(rng, 2) for _ in range(4))
        assert kron(a, b) * kron(c, d) == kron(a * c, b * d)


def test_flip_perm():
    assert flip_perm(1, F) == Matrix.identity(1, F)
    p2 = flip_perm(2, F)
    assert p2 * p2 == Matrix.identity(4, F)
    p3 = flip_perm(3, F)
    tr = F.zero
    for i in range(9):
        tr = tr + p3.entries[i][i]
    assert tr == 3  # fixed points are the v_i (x) v_i


def test_leg_embed_basic():
    op = flip_perm(2, F)
    assert leg_embed(op, (1, 2), 2, 2) == op
    # flip on legs (2,3) of three qubits maps v_a v_b v_c -> v_a v_c v_b
    full = leg_embed(op, (2, 3), 2, 3)
    ti = TensorIndexing(2, 3)
    for a in (1, 2):
        for b in (1, 2):
            for c in (1, 2):
                col = ti.to_linear((a, b, c))
                row = ti.to_linear((a, c, b))
                assert full.entries[row][col].is_one()


def test_leg_embed_rejects_bad_legs():
    op = Matrix.identity(2, F)
    with pytest.raises(ValueError):
        leg_embed(op, (1, 1), 2, 3)
    with pytest.raises(ValueError):
        leg_embed(op, (4,), 2, 3)


def test_leg_embed_disjoint_commute():
    # brute force over random operators on disjoint legs
    rng = random.Random(21)
    for _ in range(6):
        a = rand_matrix(rng, 4)  # acts on legs (1,3) of 2^3
        b = rand_matrix(rng, 2)  # acts on leg 2
        ea = leg_embed(a, (1, 3), 2, 3)
        eb = leg_embed(b, (2,), 2, 3)
        assert ea * eb == eb * ea


def test_leg_embed_order_matters():
    rng = random.Random(3)
    a = rand_matrix(rng, 4)
    swapped = leg_embed(a, (2, 1), 2, 2)
    p = flip_perm(2, F)
    assert swapped == p * a * p


def dense_leg_embed(op, legs, n, k):
    """Oracle: the dense embedding, one grid cell per nonzero and offset."""
    legs = tuple(legs)
    if len(set(legs)) != len(legs):
        raise ValueError(f"duplicate legs in {legs}")
    if any(not 1 <= p <= k for p in legs):
        raise ValueError(f"legs {legs} out of range 1..{k}")
    if op.rows != n ** len(legs) or op.cols != n ** len(legs):
        raise ValueError("operator size does not match the named legs")
    out = Matrix.zeros(n**k, n**k, op.field)
    full, small = TensorIndexing(n, k), TensorIndexing(n, len(legs))
    for row in full.all_multis():
        for col in full.all_multis():
            if any(row[p - 1] != col[p - 1] for p in range(1, k + 1) if p not in legs):
                continue
            r = small.to_linear([row[p - 1] for p in legs])
            c = small.to_linear([col[p - 1] for p in legs])
            out.entries[full.to_linear(row)][full.to_linear(col)] = op.entries[r][c]
    return out


def record_embeddings(monkeypatch):
    """The list of (op, legs, k) that the leg kernel fills, one entry per
    embedding it makes."""
    made = []
    inner = qdq.linalg.leg_rows

    def recording(op, legs, n, k):
        made.append((op, tuple(legs), k))
        return inner(op, legs, n, k)

    monkeypatch.setattr(qdq.linalg, "leg_rows", recording)
    return made


def rand_operator(rng, dim, field):
    """Sparse random operator with a nonzero diagonal, so chains of them
    keep nonzero products."""
    return Matrix(
        dim,
        dim,
        [
            [
                (rand_ratfunc(rng, field) or field.one)
                if i == j or rng.random() < 0.2
                else field.zero
                for j in range(dim)
            ]
            for i in range(dim)
        ],
        field,
    )


def dense_chain(chain, n, k):
    """Oracle: each factor embedded densely, multiplied by Matrix.__mul__."""
    out = None
    for op, legs in chain:
        emb = dense_leg_embed(op, legs, n, k)
        out = emb if out is None else out * emb
    return out


@pytest.mark.parametrize("root_order", [1, 2])
def test_leg_products_match_dense_embeddings_and_products(root_order):
    field = ScalarField(root_order)
    rng = random.Random(90 + root_order)
    named = {2: [(2, 1)], 3: [(3, 1), (2, 1), (1, 3)], 4: [(1, 3, 4), (4, 2), (3, 1)]}
    for k in (2, 2, 3, 3, 4, 4):
        n = 3 if k == 2 else 2
        chains = []
        for length in (1, 2, 3, 4):
            chain = []
            for _ in range(length):
                if rng.random() < 0.5:
                    legs = rng.choice(named[k])
                else:
                    legs = tuple(rng.sample(range(1, k + 1), rng.randint(1, min(k, 3))))
                dim = n ** len(legs)
                chain.append((rand_operator(rng, dim, field), legs))
            chains.append(chain)
        # a factor repeated within a chain and across chains
        chains.append([chains[1][0], chains[2][1], chains[1][0]])
        got = leg_products(chains, n, k)
        assert len(got) == len(chains)
        for chain, product_ in zip(chains, got):
            assert product_ == dense_chain(chain, n, k), (k, [legs for _, legs in chain])
            assert not product_.is_zero()
        # a one-factor chain is leg_embed
        for op, legs in chains[0] + chains[3]:
            assert leg_embed(op, legs, n, k) == dense_leg_embed(op, legs, n, k)


def test_leg_products_drop_sums_that_cancel():
    rng = random.Random(13)
    for field in (F, ScalarField(2)):
        u, v, w = (rand_ratfunc(rng, field) or field.one for _ in range(3))
        a = Matrix(2, 2, [[u, u], [v, v]], field)
        b = Matrix(2, 2, [[w, -w], [-w, w]], field)  # a b = 0
        c = rand_sparse(rng, 4, 4, field)
        half = Matrix(2, 2, [[field.one, -field.one], [field.zero, field.one]], field)
        chains = [
            [(a, (1,)), (c, (3, 2)), (b, (1,))],
            [(a, (2,)), (b, (2,))],
            [(a, (3,)), (half, (3,)), (c, (1, 3))],
        ]
        zero, zero2, partial = leg_products(chains, 2, 3)
        assert zero.is_zero() and zero2.is_zero()
        assert _row_times({0: u, 1: u}, [{0: w, 1: -w}, {0: -w, 1: w}]) == {}
        assert zero == dense_chain(chains[0], 2, 3)
        assert partial == dense_chain(chains[2], 2, 3)


@pytest.mark.parametrize(
    "legs, size, k",
    [((1, 1), 4, 3), ((2, 3, 2), 8, 3), ((0,), 2, 3), ((4,), 2, 3), ((1, 5), 4, 4), ((1, 2), 2, 3)],
    ids=["duplicate", "duplicate-3", "below-range", "above-range", "above-range-2", "size"],
)
def test_leg_products_reject_bad_legs_as_leg_embed(legs, size, k):
    op = Matrix.identity(size, F)
    with pytest.raises(ValueError) as oracle:
        dense_leg_embed(op, legs, 2, k)
    for call in (
        lambda: leg_embed(op, legs, 2, k),
        lambda: leg_products([[(Matrix.identity(2, F), (1,)), (op, legs)]], 2, k),
    ):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == str(oracle.value)


def test_gauss_invert_small():
    assert gauss_invert(Matrix.identity(3, F)) == Matrix.identity(3, F)
    d = Matrix.diag([F.q, F.q - F.q_inv], F)
    inv = gauss_invert(d)
    assert inv == Matrix.diag([F.q_inv, (F.q - F.q_inv).inv()], F)
    assert inv.entries[1][1] == F.from_coeffs([0, 1], [-1, 0, 1])  # s/(s^2-1)
    rank1 = Matrix(
        2,
        2,
        [
            [F.from_rational(1), F.from_rational(2)],
            [F.from_rational(2), F.from_rational(4)],
        ],
        F,
    )
    with pytest.raises(SingularMatrixError):
        gauss_invert(rank1)


def test_gauss_invert_multiply_back_random():
    rng = random.Random(42)
    done = 0
    while done < 170:
        n = rng.randint(1, 12)
        m = rand_matrix(rng, n)
        try:
            inv = gauss_invert(m)
        except SingularMatrixError:
            continue
        assert (m * inv).is_identity()
        assert (inv * m).is_identity()
        done += 1


def test_gauss_invert_ratfunc_random():
    rng = random.Random(11)
    f = ScalarField(2)
    done = 0
    while done < 30:
        n = rng.randint(2, 6)
        m = Matrix(
            n, n, [[rand_ratfunc(rng, f) for _ in range(n)] for _ in range(n)], f
        )
        try:
            inv = gauss_invert(m)
        except SingularMatrixError:
            continue
        assert (m * inv).is_identity()
        done += 1


def test_kernel_basis():
    assert kernel_basis(Matrix.identity(4, F)) == []
    z = Matrix.zeros(3, 3, F)
    basis = kernel_basis(z)
    assert len(basis) == 3
    for i, v in enumerate(basis):
        assert v[i].is_one()
        assert sum(1 for c in v if c) == 1
    # one relation: x - 2y + z = 0
    m = Matrix(1, 3, [[F.from_rational(1), F.from_rational(-2), F.from_rational(1)]], F)
    basis = kernel_basis(m)
    assert len(basis) == 2
    for v in basis:
        lead = next(c for c in v if c)
        assert lead.is_one()
        s = v[0] - 2 * v[1] + v[2]
        assert not s


def test_kernel_members_annihilated():
    rng = random.Random(5)
    for _ in range(10):
        m = Matrix(
            3,
            5,
            [[F.from_rational(rng.randint(-2, 2)) for _ in range(5)] for _ in range(3)],
            F,
        )
        for v in kernel_basis(m):
            assert (m * Matrix(5, 1, [[c] for c in v], F)).is_zero()


def dense_kernel(rows, ncols, zero, one):
    """Oracle: the dense reduced-echelon kernel (rref_rows, first-nonzero
    pivoting) that sparse_kernel replaced, with the same conventions."""
    work = [list(r) for r in rows]
    pivots = dense_rref_rows(work, ncols)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [zero] * ncols
        v[f] = one
        for r, pc in enumerate(pivots):
            if work[r][f]:
                v[pc] = -work[r][f]
        lead = next(c for c in v if c)
        v = [c / lead for c in v]
        basis.append(v)
    return basis


def random_sparse_system(rng, value):
    """Sparse rows over columns split at random into up to three groups that
    no row crosses; a column is left out of every row with odds 1/6."""
    ncols = rng.randint(1, 9)
    groups = rng.randint(1, 3)
    group = [rng.randrange(groups) for _ in range(ncols)]
    used = [c for c in range(ncols) if rng.randrange(6)]
    rows = []
    for _ in range(rng.randint(0, 11)):
        g = rng.randrange(groups)
        cols = [c for c in used if group[c] == g]
        if cols:
            pick = rng.sample(cols, rng.randint(1, min(3, len(cols))))
            rows.append({c: value(rng) for c in sorted(pick)})
    return rows, ncols, len({group[c] for row in rows for c in row}), len(used) < ncols


def _nonzero_fraction(rng):
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))


def _nonzero_ratfunc(rng):
    num = [rng.choice([-2, -1, 1, 2]), rng.randint(-2, 2)]
    return F.from_coeffs(num, [rng.randint(1, 2), rng.randint(0, 1)])


_FIELDS = pytest.mark.parametrize(
    "value, zero, one",
    [(_nonzero_fraction, Fraction(0), Fraction(1)), (_nonzero_ratfunc, F.zero, F.one)],
    ids=["fraction", "ratfunc"],
)


@_FIELDS
def test_sparse_kernel_matches_dense_oracle(value, zero, one):
    rng = random.Random(31)
    dims, split, empty = set(), False, False
    for _ in range(150):
        rows, ncols, groups, has_empty = random_sparse_system(rng, value)
        dense = [[r.get(c, zero) for c in range(ncols)] for r in rows]
        want = dense_kernel(dense, ncols, zero, one)
        assert sparse_kernel([dict(r) for r in rows], ncols, zero, one) == want
        assert kernel_basis_grid(dense, ncols, zero, one) == want
        dims.add(min(len(want), 2))
        split |= groups > 1
        empty |= has_empty
    assert dims == {0, 1, 2} and split and empty


@pytest.mark.parametrize(
    "make",
    [
        lambda: untwisted(2),
        lambda: untwisted(3),
        lambda: build_twist(BDTriple.make(3, [1], [2], {1: 2})),
        lambda: build_twist(BDTriple.make(4, [1], [3], {1: 3})),
    ],
    ids=["gl2", "gl3", "gl3-cg", "gl4-1to3"],
)
def test_wedge_top_matches_dense_stacked_kernel(make):
    tw = make()
    n, f = tw.n, tw.field
    rhat = r_hat(tw.r_j)
    c = rhat + Matrix.identity(n * n, f).scale(f.q_inv)
    stacked = [row for i in range(1, n) for row in leg_embed(c, (i, i + 1), n, n).entries]
    assert dense_kernel(stacked, n**n, f.zero, f.one) == [wedge_top(rhat, n)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_wedge_rows_cover_every_leg_pair_and_offset(n):
    # with C = Rhat + 1/q = E_11 (x) E_11 the joint kernel is spanned by the
    # basis vectors with no two adjacent factors v1 v1; a coordinate with one
    # such pair is pinned by one row only, so a missing row shows in the dim
    rhat = Matrix.unit(n * n, n * n, 1, 1, F) - Matrix.identity(n * n, F).scale(F.q_inv)
    want = sum(
        all(pair != (0, 0) for pair in zip(idx, idx[1:]))
        for idx in product(range(n), repeat=n)
    )
    with pytest.raises(WrongWedgeDimensionError) as exc:
        wedge_top(rhat, n)
    assert exc.value.dim == want


def test_block_square_flatten_roundtrip():
    rng = random.Random(9)
    blocks = [[rand_matrix(rng, 2) for _ in range(3)] for _ in range(3)]
    bm = NCSquare(blocks, F)
    flat = bm.flatten()
    assert (flat.rows, flat.cols) == (6, 6)
    assert flat.entries[3][5] == blocks[1][2].entries[1][1]
    assert NCSquare.from_flat(flat, 3) == bm
    with pytest.raises(ValueError):
        NCSquare.from_flat(flat, 4)


def test_scalar_square_flatten_roundtrip():
    rng = random.Random(11)
    a = rand_matrix(rng, 3)
    x = NCSquare([list(r) for r in a.entries], F)
    assert x.flatten() == a
    assert NCSquare(x.flatten().entries, F) == x
    inv = NCSquare(gauss_invert(x.flatten()).entries, F)
    assert x.matmul(inv) == NCSquare(Matrix.identity(3, F).entries, F)


def test_block_invert_matches_flat_invert():
    rng = random.Random(13)
    done = 0
    while done < 6:
        blocks = [[rand_matrix(rng, 2) for _ in range(2)] for _ in range(2)]
        bm = NCSquare(blocks, F)
        try:
            inv = NCSquare.from_flat(gauss_invert(bm.flatten()), 2)
        except SingularMatrixError:
            continue
        assert bm.matmul(inv).flatten().is_identity()
        assert inv.matmul(bm).flatten().is_identity()
        done += 1


def test_block_invert_blockdiag_and_singular():
    rng = random.Random(17)
    a = rand_matrix(rng, 2)
    b = rand_matrix(rng, 2)
    z = Matrix.zeros(2, 2, F)
    bm = NCSquare([[a, z], [z, b]], F)
    inv = NCSquare.from_flat(gauss_invert(bm.flatten()), 2)
    assert inv.entries[0][0] == gauss_invert(a)
    assert inv.entries[1][1] == gauss_invert(b)
    assert inv.entries[0][1].is_zero() and inv.entries[1][0].is_zero()
    zero = NCSquare([[z, z], [z, z]], F)
    with pytest.raises(SingularMatrixError):
        gauss_invert(zero.flatten())


def test_block_product_matches_flat_product():
    rng = random.Random(23)
    x = NCSquare([[rand_matrix(rng, 2) for _ in range(2)] for _ in range(2)], F)
    y = NCSquare([[rand_matrix(rng, 2) for _ in range(2)] for _ in range(2)], F)
    # oracle: the block loop sum_k x_ik y_kj that the flat product replaced
    a, b = x.entries, y.entries
    want = [[a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2)] for i in range(2)]
    assert x.matmul(y) == NCSquare(want, F)


def rand_sparse(rng, rows, cols, field=F):
    """Random grid, mostly zeros, with whole zero rows and columns."""
    dead_r = set(rng.sample(range(rows), rows // 3))
    dead_c = set(rng.sample(range(cols), cols // 3))
    return Matrix(
        rows,
        cols,
        [
            [
                rand_ratfunc(rng, field)
                if i not in dead_r and j not in dead_c and rng.random() < 0.3
                else field.zero
                for j in range(cols)
            ]
            for i in range(rows)
        ],
        field,
    )


def test_sparse_products_match_naive_loops():
    # oracle: the plain triple loop and entrywise sum and scale, zeros included
    rng = random.Random(31)
    for rows, inner, cols in ((5, 7, 3), (6, 6, 6), (1, 4, 8), (7, 2, 5)):
        a = rand_sparse(rng, rows, inner)
        b = rand_sparse(rng, inner, cols)
        want = [
            [sum((a.entries[i][k] * b.entries[k][j] for k in range(inner)), F.zero)
             for j in range(cols)]
            for i in range(rows)
        ]
        assert (a * b).entries == want
        c = rand_sparse(rng, rows, inner)
        assert (a + c).entries == [
            [x + y for x, y in zip(ra, rc)] for ra, rc in zip(a.entries, c.entries)
        ]
        k = rand_ratfunc(rng, F) or F.s
        for factor in (k, F.zero):
            assert a.scale(factor).entries == [[factor * x for x in r] for r in a.entries]


def test_sparse_sums_and_differences_match_entrywise_arithmetic():
    # oracle: RatFunc + and - on every entry pair, zeros included
    rng = random.Random(37)
    for field in (F, ScalarField(2)):
        for rows, cols in ((5, 7), (6, 6), (1, 4), (8, 3)):
            a, b = rand_sparse(rng, rows, cols, field), rand_sparse(rng, rows, cols, field)
            pairs = [list(zip(ra, rb)) for ra, rb in zip(a.entries, b.entries)]
            assert (a + b).entries == [[x + y for x, y in row] for row in pairs]
            assert (a - b).entries == [[x - y for x, y in row] for row in pairs]
            assert (a - a).is_zero() and (a - b) + b == a
        wide, tall = rand_sparse(rng, 2, 3, field), rand_sparse(rng, 3, 2, field)
        with pytest.raises(ValueError):
            wide + tall
        with pytest.raises(ValueError):
            wide - tall


def test_first_mismatch():
    a = Matrix.identity(2, F)
    b = a.copy()
    assert first_mismatch(a, b) is None
    b.entries[1][0] = F.one
    loc = first_mismatch(a, b)
    assert loc[:2] == (1, 0)


def test_shape_mismatch_has_its_own_witness():
    a, b = Matrix.identity(2, F), Matrix.zeros(2, 3, F)
    assert first_mismatch(a, b) == (None, None, (2, 2), (2, 3))
    rep = equality_report("probe", {}, a, b)
    assert not rep.passed
    assert rep.witness == {"coords": [], "shape": {"lhs": (2, 2), "rhs": (2, 3)}}
    # an entry mismatch at (0, 0) still reads as one
    rep = equality_report("probe", {}, a, Matrix.zeros(2, 2, F))
    assert rep.witness == {"coords": [0, 0], "lhs": F.one, "rhs": F.zero}


def dict_rows(rows):
    """Dense rows as the {column: value} rows solve_particular takes."""
    return [{j: x for j, x in enumerate(r) if x} for r in rows]


def test_solve_particular():
    rows = dict_rows([[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]])
    zero, one = Fraction(0), Fraction(1)
    x = solve_particular(rows, 2, [Fraction(4), Fraction(0)], zero, one)
    assert x == [Fraction(2), Fraction(2)]
    rows = dict_rows([[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]])
    assert solve_particular(rows, 2, [Fraction(1), Fraction(3)], zero, one) is None
    # underdetermined: free variable pinned to zero
    rows = dict_rows([[Fraction(1), Fraction(1)]])
    assert solve_particular(rows, 2, [Fraction(5)], zero, one) == [
        Fraction(5),
        Fraction(0),
    ]
    # no equations: every variable is free
    assert solve_particular([], 3, [], zero, one) == [zero] * 3


# ---------------------------------------------------------------------------
# Differential tests against the dense first-nonzero elimination
# ---------------------------------------------------------------------------

def _sparse_value(rng, value, zero):
    return value(rng) if rng.randrange(3) else zero


def _random_square(rng, value, zero, n):
    """A random n x n grid; about one in two is made singular by a zero
    column or by a row equal to a multiple of another row."""
    rows = [[_sparse_value(rng, value, zero) for _ in range(n)] for _ in range(n)]
    kind = rng.randrange(4)
    if kind == 0:
        c = rng.randrange(n)
        for row in rows:
            row[c] = zero
    elif kind == 1 and n > 1:
        i, k = rng.sample(range(n), 2)
        f = value(rng)
        rows[i] = [f * x for x in rows[k]]
    return rows


def _inverse_or_message(invert, rows, zero, one):
    try:
        return invert([list(r) for r in rows], zero, one)
    except SingularMatrixError as exc:
        return str(exc)


@_FIELDS
def test_invert_grid_matches_dense_oracle(value, zero, one):
    rng = random.Random(17)
    messages = set()
    inverted = 0
    for _ in range(120):
        rows = _random_square(rng, value, zero, rng.randint(1, 5))
        want = _inverse_or_message(dense_invert_grid, rows, zero, one)
        assert _inverse_or_message(invert_grid, rows, zero, one) == want
        if isinstance(want, str):
            messages.add(want)
        else:
            inverted += 1
    assert inverted >= 20 and len(messages) >= 3


@_FIELDS
def test_solve_particular_matches_dense_oracle(value, zero, one):
    rng = random.Random(23)
    seen = set()
    for _ in range(150):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
        rows = [
            [_sparse_value(rng, value, zero) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        if rng.randrange(2):
            rows[rng.randrange(nrows)] = [zero] * ncols
        if rng.randrange(2):
            x0 = [_sparse_value(rng, value, zero) for _ in range(ncols)]
            rhs = [sum((a * b for a, b in zip(r, x0) if a and b), zero) for r in rows]
        else:
            rhs = [_sparse_value(rng, value, zero) for _ in range(nrows)]
        want = dense_solve_particular([list(r) for r in rows], list(rhs), zero)
        sparse = dict_rows(rows)
        before = [dict(r) for r in sparse]
        assert solve_particular(sparse, ncols, rhs, zero, one) == want
        assert sparse == before
        if want is None:
            seen.add("inconsistent")
        else:
            seen.add("consistent")
            if any(not any(r[c] for r in rows) for c in range(ncols)):
                seen.add("free column")
            if any(not any(r) for r in rows):
                seen.add("zero row")
    assert seen == {"inconsistent", "consistent", "free column", "zero row"}


# ---------------------------------------------------------------------------
# Larger systems: 40-80 columns in 8-12 components, mostly +-1 entries, so
# cancellation often removes a column from a row that fill-in later restores
# ---------------------------------------------------------------------------

def _unit_entry(rng, value, one):
    return value(rng) if rng.randrange(5) == 0 else rng.choice([one, -one])


def _groups(rng, size, groups):
    """A random group for each of size positions, every group used."""
    group = list(range(groups)) + [rng.randrange(groups) for _ in range(size - groups)]
    rng.shuffle(group)
    return group


def _component_rows(rng, value, one, nrows, ncols):
    """nrows sparse rows over ncols columns split into 8-12 groups; each row
    lies inside one group and every group holds a row, so no row crosses
    the components and there are at least 8 of them."""
    groups = rng.randint(8, 12)
    members = {}
    for c, g in enumerate(_groups(rng, ncols, groups)):
        members.setdefault(g, []).append(c)
    rows = []
    for g in _groups(rng, nrows, groups):
        cols = members[g]
        pick = rng.sample(cols, min(len(cols), rng.randint(2, 4)))
        rows.append({c: _unit_entry(rng, value, one) for c in sorted(pick)})
    return rows


def _component_square(rng, value, zero, one, n):
    """A block-diagonal n x n grid under random row and column permutations,
    with 8-12 blocks.  Each block is unit triangular in a random order of
    its rows and columns, with sparse off-diagonal entries, so invertible;
    one in three is then made singular."""
    rgroup = _groups(rng, n, rng.randint(8, 12))
    cgroup = list(rgroup)
    rng.shuffle(cgroup)
    cols = {}
    for c, g in enumerate(cgroup):
        cols.setdefault(g, []).append(c)
    rows = [[zero] * n for _ in range(n)]
    seen = {}
    for r, g in enumerate(rgroup):
        k = seen[g] = seen.get(g, -1) + 1
        rows[r][cols[g][k]] = rng.choice([one, -one])
        for c in cols[g][k + 1 :]:
            if rng.randrange(3) == 0:
                rows[r][c] = _unit_entry(rng, value, one)
    kind = rng.randrange(3)
    if kind == 1:
        c = rng.randrange(n)
        for row in rows:
            row[c] = zero
    elif kind == 2:
        a = rng.randrange(n)
        b = rng.choice([r for r in range(n) if rgroup[r] == rgroup[a] and r != a] or [a])
        rows[a] = [-x for x in rows[b]]
    return rows


@_FIELDS
def test_large_sparse_kernel_matches_dense_oracle(value, zero, one):
    rng = random.Random(41)
    dims = []
    for _ in range(12):
        ncols = rng.randint(40, 80)
        rows = _component_rows(rng, value, one, rng.randint(ncols // 2, ncols), ncols)
        dense = [[r.get(c, zero) for c in range(ncols)] for r in rows]
        want = dense_kernel(dense, ncols, zero, one)
        assert sparse_kernel([dict(r) for r in rows], ncols, zero, one) == want
        dims.append(len(want))
    assert min(dims) >= 2 and len(set(dims)) >= 4


@_FIELDS
def test_large_invert_grid_matches_dense_oracle(value, zero, one):
    rng = random.Random(43)
    messages = set()
    inverted = 0
    for _ in range(20):
        rows = _component_square(rng, value, zero, one, rng.randint(40, 80))
        want = _inverse_or_message(dense_invert_grid, rows, zero, one)
        assert _inverse_or_message(invert_grid, rows, zero, one) == want
        if isinstance(want, str):
            messages.add(want)
        else:
            inverted += 1
    assert inverted >= 4 and len(messages) >= 3


@_FIELDS
def test_large_solve_particular_matches_dense_oracle(value, zero, one):
    rng = random.Random(47)
    seen = set()
    for _ in range(12):
        ncols = rng.randint(40, 80)
        sparse = _component_rows(rng, value, one, rng.randint(ncols // 2, ncols), ncols)
        rows = [[r.get(c, zero) for c in range(ncols)] for r in sparse]
        if rng.randrange(2):
            x0 = [_unit_entry(rng, value, one) if rng.randrange(2) else zero for _ in range(ncols)]
            rhs = [sum((a * b for a, b in zip(r, x0) if a and b), zero) for r in rows]
        else:
            rhs = [_unit_entry(rng, value, one) if rng.randrange(3) else zero for _ in rows]
        want = dense_solve_particular([list(r) for r in rows], list(rhs), zero)
        assert solve_particular(dict_rows(rows), ncols, rhs, zero, one) == want
        seen.add("inconsistent" if want is None else "consistent")
    assert seen == {"inconsistent", "consistent"}
