"""The battery after T in rows against its dense route (dense_after_t).

verify_factorization runs once as it stands and once with frt_check,
corner_factors, factors_commute, det_sigma and qdet_coaction replaced in
qdq.frt by the dense oracle.  Both must give the same corner factors, the
same D and reference det_sigma, and the same report JSON apart from its
timings, witnesses included.
"""

import random
from dataclasses import replace
from fractions import Fraction

import dense_after_t
import pytest
from test_acceptance import _without_ms
from test_zero_invariant import collect_row_values

import qdq.frt
from qdq.frt import build_T, frt_check, perturbed, verify_factorization
from qdq.io_json import report_to_json
from qdq.linalg import Matrix, first_mismatch, matrix_rows, rows_mismatch
from qdq.quasidet import NCSquare
from qdq.scalars import ScalarField
from qdq.twist import BDTriple, build_twist, cartan_data, enumerate_triples

H = Fraction(1, 2)
CG = BDTriple.make(3, [1], [2], {1: 2})
CG_THETA = [[0, H, H], [H, 0, H], [0, H, 0]]
DENSE = ("frt_check", "corner_factors", "factors_commute", "det_sigma", "qdet_coaction")


def gl4_with_beta():
    triple = BDTriple.make(4, [1], [3], {1: 3})
    u, v = cartan_data(triple).h0_basis[:2]
    return build_twist(triple, beta=[[H * (u[i] * v[j] - v[i] * u[j]) for j in range(4)]
                                     for i in range(4)])


def battery(monkeypatch, tw, k, dense, model=None):
    """The report JSON without timings, and the factors, D and reference
    det_sigma that the battery computed; model, when given, stands for T."""
    seen = {}
    with monkeypatch.context() as mp:
        if dense:
            for name in DENSE:
                mp.setattr(qdq.frt, name, getattr(dense_after_t, name))
        if model is not None:
            mp.setattr(qdq.frt, "build_T", lambda tw, k1, k2: model)
        for name, key, pick in (
            ("corner_factors", "factors", None),
            ("qdet_coaction", "D", None),
            ("detsigma_consistency", "ref", 1),
        ):
            def spy(*args, inner=getattr(qdq.frt, name), key=key, pick=pick):
                out = inner(*args)
                seen[key] = out if pick is None else out[pick]
                return out

            mp.setattr(qdq.frt, name, spy)
        rep = verify_factorization(tw, *k)
    return _without_ms(report_to_json(rep)), seen


def assert_routes_agree(monkeypatch, tw, k, model=None):
    rows = battery(monkeypatch, tw, k, False, model)
    dense = battery(monkeypatch, tw, k, True, model)
    assert rows[1].keys() == dense[1].keys() == {"factors", "D", "ref"}
    assert rows == dense
    return rows[0]


CENSUS = [t for n in (2, 3, 4) for t in enumerate_triples(n)]


@pytest.mark.parametrize("k", [(1, 1), (2, 1)], ids=["k11", "k21"])
@pytest.mark.parametrize("triple", CENSUS, ids=lambda t: f"n{t.n}-{t.gamma1}-{t.gamma2}")
def test_every_triple_up_to_gl4_agrees_with_the_dense_route(monkeypatch, triple, k):
    assert assert_routes_agree(monkeypatch, build_twist(triple), k)["pass"]


@pytest.mark.parametrize("k", [(1, 1), (2, 1)], ids=["k11", "k21"])
def test_gl4_with_beta_agrees_with_the_dense_route(monkeypatch, k):
    assert assert_routes_agree(monkeypatch, gl4_with_beta(), k)["pass"]


def zero_entry_of_T(m):
    """The first (i, j) whose block T_ij is zero at [1, 1]."""
    return next(
        (i, j)
        for i in range(1, m.n + 1)
        for j in range(1, m.n + 1)
        if not m.t_blocks.rows[i - 1][j - 1][0].get(0)
    )


@pytest.mark.parametrize("at", ["1,1", "2,3", "zero"])
def test_a_perturbed_T_gives_the_dense_frt_witness(monkeypatch, at):
    tw = build_twist(CG, CG_THETA)
    m = build_T(tw)
    i, j = zero_entry_of_T(m) if at == "zero" else map(int, at.split(","))
    if at == "zero":
        assert not m.entry(i, j).entries[0][0]
    bad = perturbed(m, i, j)
    rep = frt_check(bad)
    assert not rep.passed and rep.witness["premise"] == "t_is_product"
    want = dense_after_t.frt_check(bad)
    assert (rep.passed, rep.witness, rep.details) == (want.passed, want.witness, want.details)
    full = assert_routes_agree(monkeypatch, tw, (1, 1), bad)
    assert not full["pass"] and full["witness"]["failed"] == "frt"


def test_a_noncommuting_square_gives_the_dense_commute_witness(monkeypatch):
    # T_11 with its entry (1, 2) shifted: the corner factors stop commuting
    tw = build_twist(CG, CG_THETA)
    m = build_T(tw)
    blocks = [list(row) for row in m.t_blocks.entries]
    blocks[0][0] = blocks[0][0] + Matrix.unit(9, 9, 1, 2, m.field)
    bad = replace(m, t_blocks=NCSquare(blocks, m.field))
    rep = qdq.frt.factors_commute(bad)
    want = dense_after_t.factors_commute(bad)
    assert not rep.passed and "coords" in rep.witness
    assert (rep.passed, rep.witness) == (want.passed, want.witness)
    full = assert_routes_agree(monkeypatch, tw, (1, 1), bad)
    checks = {c["check"]: c for c in full["details"]["checks"]}
    assert not checks["factors-commute"]["pass"]
    assert not checks["det-sigma-consistency"]["pass"]


def test_no_row_stores_a_zero(monkeypatch):
    values = collect_row_values(monkeypatch)
    assert verify_factorization(gl4_with_beta(), 2, 1).passed
    assert values and all(x.num for x in values)


def test_rows_mismatch_is_the_row_major_first_mismatch():
    # pairs that differ in several columns of a row, to and from zero
    rng = random.Random(27)
    f = ScalarField(1)
    values = [f.zero, f.zero, f.zero, f.one, f.s, f.from_rational(Fraction(-1, 2))]
    for _ in range(300):
        a = [[rng.choice(values) for _ in range(6)] for _ in range(5)]
        b = [list(row) for row in a]
        for _ in range(rng.randint(0, 4)):
            b[rng.randrange(5)][rng.randrange(6)] = rng.choice(values)
        a, b = Matrix(5, 6, a, f), Matrix(5, 6, b, f)
        assert rows_mismatch(matrix_rows(a), matrix_rows(b), f.zero) == first_mismatch(a, b)


def test_a_T_of_the_wrong_size_fails_t_is_product_by_its_shape():
    # a T with 2 x 2 blocks where L+ L- acts on 4 x 4 ones: no prefix of
    # the rows may stand for the whole product
    m = build_T(build_twist(BDTriple.make(2, [], [], {})))
    f = m.field
    small = [[m.entry(i, j).entries[0][0] for j in (1, 2)] for i in (1, 2)]
    blocks = [[Matrix(2, 2, [[x, f.zero], [f.zero, x]], f) for x in row] for row in small]
    bad = replace(m, t_blocks=NCSquare(blocks, f))
    rep, want = frt_check(bad), dense_after_t.frt_check(bad)
    assert not rep.passed and rep.witness["premise"] == "t_is_product"
    assert rep.witness["shape"] == {"lhs": (4, 4), "rhs": (8, 8)}
    assert rep.witness == want.witness
