"""Round-trips for every JSON format."""

import hashlib
import json
import random
from fractions import Fraction

from qdq.cli import run
from qdq.frt import build_T
from qdq.io_json import (
    grid_from_json,
    grid_to_json,
    matrix_from_json,
    matrix_to_json,
    ncsquare_from_json,
    ncsquare_to_json,
    ratfunc_from_json,
    ratfunc_to_json,
    report_to_json,
)
from qdq.linalg import Matrix, gauss_invert, kernel_basis
from qdq.errors import SubmatrixSingularError
from qdq.quasidet import (
    NCSquare,
    corner_factors,
    inverse_via_quasiminors,
    quasideterminant,
)
from qdq.report import Report
from qdq.rmatrix import r_hat, standard_r, wedge_top, ybe_check
from qdq.scalars import ScalarField
from qdq.twist import BDTriple, build_twist, enumerate_triples, solve_theta

F = ScalarField(2)


def test_ratfunc_roundtrip():
    for x in (
        F.zero,
        F.one,
        F.q - F.q_inv,
        F.from_coeffs([Fraction(1, 3), -2], [0, 0, 1]),
    ):
        obj = ratfunc_to_json(x)
        json.dumps(obj)  # encodable
        assert ratfunc_from_json(obj, F) == x
    assert ratfunc_to_json(F.zero) == {"num": ["0"], "den": ["1"]}


def test_ratfunc_coefficients_are_lowest_terms_strings():
    x = F.from_coeffs([Fraction(2, 4)], [1])
    obj = ratfunc_to_json(x)
    assert obj["num"] == ["1/2"]


def test_matrix_roundtrip():
    r = standard_r(2, F)
    obj = matrix_to_json(r)
    assert matrix_from_json(obj, F) == r
    assert obj["rows"] == 4 and obj["cols"] == 4


def test_ncsquare_roundtrips():
    scal = NCSquare([[F.one, F.q], [F.zero, F.one]], F)
    obj = ncsquare_to_json(scal)
    back = ncsquare_from_json(obj)
    assert back == scal and back.field.root_order == 2
    op = NCSquare(
        [[Matrix.identity(2, F), Matrix.zeros(2, 2, F)],
         [Matrix.zeros(2, 2, F), Matrix.diag([F.q, F.q], F)]],
        F,
    )
    obj = ncsquare_to_json(op)
    assert "inner_dim" in obj
    assert ncsquare_from_json(obj) == op


def test_grid_roundtrip():
    g = [[Fraction(1, 2), Fraction(0)], [Fraction(-3), Fraction(7, 3)]]
    assert grid_from_json(grid_to_json(g)) == g


def test_report_json_shape():
    rep = ybe_check(standard_r(2, F))
    obj = report_to_json(rep)
    assert obj["check"] == "ybe" and obj["pass"] is True
    assert obj["witness"] is None
    assert "ms" in obj
    json.dumps(obj)


def test_report_witness_encoding():
    rep = Report(
        "demo",
        {"n": 2},
        False,
        witness={"coords": [0, 1], "lhs": F.q, "rhs": F.one},
    )
    obj = report_to_json(rep)
    assert obj["witness"]["lhs"] == ratfunc_to_json(F.q)
    json.dumps(obj, sort_keys=True)


def test_elimination_outputs_golden_digest():
    # Every Theta for n = 2..5, then two twisted wedge vectors and twist
    # inverses; the digest was recorded from the separate Gauss-Jordan
    # inverse that rref_rows replaced, and pins its outputs byte for byte.
    payload = [
        grid_to_json(solve_theta(t).theta)
        for n in range(2, 6)
        for t in enumerate_triples(n)
    ]
    for t in (BDTriple.make(3, (1,), (2,), {1: 2}), BDTriple.make(4, (1,), (3,), {1: 3})):
        tw = build_twist(t)
        payload.append([ratfunc_to_json(c) for c in wedge_top(r_hat(tw.r_j), t.n)])
        payload.append(matrix_to_json(gauss_invert(tw.j_vv)))
    assert len(payload) == 34
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    assert (
        hashlib.sha256(blob).hexdigest()
        == "603872c3f9e79262d1853487a4808509676d994f011cdb36c6dd50f6a6e22212"
    )


def test_kernel_outputs_golden_digest():
    # The Hecke eigenspace bases of every triple for n = 2..4, then the
    # two-root gl5 wedge vector; the digest was recorded from the
    # elimination that split the kernel into connected components.
    payload = []
    for n in range(2, 5):
        for t in enumerate_triples(n):
            tw = build_twist(t)
            rhat = r_hat(tw.r_j)
            ident = Matrix.identity(n * n, tw.field)
            for shift in (-tw.field.q, tw.field.q_inv):
                basis = kernel_basis(rhat + ident.scale(shift))
                payload.append([[ratfunc_to_json(c) for c in v] for v in basis])
    assert len(payload) == 2 * sum(len(enumerate_triples(n)) for n in range(2, 5))
    tw = build_twist(BDTriple.make(5, [1, 2], [3, 4], {1: 3, 2: 4}))
    payload.append([ratfunc_to_json(c) for c in wedge_top(r_hat(tw.r_j), 5)])
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    assert (
        hashlib.sha256(blob).hexdigest()
        == "bd3e385f940504f7fab960f377852040b9550ece582cef1c338a490985d2dc89"
    )


def _generic_square(rng, m):
    # (a0 + a1 s + a2 s^2) / (1 + b1 s + b2 s^2): non-monomial denominators
    return NCSquare(
        [
            [
                F.from_coeffs(
                    [rng.randint(-3, 3) for _ in range(3)],
                    [1, rng.randint(1, 3), rng.randint(0, 2)],
                )
                for _ in range(m)
            ]
            for _ in range(m)
        ],
        F,
    )


def _encode(value):
    return matrix_to_json(value) if isinstance(value, Matrix) else ratfunc_to_json(value)


def test_quasideterminant_outputs_golden_digest(capsys, tmp_path):
    # Every puncture of seeded generic 3x3 and 4x4 squares over Q(s), the
    # corner factors of T for gl3 Cremmer-Gervais and gl4 1->3 with
    # k = (1,1) and (2,1), one quasiminor inverse of an operator square,
    # and `qdq quasidet` on a scalar and an operator file.  The digest was
    # recorded from the route that inverted the whole punctured submatrix.
    rng = random.Random(14)
    payload = []
    for m in (3, 4):
        x = _generic_square(rng, m)
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                try:
                    payload.append(_encode(quasideterminant(x, i, j)))
                except SubmatrixSingularError as exc:
                    payload.append(["singular", exc.i, exc.j])
    h = Fraction(1, 2)
    cg = build_twist(BDTriple.make(3, [1], [2], {1: 2}), [[0, h, h], [h, 0, h], [0, h, 0]])
    gl4 = build_twist(BDTriple.make(4, [1], [3], {1: 3}))
    for tw, k1, k2 in ((cg, 1, 1), (gl4, 1, 1), (gl4, 2, 1)):
        factors = corner_factors(build_T(tw, k1, k2).t_blocks)
        payload.append([_encode(a) for a in factors])
    op = NCSquare(
        [
            [
                Matrix(
                    2,
                    2,
                    [
                        [F.from_coeffs([rng.randint(-2, 2), rng.randint(-1, 1)]) for _ in range(2)]
                        for _ in range(2)
                    ],
                    F,
                )
                + Matrix.identity(2, F).scale(F.from_rational(7 if a == b else 0))
                for b in range(3)
            ]
            for a in range(3)
        ],
        F,
    )
    payload.append([[_encode(e) for e in row] for row in inverse_via_quasiminors(op).entries])
    scal = NCSquare(
        [[F.from_rational(v) for v in row] for row in ((2, 1, 0), (1, 3, 1), (0, 1, 4))], F
    )
    for name, x, ij in (("scalar", scal, ("2", "2")), ("operator", op, ("1", "3"))):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(ncsquare_to_json(x)))
        code = run(["quasidet", "--file", str(path), "--i", ij[0], "--j", ij[1]])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        payload.append(json.loads(out))
    assert len(payload) == 9 + 16 + 3 + 1 + 2
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    assert (
        hashlib.sha256(blob).hexdigest()
        == "e2d81949fc070411fd1ea18ec29148883b215f7ca9ef3fbd7899b7a3cc61abbe"
    )
