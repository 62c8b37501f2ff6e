"""Round-trips for every JSON format."""

import hashlib
import json
from fractions import Fraction

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
from qdq.quasidet import NCSquare
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
    obj = matrix_to_json(r.mat)
    assert matrix_from_json(obj, F) == r.mat
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
