"""Zero is the empty numerator, and every Matrix entry is a RatFunc.

qdq.linalg tests a Matrix entry, and a value in rows {column: value}, for
zero by reading x.num, which the canonical form makes the empty tuple
exactly for zero.  That holds only if every factory and every ring
operation returns zero with num == (), and only if a Matrix or a row never
holds another entry type: the elimination routines that also serve
Fraction entries keep truthiness (see the source guard in
test_source_guards.py).
"""

from fractions import Fraction

from hypothesis import given, settings
from test_scalars import F1, operands

import qdq.frt
import qdq.linalg
import qdq.quasidet
import qdq.rmatrix
import qdq.twist
from qdq.frt import verify_factorization
from qdq.linalg import Matrix, gauss_invert
from qdq.quasidet import NCSquare, all_sigmas, det_sigma, inverse_via_quasiminors, quasideterminant
from qdq.scalars import RatFunc, ScalarField
from qdq.twist import BDTriple, build_twist, cartan_data


def test_factory_zeros_have_empty_numerators():
    f = ScalarField(3)
    zeros = [
        f.zero,
        f.from_coeffs([]),
        f.from_coeffs([0, 0, 0]),
        f.from_coeffs([Fraction(0)], [0, 1]),
        f.from_coeffs([0, 0], [2, 1]),
        f.from_rational(0),
        f.from_rational(Fraction(0)),
    ] + [f.monomial(e, c) for e in range(-3, 4) for c in (0, Fraction(0))]
    for z in zeros:
        assert z.num == () and z.den == (1,) and not z and z == 0


@settings(max_examples=200, deadline=None)
@given(operands())
def test_arithmetic_zeros_have_empty_numerators(x):
    zero = F1.zero
    for z in (x - x, x + (-x), x * 0, 0 * x, x * zero, zero * x, -zero, zero - zero):
        assert z.num == ()
    assert bool(x.num) == bool(x)


def collect_matrices(monkeypatch):
    """Every Matrix built from now on, recorded at construction."""
    made = []
    init = Matrix.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(Matrix, "__init__", recording_init)
    return made


# the linalg routines that return rows {column: value}: one row, a list
# of rows, or a list of such lists
ROW_MAKERS = (
    "_row_times", "leg_rows", "leg_product_rows", "rows_times", "rows_add", "rows_scale",
    "matrix_rows",
)
MODULES = (qdq.linalg, qdq.quasidet, qdq.frt, qdq.rmatrix, qdq.twist)


def row_values(out):
    if isinstance(out, dict):
        return list(out.values())
    return [x for part in out for x in row_values(part)]


def collect_row_values(monkeypatch):
    """Every value in the rows the row routines return from now on; each
    module's binding of a routine is replaced, as they import by name."""
    seen = []
    for name in ROW_MAKERS:
        inner = getattr(qdq.linalg, name)

        def recording(*args, inner=inner):
            out = inner(*args)
            seen.extend(row_values(out))
            return out

        for mod in MODULES:
            if vars(mod).get(name) is inner:
                monkeypatch.setattr(mod, name, recording)
    return seen


def non_ratfunc_entries(matrices, values=()):
    grids = {type(x).__name__ for m in matrices for row in m.entries for x in row
             if type(x) is not RatFunc}
    return grids | {type(x).__name__ for x in values if type(x) is not RatFunc}


def test_a_gl4_battery_builds_only_ratfunc_matrices(monkeypatch):
    triple = BDTriple.make(4, [1], [3], {1: 3})
    u, v, _ = cartan_data(triple).h0_basis[:3]
    beta = [[Fraction(1, 2) * (u[i] * v[j] - v[i] * u[j]) for j in range(4)] for i in range(4)]
    made = collect_matrices(monkeypatch)
    values = collect_row_values(monkeypatch)
    assert verify_factorization(build_twist(triple, beta=beta)).passed
    # the walk sees every grid entry and row value the battery builds:
    # 101,408 and 6,646 when the stages after T were dense, 42,272 and
    # 13,106 with them in rows
    assert sum(m.rows * m.cols for m in made) + len(values) > 40_000
    assert len(values) > 5_000
    assert non_ratfunc_entries(made, values) == set()


def test_a_generic_qs_op_builds_only_ratfunc_matrices(monkeypatch):
    # non-monomial denominators, as in the generic-qs benchmark workload
    f = ScalarField(1)
    grid = [
        [([1, -2, 3], [2, 1, 1]), ([0, 1], [3, 0, 2]), ([2], [1, 3])],
        [([-1, 0, 1], [1, 2]), ([3, 1], [5, 1, 2]), ([1, 1, 1], [2])],
        [([2, -1], [1, 1, 1]), ([1], [4, 3]), ([-3, 2, 1], [1, 0, 3])],
    ]
    x = NCSquare([[f.from_coeffs(n, d) for n, d in row] for row in grid], f)
    made = collect_matrices(monkeypatch)
    values = collect_row_values(monkeypatch)
    a = x.flatten()
    assert a * gauss_invert(a) == Matrix.identity(3, f)
    assert quasideterminant(x, 2, 3)
    assert len({det_sigma(x, s) for s in all_sigmas(3)}) == 1
    inverse_via_quasiminors(x)
    # 338 grid entries when the quasideterminants flattened to dense grids;
    # 72 grid entries and 118 row values in rows
    assert sum(m.rows * m.cols for m in made) + len(values) > 100
    assert non_ratfunc_entries(made, values) == set()
