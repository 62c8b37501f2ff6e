"""Exact linear algebra over Q(s) and tensor-leg operator calculus.

A Matrix is a dense row-major grid of RatFunc sharing one ScalarField,
and holds no other entry type.  The canonical form of a RatFunc makes its
numerator tuple x.num empty exactly when x is zero, so the loops here
(Matrix arithmetic, kron, leg_rows and the row helpers) test an entry for
zero by reading x.num, a few times cheaper than bool(x).
Tensor powers of the n-dimensional space V use the convention that the
leftmost factor is the most significant index digit:

    v_{i1} (x) ... (x) v_{ik}  ->  sum_j (i_j - 1) * n^(k-j)

with 1-based factor indices in interfaces and 0-based linear indices
internally.  This makes leg embeddings (superscript notation such as T13)
pure index bookkeeping.  from_units builds R, J', the flip and the Cartan
exponentials from their matrix units, and no module outside this one
writes into a Matrix grid.

Sparse operators travel as rows {column: value} holding no zero value.
leg_rows is the one routine that places an operator on tensor legs: it
gives the operator's rows on V^(x)k, built from the small operator's
nonzeros, with the legs in any order (op on the legs (2, 1) is op
conjugated by the flip).  leg_product_rows multiplies ordered chains of
such factors row by row (Gustavson's product, _row_times); leg_products
and leg_embed are its dense forms.  After T is built, the battery
(qdq.quasidet, qdq.frt) multiplies, adds, scales and compares such rows
with the helpers beside _row_times, and matrix_rows and rows_matrix
convert between rows and a dense Matrix where a caller needs one.

One reduced-echelon routine sits at the bottom: rref_rows reduces rows
stored as {column: value} and carries the columns it does not pivot on
along.  Inversion (the RREF of [A | I]), linear solves, every kernel
(sparse_kernel) and each quasideterminant (qdq.quasidet) are one call of
it.  It works over any exact field elements supporting +,-,*,/ and
truthiness, so it serves both RatFunc and plain rational entries, and
it and its wrappers read no x.num.
"""

from __future__ import annotations

from itertools import product

from .errors import SingularMatrixError
from .scalars import RatFunc, ScalarField


class Matrix:
    """Dense matrix over Q(s); immutable by convention."""

    __slots__ = ("rows", "cols", "entries", "field")

    def __init__(self, rows: int, cols: int, entries, field: ScalarField):
        if len(entries) != rows or any(len(r) != cols for r in entries):
            raise ValueError("entry grid does not match declared shape")
        self.rows = rows
        self.cols = cols
        self.entries = entries
        self.field = field

    # -- constructors --------------------------------------------------------

    @classmethod
    def zeros(cls, rows, cols, field):
        z = field.zero
        return cls(rows, cols, [[z] * cols for _ in range(rows)], field)

    @classmethod
    def identity(cls, n, field):
        z, o = field.zero, field.one
        return cls(n, n, [[o if i == j else z for j in range(n)] for i in range(n)], field)

    @classmethod
    def diag(cls, values, field):
        values = list(values)
        n = len(values)
        z = field.zero
        return cls(n, n, [[values[i] if i == j else z for j in range(n)] for i in range(n)], field)

    @classmethod
    def unit(cls, rows, cols, i, j, field, value=None):
        """Matrix unit E_ij (1-based) times an optional value."""
        m = cls.zeros(rows, cols, field)
        m.entries[i - 1][j - 1] = field.one if value is None else value
        return m

    def copy(self):
        return Matrix(self.rows, self.cols, [list(r) for r in self.entries], self.field)

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix addition")
        return Matrix(
            self.rows,
            self.cols,
            [
                [a + b if a.num and b.num else a if a.num else b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
            self.field,
        )

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix subtraction")
        return self + (-other)

    def __neg__(self):
        return Matrix(
            self.rows, self.cols, [[-a for a in r] for r in self.entries], self.field
        )

    def scale(self, c: RatFunc):
        return Matrix(
            self.rows,
            self.cols,
            [[c * a if a.num else a for a in r] for r in self.entries],
            self.field,
        )

    def __mul__(self, other):
        if isinstance(other, RatFunc):
            return self.scale(other)
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        zero = self.field.zero
        # the nonzero (j, b_kj) of each row of B, so no loop visits a zero
        b_nz = [[(j, x) for j, x in enumerate(bk) if x.num] for bk in other.entries]
        out = []
        for ai in self.entries:
            oi = [zero] * other.cols
            for aik, bk in zip(ai, b_nz):
                if aik.num:
                    for j, bkj in bk:
                        t = aik * bkj
                        oij = oi[j]
                        oi[j] = oij + t if oij.num else t
            out.append(oi)
        return Matrix(self.rows, other.cols, out, self.field)

    def __rmul__(self, other):
        if isinstance(other, RatFunc):
            return self.scale(other)
        return NotImplemented

    # -- predicates ------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def is_zero(self):
        return all(not e.num for r in self.entries for e in r)

    def __bool__(self):
        """Nonzero, as for a scalar, so NCSquare tests both entry rings alike."""
        return not self.is_zero()

    def is_identity(self):
        if self.rows != self.cols:
            return False
        for i in range(self.rows):
            for j in range(self.cols):
                e = self.entries[i][j]
                if i == j:
                    if not e.is_one():
                        return False
                elif e:
                    return False
        return True

    def inv(self):
        return gauss_invert(self)

    def evaluate(self, x):
        """Entrywise exact evaluation at a rational point."""
        return [[e.evaluate(x) for e in row] for row in self.entries]

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, M={self.field.root_order})"

    def __str__(self):
        return "\n".join("[" + ", ".join(str(e) for e in r) + "]" for r in self.entries)


def first_mismatch(a: Matrix, b: Matrix):
    """Row-major scan; returns (i, j, a_ij, b_ij) or None when equal.

    Matrices of different shapes have no entry to compare: the result is
    then (None, None, (a.rows, a.cols), (b.rows, b.cols)).
    """
    if (a.rows, a.cols) != (b.rows, b.cols):
        return (None, None, (a.rows, a.cols), (b.rows, b.cols))
    for i, (ra, rb) in enumerate(zip(a.entries, b.entries)):
        if ra == rb:
            # list equality skips identical entries, such as shared zeros
            continue
        for j in range(a.cols):
            if ra[j] != rb[j]:
                return (i, j, ra[j], rb[j])
    return None


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; left factor is the most significant index."""
    if a.field.root_order != b.field.root_order:
        raise ValueError("kron operands carry different scalar fields")
    zero = a.field.zero
    R, C = a.rows * b.rows, a.cols * b.cols
    out = [[zero] * C for _ in range(R)]
    for i in range(a.rows):
        for j in range(a.cols):
            aij = a.entries[i][j]
            if not aij.num:
                continue
            for k in range(b.rows):
                bk = b.entries[k]
                orow = out[i * b.rows + k]
                base = j * b.cols
                for l in range(b.cols):
                    if bk[l].num:
                        orow[base + l] = aij * bk[l]
    return Matrix(R, C, out, a.field)


class TensorIndexing:
    """Index conventions on V^(x)k with dim V = n."""

    __slots__ = ("n", "legs")

    def __init__(self, n: int, legs: int):
        self.n = n
        self.legs = legs

    @property
    def dim(self):
        return self.n**self.legs

    def to_linear(self, multi) -> int:
        """1-based factor indices -> 0-based linear index."""
        if len(multi) != self.legs:
            raise ValueError("wrong number of factor indices")
        idx = 0
        for i in multi:
            if not 1 <= i <= self.n:
                raise ValueError(f"factor index {i} out of range 1..{self.n}")
            idx = idx * self.n + (i - 1)
        return idx

    def from_linear(self, idx: int):
        digits = []
        for _ in range(self.legs):
            digits.append(idx % self.n + 1)
            idx //= self.n
        return tuple(reversed(digits))

    def all_multis(self):
        return product(range(1, self.n + 1), repeat=self.legs)


def from_units(n: int, units, field: ScalarField) -> Matrix:
    """The operator sum c E_{r1 c1} (x) ... (x) E_{rk ck} on V^(x)k.

    units maps 1-based (row multi-index, column multi-index) to c, and k is
    the first key's length; to_linear places each unit, refusing a
    multi-index of another length or out of range."""
    if not units:
        raise ValueError("from_units needs at least one unit to fix the tensor power")
    ti = TensorIndexing(n, len(next(iter(units))[0]))
    m = Matrix.zeros(ti.dim, ti.dim, field)
    for (r, c), x in units.items():
        m.entries[ti.to_linear(r)][ti.to_linear(c)] = x
    return m


def flip_perm(n: int, field: ScalarField) -> Matrix:
    """The flip v_i (x) v_j -> v_j (x) v_i on V (x) V: sum E_ij (x) E_ji."""
    v = range(1, n + 1)
    return from_units(n, {((i, j), (j, i)): field.one for i in v for j in v}, field)


def leg_rows(op: Matrix, legs, n: int, k: int):
    """Rows {column: value} of op on the named legs of V^(x)k, extended by
    the identity elsewhere; a zero row of op gives empty rows.

    legs are 1-based and in the order of op's own factors, so op on the
    legs (2, 1) is op conjugated by the flip.  op[r][c] lands at
    (base[r] + off, base[c] + off) for each offset off of the other legs,
    base the weight of op's indices.  Every row is a new dict, which the
    caller may reduce in place.
    """
    legs = tuple(legs)
    if len(set(legs)) != len(legs):
        raise ValueError(f"duplicate legs in {legs}")
    if any(not 1 <= p <= k for p in legs):
        raise ValueError(f"legs {legs} out of range 1..{k}")
    L = len(legs)
    if op.rows != n**L or op.cols != n**L:
        raise ValueError("operator size does not match the named legs")
    weight = [n ** (k - p) for p in range(1, k + 1)]
    leg_w = [weight[p - 1] for p in legs]
    rest_w = [weight[p - 1] for p in range(1, k + 1) if p not in legs]
    ti = TensorIndexing(n, L)
    base = [sum((d - 1) * w for d, w in zip(ti.from_linear(i), leg_w)) for i in range(op.rows)]
    nonzeros = [
        (base[r], [(base[c], x) for c, x in enumerate(row) if x.num])
        for r, row in enumerate(op.entries)
    ]
    rows = [None] * n**k
    for assign in product(range(n), repeat=k - L):
        off = sum(a * w for a, w in zip(assign, rest_w))
        for rb, cols in nonzeros:
            rows[rb + off] = {cb + off: x for cb, x in cols}
    return rows


def leg_product_rows(chains, n: int, k: int) -> list:
    """The ordered product of each chain of factors (op, legs) on V^(x)k,
    as rows {column: value}.

    op acts on its legs, 1-based and in the order of op's own factors, and
    as the identity elsewhere.  Each distinct (op, legs) is embedded once
    and shared by every chain; entries that cancel to zero are dropped.
    """
    embedded = {}
    out = []
    for chain in chains:
        prod = None
        for op, legs in chain:
            key = (id(op), tuple(legs))
            if key not in embedded:
                embedded[key] = leg_rows(op, legs, n, k)
            rows = embedded[key]
            if prod is not None:
                rows = rows_times(prod, rows)
            prod = rows
        out.append(prod)
    return out


def leg_products(chains, n: int, k: int) -> list:
    """leg_product_rows of each chain as a dense Matrix."""
    return [rows_matrix(r, n**k, chains[0][0][0].field) for r in leg_product_rows(chains, n, k)]


def _row_times(row, rows):
    """A row times the matrix of rows, all as {column: value}."""
    if len(row) == 1:
        # one term scales one row, and Q(s) has no zero divisors
        ((j, a),) = row.items()
        return {c: a * b for c, b in rows[j].items()}
    acc = {}
    for j, a in row.items():
        for c, b in rows[j].items():
            y = acc.get(c)
            acc[c] = a * b if y is None else y + a * b
    return {c: x for c, x in acc.items() if x.num}


def rows_times(a, b) -> list:
    """The product of two matrices given as rows, row by row."""
    return [_row_times(row, b) for row in a]


def rows_add(a, b) -> list:
    """The entrywise sum of two matrices of rows, as new rows."""
    out = [dict(row) for row in a]
    for row, rb in zip(out, b):
        for c, x in rb.items():
            y = row[c] + x if c in row else x
            if y.num:
                row[c] = y
            else:
                del row[c]
    return out


def rows_scale(rows, c: RatFunc) -> list:
    """c times a matrix of rows; c must be nonzero."""
    return [{j: c * x for j, x in row.items()} for row in rows]


def rows_mismatch(a, b, zero):
    """first_mismatch of two square matrices of rows, an absent column read
    as zero: the row-major first (i, j, a_ij, b_ij), or None when equal.

    Squares of different sizes give first_mismatch's shape result.
    """
    if len(a) != len(b):
        return (None, None, (len(a), len(a)), (len(b), len(b)))
    for i, (ra, rb) in enumerate(zip(a, b)):
        if ra != rb:
            j = min(c for c in ra.keys() | rb.keys() if ra.get(c) != rb.get(c))
            return (i, j, ra.get(j, zero), rb.get(j, zero))
    return None


def matrix_rows(m: Matrix) -> list:
    """The rows {column: value} of a dense Matrix."""
    return [{j: x for j, x in enumerate(row) if x.num} for row in m.entries]


def rows_matrix(rows, cols: int, field: ScalarField) -> Matrix:
    """The dense Matrix of rows {column: value} with cols columns."""
    grid = []
    for row in rows:
        g = [field.zero] * cols
        for c, x in row.items():
            g[c] = x
        grid.append(g)
    return Matrix(len(grid), cols, grid, field)


def leg_embed(op: Matrix, legs, n: int, k: int) -> Matrix:
    """Extend an operator on the named tensor legs by the identity elsewhere:
    the one-factor chain of leg_products, with its ValueErrors."""
    return leg_products([[(op, legs)]], n, k)[0]


def gauss_invert(a: Matrix) -> Matrix:
    """Exact inverse: reduced echelon form of [A | I] (see rref_rows)."""
    if a.rows != a.cols:
        raise ValueError("only square matrices can be inverted")
    return Matrix(
        a.rows, a.cols, invert_grid(a.entries, a.field.zero, a.field.one), a.field
    )


def kernel_basis(a: Matrix):
    """Deterministic exact basis of the right kernel.

    One basis vector per free column of the reduced echelon form, in
    ascending column order, each normalized so its first nonzero coordinate
    is 1 (see sparse_kernel).  Full rank gives the empty list.
    """
    return kernel_basis_grid(a.entries, a.cols, a.field.zero, a.field.one)


# ---------------------------------------------------------------------------
# The reduced-echelon routine and its wrappers (any exact field entries)
# ---------------------------------------------------------------------------

def rref_rows(rows, cols, one):
    """Reduced row echelon form of rows {column: value}, reduced in place.

    Returns {pivot column: row} in ascending pivot order.  Pivots are
    sought in the ascending columns cols only, so they are those of the
    first-nonzero dense elimination; every other column a row holds (the
    identity block of [A | I], say) is carried along by the row
    operations.  An index from each column of cols to the rows that hold
    it lets each pivot visit only those rows; an id goes stale when
    cancellation removes its entry, and is dropped when its column is
    reached.  The pivot row is the one with the fewest nonzeros, then the
    lowest id, among the rows not yet pivots (Markowitz), which keeps
    fill-in small.  Every other row that holds the column, earlier pivot
    rows included, is reduced by it, so the form stays reduced.  The
    reduced echelon form of a row space is unique, so the pivot rule
    cannot change the result.

    The cost does depend on the order of the input rows, since ties go to
    the lowest id: at gl6 two-root, the same 233,280 wedge constraint rows
    reduced in about 2.7 s grouped by ascending leg pair and in about 17 s
    grouped in descending order, through more fill-in.  A caller that
    eliminates several blocks at once (one sweep over all corner
    quasiminors, say) should feed its rows block by block.
    """
    index = {c: [] for c in cols}
    for i, row in enumerate(rows):
        for j in row:
            if j in index:
                index[j].append(i)
    pivot_rows = set()
    reduced = {}
    for col in cols:
        hits = {i for i in index.pop(col) if col in rows[i]}
        candidates = [i for i in hits if i not in pivot_rows]
        if not candidates:
            continue
        p = min(candidates, key=lambda i: (len(rows[i]), i))
        prow = rows[p]
        # the pivot entry becomes 1 and col leaves every other row with no
        # arithmetic; a row with no other entry needs none at all
        lead = prow.pop(col)
        if prow and lead != one:
            inv = one / lead
            for j, x in prow.items():
                prow[j] = x * inv
        hits.discard(p)
        for i in hits:
            ri = rows[i]
            f = ri.pop(col)
            for j, x in prow.items():
                y = ri.get(j)
                if y is None:
                    ri[j] = -(f * x)
                    ids = index.get(j)
                    if ids is not None:  # a column still to be reached
                        ids.append(i)
                    continue
                y = y - f * x
                if y:
                    ri[j] = y
                else:
                    del ri[j]
        prow[col] = one
        pivot_rows.add(p)
        reduced[col] = prow
    return reduced


def _dict_rows(grid):
    return [{j: x for j, x in enumerate(row) if x} for row in grid]


def invert_grid(rows, zero, one):
    """Inverse of a square grid of field elements, as a new grid.

    Raises SingularMatrixError naming the first column without a pivot.
    """
    n = len(rows)
    aug = _dict_rows(rows)
    for i, row in enumerate(aug):
        row[n + i] = one
    reduced = rref_rows(aug, range(n), one)
    if len(reduced) < n:
        col = next(c for c in range(n) if c not in reduced)
        raise SingularMatrixError(f"rank deficiency found at column {col}")
    return [[reduced[i].get(n + j, zero) for j in range(n)] for i in range(n)]


def solve_particular(rows, ncols, rhs, zero, one):
    """One exact solution of A x = b with free variables set to zero.

    A has ncols columns and its rows are {column: value}, which are copied,
    not reduced in place.  The right-hand side is the last pivot-eligible
    column of [A | b]; the system is inconsistent, and the result None,
    when it holds a pivot.
    """
    aug = [dict(row) for row in rows]
    for row, b in zip(aug, rhs):
        if b:
            row[ncols] = b
    reduced = rref_rows(aug, range(ncols + 1), one)
    if ncols in reduced:
        return None
    x = [zero] * ncols
    for pc, row in reduced.items():
        x[pc] = row.get(ncols, zero)
    return x


def kernel_basis_grid(rows, ncols, zero, one):
    """Kernel basis of a raw grid; see kernel_basis for the conventions."""
    return sparse_kernel(_dict_rows(rows), ncols, zero, one)


def sparse_kernel(rows, ncols, zero, one):
    """Kernel basis of sparse rows {column: value} over ncols columns.

    The conventions are kernel_basis's: one dense vector per free column of
    the reduced echelon form, in ascending column order, normalized so its
    first nonzero coordinate is 1.  Every column a reduced row holds besides
    its pivot is free, so one pass over the reduced rows reads all the free
    columns' coordinates.  The input rows are reduced in place.
    """
    reduced = rref_rows(rows, range(ncols), one)
    coords = {f: {f: one} for f in range(ncols) if f not in reduced}
    for pc, row in reduced.items():
        for f, x in row.items():
            if f != pc:
                coords[f][pc] = -x
    basis = []
    for c in coords.values():
        lead = c[min(c)]
        if lead != one:
            inv = one / lead
            c = {j: x * inv for j, x in c.items()}
        v = [zero] * ncols
        for j, x in c.items():
            v[j] = x
        basis.append(v)
    return basis
