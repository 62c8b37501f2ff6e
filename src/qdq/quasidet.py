"""Quasideterminants and ordered quasiminor products.

The quasideterminant of a square matrix X over a (possibly noncommutative)
ring, attached to a position (i, j), is

    |X|_ij = x_ij - r (X^ij)^{-1} c

where X^ij removes row i and column j, r is row i without its j-th entry
and c is column j without its i-th entry; products are taken in the entry
ring in the written order.  An ordered product of nested corner
quasiminors recovers the determinant in the commutative case:

    det_sigma(X) = a_{sigma(1)} ... a_{sigma(n)},
    a_t = |X restricted to rows/cols 1..(n-t+1)| punctured at its corner.

Entries are either scalars (RatFunc) or operators (Matrix).  A square of
operator entries flattens to one Matrix over Q(s), a ring isomorphism:
T is such a square, and a quasideterminant is one solve through the
flattening.  Both rings meet in rows {column: value}: an operator entry
is its rows and a scalar entry x is the one row {0: x}, so the flattening
of either is made of its entries' rows, and one routine serves both.
The quasideterminants and det_sigma multiply, add and compare rows, and
make an entry of the ring only for their result.
"""

from __future__ import annotations

from itertools import permutations

from .errors import SingularMatrixError, SubmatrixSingularError
from .linalg import Matrix, matrix_rows, rows_add, rows_matrix, rows_scale, rows_times, rref_rows
from .scalars import ScalarField


class NCSquare:
    """Square matrix over the scalar or operator entry ring; 1-based labels.

    Entries of both rings support `not e` (zero test), e.inv() and *, so
    the code below is written once; zero and one hold the ring's neutral
    elements.  The quasideterminants read the entries' rows (rows), and
    the other ring operations go through the flattening.  A square made
    from rows (from_rows) keeps them, and makes its dense entries only
    when they are read.
    """

    __slots__ = ("m", "field", "inner", "zero", "one", "_entries", "_rows")

    def __init__(self, entries, field: ScalarField):
        m = len(entries)
        if m == 0:
            raise ValueError("NCSquare requires a nonempty grid")
        if any(len(r) != m for r in entries):
            raise ValueError("NCSquare requires a square grid")
        self.m, self.field, self._entries, self._rows = m, field, entries, None
        if isinstance(entries[0][0], Matrix):
            d = entries[0][0].rows
            if any(e.rows != d or e.cols != d for r in entries for e in r):
                raise ValueError("operator entries must share one square size")
            self.inner, self.zero, self.one = d, Matrix.zeros(d, d, field), Matrix.identity(d, field)
        else:
            self.inner, self.zero, self.one = 1, field.zero, field.one

    @classmethod
    def from_rows(cls, flat, m: int, field: ScalarField) -> NCSquare:
        """The m x m square of operator blocks of a flat operator given by
        its rows {column: value}; no dense grid is made."""
        d = len(flat) // m
        blocks = [[[{} for _ in range(d)] for _ in range(m)] for _ in range(m)]
        for i, row in enumerate(flat):
            for c, x in row.items():
                blocks[i // d][c // d][i % d][c % d] = x
        x = object.__new__(cls)
        x.m, x.field, x._entries, x._rows = m, field, None, blocks
        x.inner, x.zero, x.one = d, Matrix.zeros(d, d, field), Matrix.identity(d, field)
        return x

    @classmethod
    def from_flat(cls, flat: Matrix, m: int) -> NCSquare:
        """Read a flat operator as an m x m grid of square blocks."""
        if flat.rows != flat.cols or flat.rows % m:
            raise ValueError(f"{flat.rows}x{flat.cols} is no {m}x{m} grid of square blocks")
        return cls.from_rows(matrix_rows(flat), m, flat.field)

    @property
    def entries(self):
        """The grid of entries, dense operators for a square of operators."""
        if self._entries is None:
            self._entries = [[self.entry_from_rows(e) for e in row] for row in self._rows]
        return self._entries

    @property
    def rows(self):
        """The grid of the entries' rows {column: value}; a scalar entry x
        is the one row {0: x}."""
        if self._rows is None:
            self._rows = [[_rows_of(e) for e in row] for row in self._entries]
        return self._rows

    def flat_rows(self, rows, cols) -> list:
        """The rows of the flattening of the square made of the block rows
        rows and block columns cols (0-based, in that order)."""
        out = []
        for I in rows:
            blocks = [(pos * self.inner, self.rows[I][J]) for pos, J in enumerate(cols)]
            for r in range(self.inner):
                out.append({off + c: x for off, b in blocks for c, x in b[r].items()})
        return out

    def entry_from_rows(self, rows):
        """rows read back as an entry of this square's ring."""
        if isinstance(self.one, Matrix):
            return rows_matrix(rows, self.inner, self.field)
        return rows[0].get(0, self.field.zero)

    def flatten(self) -> Matrix:
        """One Matrix over Q(s): the block grid, or the grid itself for scalars."""
        every = range(self.m)
        return rows_matrix(self.flat_rows(every, every), self.m * self.inner, self.field)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i - 1][j - 1]

    def __eq__(self, other):
        if not isinstance(other, NCSquare):
            return NotImplemented
        return self.m == other.m and self.entries == other.entries

    # -- derived views ---------------------------------------------------------

    def corner(self, l: int) -> NCSquare:
        """Keep rows and columns 1..l (erase l+1..m)."""
        return NCSquare([row[:l] for row in self.entries[:l]], self.field)

    # -- ring operations -------------------------------------------------------

    def matmul(self, other: NCSquare) -> NCSquare:
        """The flat product, read back as a square."""
        if self.m != other.m or self.one != other.one:
            raise ValueError("NCSquare product shape/entry-ring mismatch")
        flat = self.flatten() * other.flatten()
        if isinstance(self.one, Matrix):
            return NCSquare.from_flat(flat, self.m)
        return NCSquare(flat.entries, self.field)

    def is_unitriangular(self, lower: bool) -> bool:
        return all(
            e == self.one if i == j else not e or ((j < i) if lower else (j > i))
            for i, row in enumerate(self.entries)
            for j, e in enumerate(row)
        )


def check_sigma(sigma, m: int):
    sigma = tuple(sigma)
    if sorted(sigma) != list(range(1, m + 1)):
        raise ValueError(f"{sigma} is not a permutation of 1..{m}")
    return sigma


def all_sigmas(m: int):
    return [tuple(p) for p in permutations(range(1, m + 1))]


def _rows_of(e):
    """An entry's rows {column: value}; a scalar x is the one row {0: x}."""
    return matrix_rows(e) if isinstance(e, Matrix) else [{0: e} if e else {}]


def _quasidet(x: NCSquare, rows, cols):
    """The quasideterminant of the square of x's block rows rows and block
    columns cols (0-based), punctured at the last of each.

    A quasideterminant is a Schur complement, so it is one solve.  The
    flattening reads [[A, c], [r, x_ij]], A = X^ij of size n = (m-1)d.  The
    reduced echelon form of its first n rows, fed block by block and
    pivoting in A's columns only, carries Y = A^{-1} c, and the result is
    x_ij - r Y.
    """
    n = (len(rows) - 1) * x.inner
    flat = x.flat_rows(rows, cols)
    reduced = rref_rows(flat[:n], range(n), x.field.one)
    if len(reduced) < n:
        raise SubmatrixSingularError(rows[-1] + 1, cols[-1] + 1)
    y = [{c - n: v for c, v in reduced[p].items() if c >= n} for p in range(n)]
    lead = [{c: v for c, v in row.items() if c < n} for row in flat[n:]]
    corner = [{c - n: v for c, v in row.items() if c >= n} for row in flat[n:]]
    # summing the correction first keeps x_ij's denominator out of every
    # partial sum, which keeps the gcds of generic scalar entries small
    corr = rows_scale(rows_times(lead, y), -x.field.one)
    return x.entry_from_rows(rows_add(corner, corr))


def quasideterminant(x: NCSquare, i: int, j: int):
    """|X|_ij; raises SubmatrixSingularError when X^ij is not invertible.

    The puncture moves to the last block row and column (see _quasidet).
    """
    if not (1 <= i <= x.m and 1 <= j <= x.m):
        raise ValueError(f"puncture ({i},{j}) outside 1..{x.m}")
    rows = [r for r in range(x.m) if r != i - 1] + [i - 1]
    cols = [c for c in range(x.m) if c != j - 1] + [j - 1]
    return _quasidet(x, rows, cols)


def corner_factors(x: NCSquare):
    """Nested corner quasiminors (|X|_mm, ..., x_11); order matches det_sigma.

    The first singular corner raises, as quasideterminant would on it."""
    return [_quasidet(x, range(l), range(l)) for l in range(x.m, 0, -1)]


def det_sigma(x: NCSquare, sigma, factors=None):
    """Ordered quasiminor product a_{sigma(1)} ... a_{sigma(m)}, multiplied
    in rows."""
    sigma = check_sigma(sigma, x.m)
    if factors is None:
        factors = corner_factors(x)
    out = _rows_of(factors[sigma[0] - 1])
    for t in sigma[1:]:
        out = rows_times(out, _rows_of(factors[t - 1]))
    return x.entry_from_rows(out)


def inverse_via_quasiminors(x: NCSquare) -> NCSquare:
    """Entrywise inverse formula: (X^{-1})_ij = (|X|_ji)^{-1}.

    Built from m^2 quasideterminants, so it cross-checks gauss_invert of
    the flattening.  A singular punctured submatrix marks an entry whose
    quasiminor blows up (commutatively: a vanishing cofactor); such entries
    are taken as 0 and the multiply-back identity at the end justifies the
    convention instance by instance.
    """
    undefined = []
    out = []
    for i in range(1, x.m + 1):
        row = []
        for j in range(1, x.m + 1):
            try:
                row.append(quasideterminant(x, j, i).inv())
            except SubmatrixSingularError:
                row.append(x.zero)
                undefined.append((j, i))
        out.append(row)
    inv = NCSquare(out, x.field)
    a, b = x.flatten(), inv.flatten()
    if not ((a * b).is_identity() and (b * a).is_identity()):
        if undefined:
            raise SubmatrixSingularError(*undefined[0])
        raise SingularMatrixError("quasiminor inverse failed the multiply-back identity")
    return inv


def triangular_invariance_check(x: NCSquare, z: NCSquare, y: NCSquare, sigma) -> bool:
    """det_sigma(Z X Y) == det_sigma(X) for unitriangular Z (lower), Y (upper).

    Z and Y are read in X's entry ring, so scalar entries c stand for c
    times X's one.
    """
    z, y = (
        NCSquare([[x.one * e for e in row] for row in w.entries], x.field)
        for w in (z, y)
    )
    if not z.is_unitriangular(lower=True):
        raise ValueError("Z must be lower triangular with ones on the diagonal")
    if not y.is_unitriangular(lower=False):
        raise ValueError("Y must be upper triangular with ones on the diagonal")
    zxy = z.matmul(x).matmul(y)
    return det_sigma(zxy, sigma) == det_sigma(x, sigma)
