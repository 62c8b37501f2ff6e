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
flattening.  A square of scalar entries flattens to its own grid.
"""

from __future__ import annotations

from itertools import permutations

from .errors import SingularMatrixError, SubmatrixSingularError
from .linalg import Matrix, rref_rows
from .scalars import ScalarField


class NCSquare:
    """Square matrix over the scalar or operator entry ring; 1-based labels.

    Entries of both rings support `not e` (zero test), e.inv() and *, so
    the code below is written once; zero and one hold the ring's neutral
    elements.  Every other ring operation, the quasideterminant's one solve
    included, goes through the flattening.
    """

    __slots__ = ("m", "entries", "field", "inner", "zero", "one")

    def __init__(self, entries, field: ScalarField):
        m = len(entries)
        if m == 0:
            raise ValueError("NCSquare requires a nonempty grid")
        if any(len(r) != m for r in entries):
            raise ValueError("NCSquare requires a square grid")
        self.m = m
        self.entries = entries
        self.field = field
        if isinstance(entries[0][0], Matrix):
            self.inner = entries[0][0].rows
            if any(e.rows != self.inner or e.cols != self.inner for r in entries for e in r):
                raise ValueError("operator entries must share one square size")
            self.zero = Matrix.zeros(self.inner, self.inner, field)
            self.one = Matrix.identity(self.inner, field)
        else:
            self.inner = 1
            self.zero, self.one = field.zero, field.one

    @classmethod
    def from_flat(cls, flat: Matrix, m: int) -> NCSquare:
        """Read a flat operator as an m x m grid of square blocks."""
        d = flat.rows // m
        if flat.rows != flat.cols or d * m != flat.rows:
            raise ValueError(f"{flat.rows}x{flat.cols} is no {m}x{m} grid of square blocks")
        return cls(
            [
                [
                    Matrix(d, d, [row[J * d : (J + 1) * d] for row in rows], flat.field)
                    for J in range(m)
                ]
                for rows in (flat.entries[I * d : (I + 1) * d] for I in range(m))
            ],
            flat.field,
        )

    def flatten(self) -> Matrix:
        """One Matrix over Q(s): the block grid, or the grid itself for scalars."""
        if not isinstance(self.one, Matrix):
            return Matrix(self.m, self.m, self.entries, self.field)
        dim = self.m * self.inner
        flat = [
            [x for e in row for x in e.entries[r]]
            for row in self.entries
            for r in range(self.inner)
        ]
        return Matrix(dim, dim, flat, self.field)

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


def quasideterminant(x: NCSquare, i: int, j: int):
    """|X|_ij; raises SubmatrixSingularError when X^ij is not invertible.

    A quasideterminant is a Schur complement, so it is one solve.  With the
    puncture moved to the last block row and column the flattening reads
    [[A, c], [r, x_ij]], A = X^ij of size n = (m-1)d.  The reduced echelon
    form of its first n rows, pivoting in A's columns only, carries
    Y = A^{-1} c, and |X|_ij = x_ij - r Y.
    """
    if not (1 <= i <= x.m and 1 <= j <= x.m):
        raise ValueError(f"puncture ({i},{j}) outside 1..{x.m}")
    if x.m == 1:
        return x[(1, 1)]
    rows = [r for r in range(x.m) if r != i - 1] + [i - 1]
    cols = [c for c in range(x.m) if c != j - 1] + [j - 1]
    flat = NCSquare([[x.entries[r][c] for c in cols] for r in rows], x.field).flatten()
    n, zero = (x.m - 1) * x.inner, x.field.zero
    reduced = rref_rows(
        [{k: v for k, v in enumerate(row) if v} for row in flat.entries[:n]],
        range(n),
        x.field.one,
    )
    if len(reduced) < n:
        raise SubmatrixSingularError(i, j)
    y = [[reduced[p].get(k, zero) for k in range(n, flat.cols)] for p in range(n)]
    r = [row[:n] for row in flat.entries[n:]]
    # summing the correction first keeps x_ij's denominator out of every
    # partial sum, which keeps the gcds of generic scalar entries small
    corr = Matrix(x.inner, n, r, x.field) * Matrix(n, x.inner, y, x.field)
    if isinstance(x.one, Matrix):
        return x[(i, j)] - corr
    return x[(i, j)] - corr.entries[0][0]


def corner_factors(x: NCSquare):
    """Nested corner quasiminors (|X|_mm, ..., x_11); order matches det_sigma."""
    factors = []
    for l in range(x.m, 0, -1):
        factors.append(quasideterminant(x.corner(l), l, l))
    return factors


def det_sigma(x: NCSquare, sigma, factors=None):
    """Ordered quasiminor product a_{sigma(1)} ... a_{sigma(m)}."""
    sigma = check_sigma(sigma, x.m)
    if factors is None:
        factors = corner_factors(x)
    out = factors[sigma[0] - 1]
    for t in sigma[1:]:
        out = out * factors[t - 1]
    return out


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
