"""The dense first-nonzero Gauss-Jordan elimination, kept as a test oracle.

qdq.linalg reduces rows stored as {column: value} and picks the pivot row
with the fewest nonzeros.  This module is the dense routine it replaced,
with the wrappers that stood on it: the inverse of [A | I] and the solve
with free variables set to zero.  The reduced echelon form of a row space
is unique, so both must agree value for value, and on the column a
singular matrix is reported at.
"""

from qdq.errors import SingularMatrixError


def rref_rows(rows, ncols):
    """In-place reduced row echelon form; returns the pivot column list.

    Pivots are sought in the first ncols columns only, taking the first
    nonzero entry of the column: magnitude is undefined over Q(s) and this
    keeps the elimination deterministic.  Row operations span the whole
    row, so columns past ncols (a right-hand side, or the identity block
    of [A | I]) are carried along.
    """
    pivots = []
    r = 0
    nrows = len(rows)
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        lead = prow[col]
        if lead != 1:
            inv = 1 / lead
            rows[r] = prow = [x * inv if x else x for x in prow]
        nz = [j for j in range(col, len(prow)) if prow[j]]
        for i in range(nrows):
            if i == r:
                continue
            ri = rows[i]
            f = ri[col]
            if not f:
                continue
            for j in nz:
                ri[j] = ri[j] - f * prow[j]
        pivots.append(col)
        r += 1
        if r == nrows:
            break
    return pivots


def invert_grid(rows, zero, one):
    """Inverse of a square grid of field elements, as a new grid.

    Raises SingularMatrixError naming the first column without a pivot.
    """
    n = len(rows)
    aug = [
        list(row) + [one if i == j else zero for j in range(n)]
        for i, row in enumerate(rows)
    ]
    pivots = rref_rows(aug, n)
    if len(pivots) < n:
        col = next(c for c in range(n) if c >= len(pivots) or pivots[c] != c)
        raise SingularMatrixError(f"rank deficiency found at column {col}")
    return [row[n:] for row in aug]


def solve_particular(rows, rhs, zero):
    """One exact solution of A x = b with free variables set to zero.

    Returns None when the system is inconsistent.
    """
    ncols = len(rows[0]) if rows else 0
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots = rref_rows(aug, ncols + 1)
    if ncols in pivots:
        return None
    x = [zero] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = aug[r][ncols]
    return x
