"""The index-loop builders of R, J', the flip and the Cartan exponential,
kept as test oracles.

qdq builds each of these operators from its matrix units through
linalg.from_units.  This module writes the same operators entry by entry
at hand-computed linear indices, a * n + b for v_a (x) v_b (0-based), so
the two must agree entry for entry.
"""

from qdq.linalg import Matrix
from qdq.scalars import as_rational, q_power


def standard_r(n, field):
    d = n * n
    m = Matrix.zeros(d, d, field)
    one = field.one
    q = field.q
    lam = field.q - field.q_inv
    for a in range(n):
        for b in range(n):
            idx = a * n + b
            m.entries[idx][idx] = q if a == b else one
    for a in range(n):
        for b in range(a + 1, n):
            # E_ab (x) E_ba sends v_b (x) v_a to v_a (x) v_b
            m.entries[a * n + b][b * n + a] = lam
    return m


def jprime_matrix(t, field):
    n = t.n
    lam = field.q - field.q_inv
    m = Matrix.identity(n * n, field)
    tau = t.tau
    for start, end in t.blocks():
        verts = list(range(start, end + 2))
        shift = tau[start] - start
        for x, vi in enumerate(verts):
            for vj in verts[x + 1 :]:
                # E_{tau(vi), tau(vj)} (x) E_{vj, vi} with tau the vertex map
                a, b = vi + shift, vj + shift
                row = (a - 1) * n + (vj - 1)
                col = (b - 1) * n + (vi - 1)
                m.entries[row][col] = m.entries[row][col] + lam
    return m


def flip_perm(n, field):
    d = n * n
    m = Matrix.zeros(d, d, field)
    one = field.one
    for i in range(n):
        for j in range(n):
            m.entries[j * n + i][i * n + j] = one
    return m


def cartan_exp(a_grid, field):
    n = len(a_grid)
    vals = []
    for k in range(n):
        if len(a_grid[k]) != n:
            raise ValueError("exponent grid must be square")
        for l in range(n):
            vals.append(q_power(as_rational(a_grid[k][l]), field))
    return Matrix.diag(vals, field)
