"""The dense routes of the battery after T, kept as a test oracle.

qdq.quasidet and qdq.frt compute the corner quasiminors of T, their
commutators, det_sigma, the coaction trie sum and frt_check's
t_is_product premise in rows {column: value}.  This module is the dense
route they replaced: each quasideterminant one solve through the dense
flattening, and every product, sum and comparison on dense Matrix grids.
Exact values are canonical, so both routes must agree value for value,
and on every witness.  Each function has the signature of the one it
stands for in qdq.frt, so a test can put it in that one's place.
"""

from qdq.errors import SubmatrixSingularError
from qdq.linalg import Matrix, first_mismatch, leg_products, rref_rows
from qdq.quasidet import NCSquare, check_sigma
from qdq.report import Report, mismatch_witness
from qdq.rmatrix import r_hat, rll_sides, wedge_coefficients, wedge_top


def quasideterminant(x, i, j):
    """|X|_ij by one solve through the dense flattening."""
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
    corr = Matrix(x.inner, n, r, x.field) * Matrix(n, x.inner, y, x.field)
    if isinstance(x.one, Matrix):
        return x[(i, j)] - corr
    return x[(i, j)] - corr.entries[0][0]


def corner_factors(x):
    return [quasideterminant(x.corner(l), l, l) for l in range(x.m, 0, -1)]


def det_sigma(x, sigma, factors=None):
    sigma = check_sigma(sigma, x.m)
    if factors is None:
        factors = corner_factors(x)
    out = factors[sigma[0] - 1]
    for t in sigma[1:]:
        out = out * factors[t - 1]
    return out


def factors_commute(m, factors=None):
    if factors is None:
        factors = corner_factors(m.t_blocks)
    rep = Report("factors-commute", {"n": m.n, "k1": m.k1, "k2": m.k2}, True)
    for a in range(len(factors)):
        for b in range(a + 1, len(factors)):
            loc = first_mismatch(factors[a] * factors[b], factors[b] * factors[a])
            if loc is not None:
                rep.passed = False
                rep.witness = mismatch_witness(loc, a + 1, b + 1)
                return rep
    return rep


def t_flat(m):
    """flatten(T) recomputed as the dense product A B."""
    n, k1, k2 = m.n, m.k1, m.k2
    ktot = 1 + k1 + k2
    a_legs, b_legs = (1, *range(2, k1 + 2)), (1, *range(k1 + 2, ktot + 1))
    return leg_products([[(m.l_plus, a_legs), (m.l_minus, b_legs)]], n, ktot)[0]


def frt_check(m):
    n, r, k1, k2 = m.n, m.twist.r_j, m.k1, m.k2
    locs = {
        "rll_plus": first_mismatch(*rll_sides(r, m.l_plus, n, k1)),
        "rll_minus": first_mismatch(*rll_sides(r, m.l_minus, n, k2)),
        "t_is_product": first_mismatch(m.t_blocks.flatten(), t_flat(m)),
    }
    premises = {name: loc is None for name, loc in locs.items()}
    rep = Report("frt", {"n": n, "k1": k1, "k2": k2}, all(premises.values()))
    rep.details = {"route": "coproduct certificate", "premises": premises}
    failed = next((name for name, ok in premises.items() if not ok), None)
    if failed:
        rep.witness = mismatch_witness(locs[failed], premise=failed)
    return rep


def qdet_coaction(m, certificate=None):
    """D by the trie sum over dense products of T's blocks."""
    n = m.n
    coeffs = wedge_coefficients(wedge_top(r_hat(m.twist.r_j), n), n)
    nexts = {}
    for K in sorted(coeffs):
        for p in range(n):
            step = nexts.setdefault(K[:p], [])
            if not step or step[-1] != K[p]:
                step.append(K[p])
    row = min(coeffs)

    def partial(p, prefix):
        acc = None
        for k in nexts[prefix]:
            ext = prefix + (k,)
            if p == n - 1:
                term = m.entry(row[p], k).scale(coeffs[ext])
            else:
                term = m.entry(row[p], k) * partial(p + 1, ext)
            acc = term if acc is None else acc + term
        return acc

    if certificate is not None:
        certificate.update(row=list(row), support=len(coeffs))
    return partial(0, ()).scale(coeffs[row].inv())
