"""Concrete FRT models and the determinant factorization verifier.

The generating matrix T is realized with operator entries

    T_ij = sum_k (L+)_ik (x) (L-)_kj  in  End(W1 (x) W2),

W1 = V^(x)k1, W2 = V^(x)k2, with L+/- built from the twisted braiding.
build_T computes flatten(T) as the product of L+ and L- embedded along
the matrix leg, in rows {column: value}; the tests compare it with the
block sums above.  Every operator after T is almost empty, so the checks
below multiply, add and compare rows (qdq.linalg), and a dense Matrix is
made only for a value they return or report.

The verifier checks, all by exact matrix identities:

  * the exchange relation R12 T13 T23 = T23 T13 R12, certified by the RLL
    relations of L+ and L- and T = L+ L- (the FRT bialgebra property),
  * the quantum determinant D extracted through the coaction on the top
    wedge vector, read from one row and certified by the exchange
    relation and the one-dimensional wedge,
  * D equals the closed-form grouplike image built from the twist's
    Cartan exponents,
  * D equals every sigma-ordered product of corner quasiminors of T:
    the factors commute pairwise, so one product stands for every
    ordering.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .linalg import Matrix, first_mismatch, kron, leg_product_rows, matrix_rows, rows_add
from .linalg import rows_matrix, rows_mismatch, rows_scale, rows_times
from .linalg import leg_embed  # unused here; perfbench's tracer tests read this binding
from .quasidet import NCSquare, all_sigmas, check_sigma, corner_factors, det_sigma
from .report import (
    Clock,
    Report,
    aggregate_report,
    equality_report,
    mismatch_witness,
    timed,
)
from .rmatrix import (
    hecke_check,
    l_minus,
    l_plus,
    r_hat,
    rll_sides,
    wedge_coefficients,
    wedge_top,
    weight_exp,
    ybe_check,
)
from .twist import Twist, cocycle_check, p_vector


@dataclass
class FRTModel:
    """A twisted quantum-matrix model on W1 (x) W2: T, and the flat L+ on
    V (x) W1 and L- on V (x) W2 that build_T multiplied into it.

    build_T's T keeps the rows of its blocks (t_blocks.rows), which the
    battery reads; t_blocks.entries and entry make the dense blocks when
    read, for tests, demos, perturbed and the JSON encoders.
    """

    twist: Twist
    k1: int
    k2: int
    t_blocks: NCSquare
    l_plus: Matrix
    l_minus: Matrix

    @property
    def n(self):
        return self.twist.n

    @property
    def field(self):
        return self.twist.field

    def entry(self, i: int, j: int) -> Matrix:
        """T_ij as an operator on W1 (x) W2 (1-based)."""
        return self.t_blocks[(i, j)]


def _t_rows(a: Matrix, b: Matrix, n: int, k1: int, k2: int) -> list:
    """The rows of flatten(T) = A B, A on V (x) W1 and B on V (x) W2
    sharing the matrix leg."""
    ktot = 1 + k1 + k2
    a_legs, b_legs = (1, *range(2, k1 + 2)), (1, *range(k1 + 2, ktot + 1))
    return leg_product_rows([[(a, a_legs), (b, b_legs)]], n, ktot)[0]


def _check_powers(k1: int, k2: int):
    if k1 < 1 or k2 < 1:
        raise ValueError("tensor powers k1, k2 must be at least 1")


def build_T(tw: Twist, k1: int = 1, k2: int = 1) -> FRTModel:
    """T as the product of L+ and L- embedded along the shared matrix leg."""
    _check_powers(k1, k2)
    a, b = l_plus(tw.r_j, k1), l_minus(tw.r_j, k2)
    t = NCSquare.from_rows(_t_rows(a, b, tw.n, k1, k2), tw.n, tw.field)
    return FRTModel(tw, k1, k2, t, a, b)


@timed
def frt_check(m: FRTModel) -> Report:
    """R12 T13 T23 = T23 T13 R12 on V (x) V (x) W1 (x) W2, by a certificate.

    With A = L+ on V (x) W1 and B = L- on V (x) W2, as the model keeps
    them, the premises are rll_plus (R12 A13 A23 = A23 A13 R12 on
    V (x) V (x) W1), rll_minus (the same for B on V (x) V (x) W2) and
    t_is_product (flatten(T) = A B as build_T forms it, so T13 = A13 B14,
    compared row by row).
    B14 commutes with A23, and B24 with A13, as they act on disjoint legs:

        R12 T13 T23 = R12 A13 A23 B14 B24 = A23 A13 R12 B14 B24
                    = A23 A13 B24 B14 R12 = T23 T13 R12,

    the bialgebra property of the FRT algebra.  The argument holds for any
    A and B that meet the premises, so the model's own serve and none is
    built here.  The details name the route and each premise's outcome; a
    failure's witness names the first failed premise with its first
    mismatch.
    """
    n, r, k1, k2 = m.n, m.twist.r_j, m.k1, m.k2
    a, b = m.l_plus, m.l_minus
    locs = {
        "rll_plus": first_mismatch(*rll_sides(r, a, n, k1)),
        "rll_minus": first_mismatch(*rll_sides(r, b, n, k2)),
        "t_is_product": rows_mismatch(m.t_blocks.flat_rows(range(n), range(n)),
                                      _t_rows(a, b, n, k1, k2), m.field.zero),
    }
    premises = {name: loc is None for name, loc in locs.items()}
    rep = Report("frt", {"n": n, "k1": k1, "k2": k2}, all(premises.values()))
    rep.details = {"route": "coproduct certificate", "premises": premises}
    failed = next((name for name, ok in premises.items() if not ok), None)
    if failed:
        rep.witness = mismatch_witness(locs[failed], premise=failed)
    return rep


def qdet_coaction(m: FRTModel, certificate=None) -> Matrix:
    """The quantum determinant image D through the wedge coaction.

    With w = sum_K c_K v_K the top wedge vector of the twisted braiding,
    the coaction is delta(w) = w (x) D, whose I-component reads

        sum_K c_K T_{i1 k1} T_{i2 k2} ... T_{in kn} = c_I D

    (products left to right in tensor-position order).  D is computed from
    the lexicographically first support index I0 alone, summing over the
    trie of support prefixes.  That one row proves the identity for every
    I, including those off the support, provided two premises hold:

      * R12 T13 T23 = T23 T13 R12, which frt_check certifies from the
        RLL relations of L+ and L- and T = L+ L-, so each
        C_{i,i+1} (x) 1, with C = Rhat + 1/q, commutes with T1 ... Tn;
      * ker C on V^(x)n is span(w), which wedge_top proves exactly.

    Then (T1 ... Tn)(w (x) x) lies in span(w) (x) W for every x.  The
    caller checks the first premise; wedge_top raises unless the second
    holds.  certificate, when given, is a dict that receives the row I0
    and the support size.  The trie sum multiplies, adds and scales the
    rows of T's blocks, and only D is made a dense Matrix.
    """
    n = m.n
    w = wedge_top(r_hat(m.twist.r_j), n)
    coeffs = wedge_coefficients(w, n)
    nexts = {}  # support prefix -> the next indices that extend it
    for K in sorted(coeffs):
        for p in range(n):
            step = nexts.setdefault(K[:p], [])
            if not step or step[-1] != K[p]:
                step.append(K[p])
    row = min(coeffs)
    t = m.t_blocks.rows

    def partial(p, prefix):
        # sum over the K extending prefix of c_K T_{I0[p] k_p} ... T_{I0[n-1] k_n}
        acc = None
        for k in nexts[prefix]:
            ext = prefix + (k,)
            if p == n - 1:
                term = rows_scale(t[row[p] - 1][k - 1], coeffs[ext])
            else:
                term = rows_times(t[row[p] - 1][k - 1], partial(p + 1, ext))
            acc = term if acc is None else rows_add(acc, term)
        return acc

    if certificate is not None:
        certificate.update(row=list(row), support=len(coeffs))
    return rows_matrix(rows_scale(partial(0, ()), coeffs[row].inv()), m.t_blocks.inner, m.field)


def f_of_D_image(tw: Twist, k1: int = 1, k2: int = 1) -> Matrix:
    """Closed form of the determinant's grouplike image on W1 (x) W2.

    The twist's Cartan grid determines a weight p (column sums minus row
    sums); the image is weight_exp(p + 1) (x) weight_exp(p - 1)."""
    p = p_vector(tw)
    plus = [x + 1 for x in p]
    minus = [x - 1 for x in p]
    return kron(
        weight_exp(plus, k1, tw.field), weight_exp(minus, k2, tw.field)
    )


@timed
def factors_commute(m: FRTModel, factors=None) -> Report:
    """Pairwise commutators of the quasiminor factors vanish exactly,
    multiplied and compared in rows."""
    if factors is None:
        factors = corner_factors(m.t_blocks)
    rows = [matrix_rows(f) for f in factors]
    rep = Report("factors-commute", {"n": m.n, "k1": m.k1, "k2": m.k2}, True)
    for a in range(len(rows)):
        for b in range(a + 1, len(rows)):
            ab, ba = rows_times(rows[a], rows[b]), rows_times(rows[b], rows[a])
            loc = rows_mismatch(ab, ba, m.field.zero)
            if loc is not None:
                rep.passed = False
                rep.witness = mismatch_witness(loc, a + 1, b + 1)
                return rep
    return rep


def detsigma_consistency(m: FRTModel, sigmas, factors, commute: bool):
    """det_sigma agrees across the orderings; returns (report, reference).

    The reference is det_sigma for sigmas[0].  When the factors commute
    pairwise (commute, the verdict of factors_commute), a product of them
    does not depend on its order, so the reference stands for every
    ordering and no other is multiplied out: the details name this route,
    its premise and the orderings it covers.  Otherwise each ordering is
    multiplied out and compared with the reference, and the witness names
    the first sigma that differs.
    """
    ref = det_sigma(m.t_blocks, sigmas[0], factors)
    rep = Report("det-sigma-consistency", {"sigmas": len(sigmas)}, True)
    if commute:
        rep.details = {
            "route": "commuting-factors certificate",
            "premises": {"factors_commute": True},
            "orderings": len(sigmas),
        }
        return rep, ref
    for sigma in sigmas[1:]:
        loc = first_mismatch(ref, det_sigma(m.t_blocks, sigma, factors))
        if loc is not None:
            rep.passed = False
            rep.witness = mismatch_witness(loc, sigma=list(sigma))
            break
    return rep, ref


@timed
def verify_factorization(
    tw: Twist, k1: int = 1, k2: int = 1, sigmas=None
) -> Report:
    """Full exact battery for one twist and one (k1, k2) probe.

    Aggregates: Yang-Baxter and Hecke checks for the twisted braiding, the
    twist cocycle, the exchange relations for T, commutativity of the
    quasiminor factors, agreement of det_sigma across the requested
    orderings (certified by that commutativity), the coaction certificate
    for the determinant image D (which fails, naming the premise, when the
    exchange relations fail), and equality of D with det_sigma and with
    the grouplike image.

    One clock stamps each subreport from the end of the one before, so a
    check's ms counts the inputs built for it (T in frt, the factors in
    factors-commute, the reference ordering in det-sigma-consistency, the
    wedge in qdet-coaction) and the subreports add up to the whole run.
    """
    clock = Clock()
    n = tw.n
    if sigmas is None:
        sigmas = all_sigmas(n)
    sigmas = [check_sigma(s, n) for s in sigmas]
    if not sigmas:
        raise ValueError("sigmas names no ordering")
    _check_powers(k1, k2)
    params = {
        "n": n,
        "g1": tw.triple.gamma1,
        "g2": tw.triple.gamma2,
        "tau": tw.triple.tau_pairs,
        "k1": k1,
        "k2": k2,
        "sigmas": len(sigmas),
        "beta": any(v for row in tw.beta for v in row),
        "root_order": tw.field.root_order,
    }
    subreports = [
        clock.stamp(ybe_check(tw.r_j)),
        clock.stamp(hecke_check(r_hat(tw.r_j))),
        clock.stamp(cocycle_check(tw)),
    ]
    model = build_T(tw, k1, k2)
    frt_rep = clock.stamp(frt_check(model))
    subreports.append(frt_rep)
    factors = corner_factors(model.t_blocks)
    commute_rep = clock.stamp(factors_commute(model, factors))
    subreports.append(commute_rep)
    sigma_rep, ref = detsigma_consistency(model, sigmas, factors, commute_rep.passed)
    subreports.append(clock.stamp(sigma_rep))

    frt_ok = frt_rep.passed
    cert = {
        "route": "one-row certificate",
        "premises": {"frt": frt_ok, "wedge_dim": 1},
    }
    coact = qdet_coaction(model, cert)
    coact_rep = Report(
        "qdet-coaction",
        {},
        frt_ok,
        witness=None if frt_ok else {"premise": "frt"},
        details=cert,
    )
    subreports.append(clock.stamp(coact_rep))
    subreports.append(
        clock.stamp(equality_report("qdet-equals-detsigma", {}, coact, ref))
    )
    image = f_of_D_image(tw, k1, k2)
    subreports.append(
        clock.stamp(equality_report("qdet-equals-grouplike-image", {}, coact, image))
    )
    return aggregate_report("main", params, subreports)


def perturbed(m: FRTModel, i: int = 1, j: int = 1, delta=None) -> FRTModel:
    """Negative control: the model with delta (default 1) added to T_ij[1, 1]."""
    f = m.field
    blocks = [list(row) for row in m.t_blocks.entries]
    b = blocks[i - 1][j - 1]
    blocks[i - 1][j - 1] = b + Matrix.unit(b.rows, b.cols, 1, 1, f, delta)
    return replace(m, t_blocks=NCSquare(blocks, f))
