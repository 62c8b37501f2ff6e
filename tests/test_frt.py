"""FRT models: exchange relations, quantum determinant, factorization."""

import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest
from test_linalg import record_embeddings

import qdq.frt
from qdq.linalg import Matrix, first_mismatch, kron, leg_embed
from qdq.frt import (
    build_T,
    detsigma_consistency,
    f_of_D_image,
    factors_commute,
    frt_check,
    perturbed,
    qdet_coaction,
    verify_factorization,
)
from qdq.quasidet import (
    NCSquare,
    all_sigmas,
    corner_factors,
    det_sigma,
    quasideterminant,
)
from qdq.report import mismatch_witness
from qdq.rmatrix import l_minus, l_plus, r_hat, wedge_coefficients, wedge_top
from qdq.scalars import ScalarField
from qdq.twist import BDTriple, build_twist, cartan_data, untwisted

H = Fraction(1, 2)
CG = BDTriple.make(3, [1], [2], {1: 2})
CG_THETA = [[0, H, H], [H, 0, H], [0, H, 0]]
CG_BETA = [[0, H, 1], [-H, 0, H], [-1, -H, 0]]


def test_build_T_untwisted_n2_blocks():
    tw = untwisted(2)
    m = build_T(tw)
    f = tw.field
    lam = f.q - f.q_inv
    # T_21 = diag(1, q) (x) (-(q - 1/q) E_12)
    want = kron(
        Matrix.diag([f.one, f.q], f), Matrix.unit(2, 2, 1, 2, f, -lam)
    )
    assert m.entry(2, 1) == want
    # T_12 = (q - 1/q) E_21 (x) diag(1, 1/q)
    want12 = kron(
        Matrix.unit(2, 2, 2, 1, f, lam), Matrix.diag([f.one, f.q_inv], f)
    )
    assert m.entry(1, 2) == want12


def kron_T_blocks(tw, k1, k2):
    """Oracle: T_ij = sum_k (L+)_ik (x) (L-)_kj as a sum of Kronecker
    products, the block route that build_T replaced."""
    n = tw.n
    lp = NCSquare.from_flat(l_plus(tw.r_j, k1), n)
    lm = NCSquare.from_flat(l_minus(tw.r_j, k2), n)
    blocks = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = None
            for k in range(n):
                a, b = lp.entries[i][k], lm.entries[k][j]
                if a.is_zero() or b.is_zero():
                    continue
                term = kron(a, b)
                acc = term if acc is None else acc + term
            if acc is None:
                d = n ** (k1 + k2)
                acc = Matrix.zeros(d, d, tw.field)
            row.append(acc)
        blocks.append(row)
    return NCSquare(blocks, tw.field)


def test_build_T_two_routes_agree():
    for tw in (
        untwisted(2),
        untwisted(3),
        build_twist(CG, CG_THETA),
        build_twist(BDTriple.make(4, [1], [3], {1: 3})),
    ):
        for k1, k2 in ((1, 1), (2, 1), (1, 2)):
            assert build_T(tw, k1, k2).t_blocks == kron_T_blocks(tw, k1, k2)


def test_T_classical_limit_identity():
    for tw in (untwisted(2), untwisted(3), build_twist(CG, CG_THETA)):
        m = build_T(tw)
        n = tw.n
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                vals = m.entry(i, j).evaluate(1)
                d = len(vals)
                for r in range(d):
                    for c in range(d):
                        want = 1 if (i == j and r == c) else 0
                        assert vals[r][c] == want


def test_frt_check_passes():
    assert frt_check(build_T(untwisted(2))).passed
    assert frt_check(build_T(build_twist(CG, CG_THETA))).passed


def test_frt_check_perturbed_fails():
    m = perturbed(build_T(untwisted(2)))
    rep = frt_check(m)
    assert not rep.passed
    assert rep.witness and "coords" in rep.witness


def test_qdet_untwisted_identity():
    m2 = build_T(untwisted(2))
    assert qdet_coaction(m2) == Matrix.identity(4, m2.field)
    m3 = build_T(untwisted(3))
    assert qdet_coaction(m3) == Matrix.identity(9, m3.field)


def direct_coaction(m, coeffs):
    """Oracle: the I-component sum_K c_K T_{i1 k1} ... T_{in kn} of the
    coaction for every multi-index I in [1..n]^n, on and off the support.

    A plain dynamic program over positions, right to left: after the step
    for position p the partial sums are keyed by (I[p:], K[:p])."""
    n = m.n
    sums = {((), K): c for K, c in coeffs.items()}
    for _ in range(n):
        nxt = {}
        for (suffix, prefix), val in sums.items():
            head, k = prefix[:-1], prefix[-1]
            for i in range(1, n + 1):
                t = m.entry(i, k)
                term = t * val if isinstance(val, Matrix) else t.scale(val)
                key = ((i,) + suffix, head)
                nxt[key] = term + nxt[key] if key in nxt else term
        sums = nxt
    assert len(sums) == n**n
    return {I: val for (I, _), val in sums.items()}


def coaction_defects(m, coeffs, d):
    """The multi-indices I whose coaction component is not c_I D, in
    lexicographic order (c_I = 0, so a zero component, off the support)."""
    rows = direct_coaction(m, coeffs)
    zero = m.field.zero
    return [I for I in sorted(rows) if rows[I] != d.scale(coeffs.get(I, zero))]


def wedge_of(m):
    return wedge_coefficients(wedge_top(r_hat(m.twist.r_j), m.n), m.n)


def test_qdet_rescaling_invariance():
    # scaling the wedge vector cancels in each coaction row
    m = build_T(untwisted(2))
    scale = m.field.from_coeffs([2, 0, 3])  # arbitrary nonzero
    scaled = {I: scale * c for I, c in wedge_of(m).items()}
    assert coaction_defects(m, scaled, qdet_coaction(m)) == []


def gl4_with_beta():
    triple = BDTriple.make(4, [1], [3], {1: 3})
    u, v = cartan_data(triple).h0_basis[:2]
    beta = [[H * (u[i] * v[j] - v[i] * u[j]) for j in range(4)] for i in range(4)]
    assert any(any(row) for row in beta)
    return build_twist(triple, beta=beta)


def cg_twist():
    return build_twist(CG, CG_THETA)


@pytest.mark.parametrize(
    "make, k1, k2",
    [(cg_twist, 1, 1), (cg_twist, 2, 1), (gl4_with_beta, 1, 1)],
    ids=["gl3-cg-k11", "gl3-cg-k21", "gl4-beta-k11"],
)
def test_qdet_coaction_matches_direct_sum(make, k1, k2):
    # D read from one row is the coaction on every row, and every
    # component off the wedge support vanishes
    m = build_T(make(), k1, k2)
    coeffs = wedge_of(m)
    assert len(coeffs) < m.n**m.n
    assert coaction_defects(m, coeffs, qdet_coaction(m)) == []


def assert_perturbation_caught(monkeypatch, tw, i, j):
    """A perturbed T breaks the exchange relation; the explicit oracle then
    finds rows that are not c_I D, and the battery fails on frt with the
    coaction certificate naming its failed premise."""
    m = perturbed(build_T(tw), i, j)
    rep = frt_check(m)
    assert not rep.passed and "coords" in rep.witness
    coeffs = wedge_of(m)
    defects = coaction_defects(m, coeffs, qdet_coaction(m))
    # D is still read off the first support row, which thus agrees with it
    assert defects and min(coeffs) not in defects

    monkeypatch.setattr("qdq.frt.build_T", lambda tw, k1, k2: m)
    rep = verify_factorization(tw)
    assert not rep.passed
    assert rep.witness["failed"] == "frt" and "coords" in rep.witness
    checks = {r.check: r for r in rep.details["checks"]}
    cert = checks["qdet-coaction"]
    assert not cert.passed and cert.witness == {"premise": "frt"}
    assert cert.details["premises"] == {"frt": False, "wedge_dim": 1}


def test_qdet_perturbed_not_proportional(monkeypatch):
    assert_perturbation_caught(monkeypatch, untwisted(2), 1, 2)


@pytest.mark.parametrize("i, j", [(1, 2), (2, 1), (3, 2)])
def test_qdet_perturbed_breaks_frt_and_the_certificate(monkeypatch, i, j):
    assert_perturbation_caught(monkeypatch, cg_twist(), i, j)


def literal_exchange(m):
    """Oracle: the first mismatch of R12 T13 T23 = T23 T13 R12 multiplied out
    on V (x) V (x) W1 (x) W2, the route frt_check's certificate replaced."""
    n, ktot = m.n, 2 + m.k1 + m.k2
    w_legs = tuple(range(3, ktot + 1))
    r12 = leg_embed(m.twist.r_j, (1, 2), n, ktot)
    tflat = m.t_blocks.flatten()
    t13 = leg_embed(tflat, (1, *w_legs), n, ktot)
    t23 = leg_embed(tflat, (2, *w_legs), n, ktot)
    return first_mismatch(r12 * t13 * t23, t23 * t13 * r12)


CERTIFIED = {
    "route": "coproduct certificate",
    "premises": {"rll_plus": True, "rll_minus": True, "t_is_product": True},
}


@pytest.mark.parametrize("k1, k2", [(1, 1), (2, 1), (1, 2)])
@pytest.mark.parametrize(
    "make",
    [
        lambda: untwisted(2),
        lambda: untwisted(3),
        cg_twist,
        lambda: build_twist(CG, CG_THETA, CG_BETA),
        gl4_with_beta,
    ],
    ids=["gl2", "gl3", "gl3-cg", "gl3-cg-beta", "gl4-beta"],
)
def test_certificate_agrees_with_the_literal_product(make, k1, k2):
    m = build_T(make(), k1, k2)
    rep = frt_check(m)
    assert rep.passed == (literal_exchange(m) is None)
    assert rep.passed and rep.witness is None and rep.details == CERTIFIED
    if m.n < 4 and (k1, k2) == (1, 1):
        # negative controls: both routes fail every perturbed entry tried
        for i, j in ((1, 1), (1, 2), (2, 1)):
            bad = perturbed(m, i, j)
            assert not frt_check(bad).passed and literal_exchange(bad) is not None


@pytest.mark.parametrize("make", [lambda: untwisted(2), cg_twist], ids=["gl2", "gl3-cg"])
def test_perturbed_T_fails_t_is_product(make):
    m = build_T(make())
    rep = frt_check(perturbed(m, 1, 2))
    assert not rep.passed and rep.witness["premise"] == "t_is_product"
    assert rep.witness["coords"] and rep.witness["lhs"] != rep.witness["rhs"]
    want = {**CERTIFIED["premises"], "t_is_product": False}
    assert rep.details == {**CERTIFIED, "premises": want}


def shifted(op):
    """A copy of an operator with its first entry, in the (1, 1) block, moved."""
    out = op.copy()
    out.entries[0][0] = out.entries[0][0] + op.field.one
    return out


@pytest.mark.parametrize(
    "name, inner, premise",
    [("l_plus", l_plus, "rll_plus"), ("l_minus", l_minus, "rll_minus")],
)
def test_perturbed_factor_fails_its_rll_premise(monkeypatch, name, inner, premise):
    # build_T reads the same binding, so T is the product of the perturbed
    # factor and only the RLL relation can tell
    monkeypatch.setattr(f"qdq.frt.{name}", lambda r, k: shifted(inner(r, k)))
    rep = frt_check(build_T(cg_twist()))
    assert not rep.passed and rep.witness["premise"] == premise
    assert "coords" in rep.witness and rep.witness["lhs"] != rep.witness["rhs"]
    assert rep.details["premises"] == {**CERTIFIED["premises"], premise: False}


def test_one_battery_builds_each_l_operator_once(monkeypatch):
    # frt_check reads L+ and L- off the model that build_T made
    calls = {"l_plus": 0, "l_minus": 0}
    for name in calls:

        def counted(r, k, name=name, inner=getattr(qdq.frt, name)):
            calls[name] += 1
            return inner(r, k)

        monkeypatch.setattr(f"qdq.frt.{name}", counted)
    assert verify_factorization(untwisted(2)).passed
    assert calls == {"l_plus": 1, "l_minus": 1}


@pytest.mark.parametrize("k1, k2", [(1, 1), (2, 1)])
def test_frt_check_never_embeds_on_all_four_spaces(monkeypatch, k1, k2):
    # every operator the certificate embeds lives on V (x) V (x) W1, on
    # V (x) V (x) W2 or on V (x) W1 (x) W2, never on V (x) V (x) W1 (x) W2
    m = build_T(cg_twist(), k1, k2)
    made = record_embeddings(monkeypatch)
    assert frt_check(m).passed
    sizes = [k for *_, k in made]
    assert sizes and max(sizes) <= 2 + max(k1, k2)


def test_gl4_battery_multiplies_no_operator_on_three_legs(monkeypatch):
    # the leg chains (YBE, cocycle, RLL premises, L+-, T) multiply sparse
    # rows; only operators on V (x) V go through Matrix.__mul__
    tw = gl4_with_beta()
    sizes = []
    inner = Matrix.__mul__

    def recording(a, b):
        if isinstance(b, Matrix):
            sizes.append(max(a.rows, b.rows))
        return inner(a, b)

    monkeypatch.setattr(Matrix, "__mul__", recording)
    assert verify_factorization(tw).passed
    assert sizes and max(sizes) < 4**3


def test_f_of_D_image_untwisted():
    tw = untwisted(2)
    assert f_of_D_image(tw, 1, 1) == Matrix.identity(4, tw.field)
    img = f_of_D_image(tw, 2, 1)
    # q^2 Id (x) q^{-1} Id = q Id on 8 dimensions
    assert img == Matrix.identity(8, tw.field).scale(tw.field.q)


def test_f_of_D_image_cg():
    tw = build_twist(CG, CG_THETA)
    f = tw.field
    s = f.s  # q^(1/2)
    left = Matrix.diag([s**3, s**2, s], f)
    right = Matrix.diag([s.inv(), s.inv() ** 2, s.inv() ** 3], f)
    assert f_of_D_image(tw, 1, 1) == kron(left, right)


def test_detsigma_untwisted_n2():
    m = build_T(untwisted(2))
    facts = corner_factors(m.t_blocks)
    # factor list is (|T|_22, T_11) with the quasideterminant correction
    from qdq.linalg import gauss_invert

    t11, t12, t21, t22 = (m.entry(i, j) for i in (1, 2) for j in (1, 2))
    want = t22 - t21 * gauss_invert(t11) * t12
    assert facts[0] == want
    assert facts[1] == t11
    ident = Matrix.identity(4, m.field)
    for sigma in all_sigmas(2):
        val = det_sigma(m.t_blocks, sigma, facts)
        assert val == ident


def test_detsigma_matches_quasidet_module():
    m = build_T(untwisted(2))
    assert corner_factors(m.t_blocks)[0] == quasideterminant(m.t_blocks, 2, 2)


def test_factors_commute_untwisted():
    for n in (2, 3):
        m = build_T(untwisted(n))
        assert factors_commute(m).passed


def test_factors_commute_fails_generic():
    rng = random.Random(8)
    f = ScalarField(1)
    blocks = [
        [
            Matrix(
                2,
                2,
                [
                    [f.from_rational(rng.randint(1, 6)) for _ in range(2)]
                    for _ in range(2)
                ],
                f,
            )
            for _ in range(2)
        ]
        for _ in range(2)
    ]
    m = replace(build_T(untwisted(2)), t_blocks=NCSquare(blocks, f))
    rep = factors_commute(m)
    assert not rep.passed and rep.witness


def literal_orderings(m, sigmas, factors):
    """Oracle: (passed, reference, witness) of det_sigma multiplied out for
    every ordering and compared with the first, the loop that the
    commuting-factors certificate replaced."""
    ref = det_sigma(m.t_blocks, sigmas[0], factors)
    for sigma in sigmas[1:]:
        loc = first_mismatch(ref, det_sigma(m.t_blocks, sigma, factors))
        if loc is not None:
            return False, ref, mismatch_witness(loc, sigma=list(sigma))
    return True, ref, None


def off_diagonal_shift(m):
    """A copy of the model with entry (1, 2) of T_11 shifted by 1: T is no
    longer an FRT model, and its corner factors stop commuting."""
    blocks = [[b.copy() for b in row] for row in m.t_blocks.entries]
    blocks[0][0].entries[0][1] = blocks[0][0].entries[0][1] + m.field.one
    return replace(m, t_blocks=NCSquare(blocks, m.field))


@pytest.mark.parametrize(
    "make, k1, k2",
    [
        (lambda: untwisted(2), 1, 1),
        (lambda: untwisted(3), 1, 1),
        (cg_twist, 1, 1),
        (lambda: build_twist(CG, CG_THETA, CG_BETA), 1, 1),
        (gl4_with_beta, 1, 1),
        (gl4_with_beta, 2, 1),
    ],
    ids=["gl2", "gl3", "gl3-cg", "gl3-cg-beta", "gl4-beta-k11", "gl4-beta-k21"],
)
def test_orderings_certificate_agrees_with_the_literal_loop(make, k1, k2):
    m = build_T(make(), k1, k2)
    sigmas = all_sigmas(m.n)
    factors = corner_factors(m.t_blocks)
    assert factors_commute(m, factors).passed
    rep, ref = detsigma_consistency(m, sigmas, factors, True)
    assert (rep.passed, ref, rep.witness) == literal_orderings(m, sigmas, factors)
    assert rep.details == {
        "route": "commuting-factors certificate",
        "premises": {"factors_commute": True},
        "orderings": len(sigmas),
    }


@pytest.mark.parametrize("make", [lambda: untwisted(2), cg_twist], ids=["gl2", "gl3-cg"])
def test_noncommuting_factors_multiply_every_ordering_out(monkeypatch, make):
    # a perturbed T fails factors-commute, and det-sigma-consistency then
    # fails with the witness of the literal loop, naming the first sigma
    tw = make()
    m = off_diagonal_shift(build_T(tw))
    sigmas = all_sigmas(m.n)
    factors = corner_factors(m.t_blocks)
    assert not factors_commute(m, factors).passed
    want = literal_orderings(m, sigmas, factors)
    assert not want[0] and want[2]["sigma"] == list(sigmas[1])
    rep, ref = detsigma_consistency(m, sigmas, factors, False)
    assert (rep.passed, ref, rep.witness) == want and rep.details == {}

    monkeypatch.setattr("qdq.frt.build_T", lambda tw, k1, k2: m)
    checks = {r.check: r for r in verify_factorization(tw).details["checks"]}
    assert not checks["factors-commute"].passed
    sub = checks["det-sigma-consistency"]
    assert (sub.passed, sub.witness, sub.details) == (False, want[2], {})


@pytest.mark.parametrize("count", [1, 2, 6])
def test_commuting_factors_multiply_one_ordering(monkeypatch, count):
    # the certificate multiplies out the reference ordering only, however
    # many orderings it covers
    inner = qdq.frt.det_sigma
    calls = []

    def counted(x, sigma, factors=None):
        calls.append(sigma)
        return inner(x, sigma, factors)

    monkeypatch.setattr(qdq.frt, "det_sigma", counted)
    sigmas = all_sigmas(3)[:count]
    rep = verify_factorization(cg_twist(), sigmas=sigmas)
    assert rep.passed and rep.params["sigmas"] == count
    assert calls == [sigmas[0]]


def test_verify_factorization_untwisted_n2():
    rep = verify_factorization(untwisted(2))
    assert rep.passed, rep.witness
    checks = {r.check: r for r in rep.details["checks"]}
    assert "frt" in checks and "det-sigma-consistency" in checks
    cert = checks["qdet-coaction"]
    assert cert.passed and cert.witness is None
    assert cert.details == {
        "route": "one-row certificate",
        "premises": {"frt": True, "wedge_dim": 1},
        "row": [1, 2],
        "support": 2,
    }


def test_verify_factorization_cg():
    tw = build_twist(CG, CG_THETA)
    rep = verify_factorization(tw)
    assert rep.passed, rep.witness


def test_verify_factorization_corrupted_theta_fails():
    bad = [row[:] for row in CG_THETA]
    bad[0][0] = bad[0][0] + 1
    tw = build_twist(CG, bad)
    rep = verify_factorization(tw)
    assert not rep.passed
    assert rep.witness and "failed" in rep.witness


def test_verify_factorization_rejects_no_sigmas_before_any_work(monkeypatch):
    def no_work(r):
        raise AssertionError("ybe ran before the orderings were checked")

    monkeypatch.setattr("qdq.frt.ybe_check", no_work)
    with pytest.raises(ValueError, match="no ordering"):
        verify_factorization(untwisted(2), sigmas=[])


@pytest.mark.parametrize("k1, k2", [(0, 1), (1, 0)])
def test_verify_factorization_rejects_tensor_powers_before_any_work(monkeypatch, k1, k2):
    def no_work(r):
        raise AssertionError("ybe ran before the tensor powers were checked")

    monkeypatch.setattr("qdq.frt.ybe_check", no_work)
    with pytest.raises(ValueError, match="tensor powers"):
        verify_factorization(untwisted(3), k1=k1, k2=k2)


def test_qdet_subreports_time_their_inputs(monkeypatch):
    # the wedge and the coaction products are timed by qdet-coaction
    inner = qdet_coaction

    def slow_coaction(model, certificate=None):
        time.sleep(0.05)
        return inner(model, certificate)

    monkeypatch.setattr("qdq.frt.qdet_coaction", slow_coaction)
    rep = verify_factorization(untwisted(2))
    assert rep.passed, rep.witness
    ms = {r.check: r.ms for r in rep.details["checks"]}
    assert ms["qdet-coaction"] >= 50.0


def test_factor_and_reference_timers_cover_their_inputs(monkeypatch):
    # the corner factors are timed by factors-commute, and the reference
    # ordering by det-sigma-consistency, even with a single ordering
    def slow_factors(x):
        time.sleep(0.05)
        return corner_factors(x)

    def slow_det(x, sigma, factors=None):
        time.sleep(0.05)
        return det_sigma(x, sigma, factors)

    monkeypatch.setattr("qdq.frt.corner_factors", slow_factors)
    monkeypatch.setattr("qdq.frt.det_sigma", slow_det)
    rep = verify_factorization(untwisted(2), sigmas=[(1, 2)])
    assert rep.passed, rep.witness
    ms = {r.check: r.ms for r in rep.details["checks"]}
    assert ms["factors-commute"] >= 50.0
    assert ms["det-sigma-consistency"] >= 50.0


def test_subreport_times_add_up_to_the_battery(monkeypatch):
    # building T is timed by frt, and one clock stamps every subreport
    # from the end of the one before, so nothing falls between them
    inner = build_T

    def slow_build_T(tw, k1=1, k2=1):
        time.sleep(0.05)
        return inner(tw, k1, k2)

    monkeypatch.setattr("qdq.frt.build_T", slow_build_T)
    rep = verify_factorization(untwisted(2))
    assert rep.passed, rep.witness
    subs = rep.details["checks"]
    assert next(r.ms for r in subs if r.check == "frt") >= 50.0
    assert sum(r.ms for r in subs) >= 0.99 * rep.ms


def test_verify_factorization_k_powers():
    rep = verify_factorization(untwisted(2), k1=2, k2=1)
    assert rep.passed, rep.witness


def test_triangular_invariance_on_operator_model():
    # det_sigma of the quantum-matrix square is unchanged by scalar
    # unitriangular sandwiching
    from qdq.quasidet import triangular_invariance_check

    rng = random.Random(77)
    m = build_T(untwisted(2))
    x = m.t_blocks
    f = m.field
    for sigma in all_sigmas(2):
        z = NCSquare(
            [[f.one, f.zero], [f.from_rational(rng.randint(-3, 3)), f.one]], f
        )
        y = NCSquare(
            [[f.one, f.from_rational(rng.randint(-3, 3))], [f.zero, f.one]], f
        )
        assert triangular_invariance_check(x, z, y, sigma)
