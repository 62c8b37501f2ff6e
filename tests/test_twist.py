"""Diagram data validation, the Theta solver, and twist assembly."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from dense_elimination import invert_grid as dense_invert_grid
from dense_elimination import rref_rows
import loop_builders
from test_linalg import dense_kernel, record_embeddings

import qdq.twist
from qdq.errors import (
    BetaNotInH0Error,
    InputError,
    InvalidTripleError,
    NoSolutionError,
    OrderReversingError,
)
from qdq.linalg import (
    Matrix,
    TensorIndexing,
    kernel_basis_grid,
    leg_embed,
    leg_products,
    solve_particular,
)
from qdq.report import equality_report
from qdq.scalars import MAX_EXPONENT
from qdq.rmatrix import (
    cartan_exp,
    hecke_check,
    r_hat,
    standard_r,
    wedge_top,
    ybe_check,
)
from qdq.scalars import Q, ScalarField
from qdq.twist import (
    BDTriple,
    ThetaSolution,
    build_twist,
    cartan_data,
    cocycle_check,
    coproduct_factors,
    enumerate_triples,
    jprime_matrix,
    p_vector,
    solve_theta,
    theta_residuals,
    untwisted,
    validate_triple,
)

H = Fraction(1, 2)

CG = BDTriple.make(3, [1], [2], {1: 2})

# one rational solution of the moment conditions for the Cremmer-Gervais
# datum; the solver may pick another point of the same affine family
CG_THETA = [
    [0, H, H],
    [H, 0, H],
    [0, H, 0],
]

CG_BETA = [
    [0, H, 2 * H],
    [-H, 0, H],
    [-2 * H, -H, 0],
]  # (u (x) v - v (x) u)/2 with u = (1,1,1), v = (1,0,-1)

GL4 = BDTriple.make(4, [1], [3], {1: 3})


def test_validate_cg():
    assert validate_triple(CG).passed


def test_validate_not_disjoint():
    rep = validate_triple(BDTriple.make(3, [1], [1], {1: 1}))
    assert not rep.passed
    assert "NotDisjoint" in rep.details["failed_clauses"]


def test_validate_order_reversing():
    rep = validate_triple(BDTriple.make(5, [1, 2], [3, 4], {1: 4, 2: 3}))
    assert not rep.passed
    assert rep.details["failed_clauses"] == ["OrderReversing"]


def test_validate_adjacency():
    # moving two non-adjacent blocks onto adjacent roots breaks the iff
    rep = validate_triple(BDTriple.make(6, [1, 3], [4, 5], {1: 4, 3: 5}))
    assert not rep.passed
    assert "AdjacencyBroken" in rep.details["failed_clauses"]
    # while parallel translation of separated blocks stays valid
    assert validate_triple(BDTriple.make(5, [1, 3], [2, 4], {1: 2, 3: 4})).passed


def test_blocks():
    t = BDTriple.make(7, [1, 2, 4, 6], [3, 5], {})
    assert t.blocks() == [(1, 2), (4, 4), (6, 6)]


def test_cartan_data_cg():
    cd = cartan_data(CG)
    z = cd.z_grid
    want = [[0, 0, 0], [H, -H, 0], [-H, H, 0]]
    assert z == [[Q(v) for v in row] for row in want]
    # Z is tau as a linear map: h1 = span(H1 - H2) goes to H2 - H3
    tv = [sum(z[k][l] * x for l, x in enumerate([Q(1), Q(-1), Q(0)])) for k in range(3)]
    assert tv == [Q(0), Q(1), Q(-1)]
    # tau kills the orthogonal complement of h1
    h1_perp = kernel_basis_grid([[Q(1), Q(-1), Q(0)]], 3, Q(0), Q(1))
    assert len(h1_perp) == 2
    for v in h1_perp:
        img = [sum(z[k][l] * v[l] for l in range(3)) for k in range(3)]
        assert all(not x for x in img)


def test_cartan_data_h0_cg():
    cd = cartan_data(CG)
    # h0 = {y: y1 - y2 = y2 - y3}; (1,1,1) and (1,0,-1) span it
    span = [r[:] for r in cd.h0_basis]
    for v in ([Q(1), Q(1), Q(1)], [Q(1), Q(0), Q(-1)]):
        rows = [r[:] for r in span] + [v[:]]
        work = [r[:] for r in rows]
        rref_rows(work, 3)
        rank_with = sum(1 for r in work if any(r))
        assert rank_with == len(span)
    assert len(span) == 2


def test_cartan_data_empty():
    t = BDTriple.make(4)
    cd = cartan_data(t)
    assert all(not v for row in cd.z_grid for v in row)
    assert len(cd.h0_basis) == 4


def test_recorded_cg_theta_satisfies_conditions():
    assert theta_residuals(CG, CG_THETA) == []
    # its Y has equal first rows and equal second/third columns
    cd = cartan_data(CG)
    y = [
        [cd.z_grid[i][j] - Q(CG_THETA[i][j]) for j in range(3)]
        for i in range(3)
    ]
    want = [
        [Q(0), -H, -H],
        [Q(0), -H, -H],
        [-H, Q(0), Q(0)],
    ]
    assert y == [[Q(v) for v in row] for row in want]
    assert y[0] == y[1]
    assert [y[i][1] for i in range(3)] == [y[i][2] for i in range(3)]


def test_solve_theta_empty():
    sol = solve_theta(BDTriple.make(3))
    assert all(not v for row in sol.theta for v in row)


def test_solve_theta_cg():
    sol = solve_theta(CG)
    assert theta_residuals(CG, sol.theta) == []
    # condition (i) in matrix form: rows 1,2 of Y agree, columns 2,3 agree
    y = sol.y
    assert y[0] == y[1]
    assert [y[i][1] for i in range(3)] == [y[i][2] for i in range(3)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_solve_theta_all_triples(n):
    for t in enumerate_triples(n):
        sol = solve_theta(t)
        assert theta_residuals(t, sol.theta) == []


def test_enumerate_counts_small():
    assert len(enumerate_triples(2)) == 1  # only the empty triple
    names = {
        (t.gamma1, t.gamma2, t.tau_pairs) for t in enumerate_triples(3)
    }
    assert ((), (), ()) in names
    assert (((1,), (2,), ((1, 2),))) in names
    assert (((2,), (1,), ((2, 1),))) in names
    assert len(names) == 3


def test_untwisted_build():
    tw = untwisted(3)
    assert tw.j_vv == Matrix.identity(9, tw.field)
    assert tw.r_j == standard_r(3, tw.field)
    assert p_vector(tw) == [0, 0, 0]


def test_build_cg_jprime():
    tw = build_twist(CG, CG_THETA)
    assert tw.field.root_order == 2
    lam = tw.field.q - tw.field.q_inv
    ti = TensorIndexing(3, 2)
    want = Matrix.identity(9, tw.field)
    r = ti.to_linear((2, 2))
    c = ti.to_linear((3, 1))
    want.entries[r][c] = lam
    assert tw.jprime_vv == want


def test_jprime_block_structure():
    # nonzero off-diagonal entries only where the first leg strictly
    # decreases row-to-column and the second strictly increases
    tw = build_twist(GL4, solve_theta(GL4))
    n = 4
    ti = TensorIndexing(n, 2)
    ident = Matrix.identity(n * n, tw.field)
    for r in range(n * n):
        for c in range(n * n):
            e = tw.jprime_vv.entries[r][c] - ident.entries[r][c]
            if e:
                a, cc = ti.from_linear(r)
                b, d = ti.from_linear(c)
                assert a < b and cc > d


def test_twist_classical_limit_and_conjugation():
    for tw in (build_twist(CG, CG_THETA), build_twist(GL4)):
        n = tw.n
        vals = tw.j_vv.evaluate(1)
        for i in range(n * n):
            for j in range(n * n):
                assert vals[i][j] == (1 if i == j else 0)
        # Rhat_J = J^{-1} Rhat J
        from qdq.linalg import gauss_invert

        rhat_j = r_hat(tw.r_j)
        std = standard_r(n, tw.field)
        jinv = gauss_invert(tw.j_vv)
        assert rhat_j == jinv * r_hat(std) * tw.j_vv


def test_twisted_r_passes_structure_checks():
    tw = build_twist(CG, CG_THETA)
    assert ybe_check(tw.r_j).passed
    rep = hecke_check(r_hat(tw.r_j))
    assert rep.passed
    assert rep.details["eigenspace_dims"] == (6, 3)
    w = wedge_top(r_hat(tw.r_j), 3)
    assert sum(1 for c in w if c) >= 1  # dimension-1 assertion is inside


def test_cocycle_trivial_and_cg():
    assert cocycle_check(build_twist(BDTriple.make(2))).passed
    assert cocycle_check(build_twist(CG, CG_THETA)).passed
    assert cocycle_check(build_twist(CG)).passed  # solver's own Theta


def test_cocycle_corrupted_theta_fails():
    bad = [row[:] for row in CG_THETA]
    bad[0][0] = bad[0][0] + 1  # breaks the mixed moment condition
    assert theta_residuals(CG, bad) != []
    rep = cocycle_check(build_twist(CG, bad))
    assert not rep.passed
    assert rep.witness and rep.witness["lhs"] != rep.witness["rhs"]


def test_beta_extension():
    tw = build_twist(CG, CG_THETA, CG_BETA)
    assert cocycle_check(tw).passed
    # antisymmetric beta flips its p-vector contribution with its sign
    p0 = p_vector(build_twist(CG, CG_THETA))
    pp = p_vector(tw)
    neg = [[-v for v in row] for row in CG_BETA]
    pm = p_vector(build_twist(CG, CG_THETA, neg))
    diff_plus = [a - b for a, b in zip(pp, p0)]
    diff_minus = [a - b for a, b in zip(pm, p0)]
    assert diff_plus == [-v for v in diff_minus]


def test_beta_validation():
    sym = [[0, 1, 0], [1, 0, 0], [0, 0, 0]]
    with pytest.raises(BetaNotInH0Error):
        build_twist(CG, CG_THETA, sym)
    # antisymmetric but not supported on h0: u = (1,-1,0) is not in h0
    bad = [
        [0, 0, 1],
        [0, 0, -1],
        [-1, 1, 0],
    ]
    with pytest.raises(BetaNotInH0Error):
        build_twist(CG, CG_THETA, bad)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cocycle_with_beta_across_triples(n):
    # a nonzero antisymmetric grid from the first two h0 directions
    for t in enumerate_triples(n):
        cd = cartan_data(t)
        if len(cd.h0_basis) < 2:
            continue
        u, v = cd.h0_basis[0], cd.h0_basis[1]
        beta = [
            [(u[i] * v[j] - v[i] * u[j]) / 2 for j in range(n)] for i in range(n)
        ]
        assert cocycle_check(build_twist(t, None, beta)).passed, (t, "beta cocycle")


def test_invalid_triples_raise_on_build():
    with pytest.raises(InvalidTripleError):
        build_twist(BDTriple.make(3, [1], [1], {1: 1}))
    with pytest.raises(OrderReversingError):
        build_twist(BDTriple.make(5, [1, 2], [3, 4], {1: 4, 2: 3}))


def test_p_vector_cg_recorded():
    tw = build_twist(CG, CG_THETA)
    assert p_vector(tw) == [H, 0, -H]


def test_theta_solution_object_accepted():
    sol = solve_theta(CG)
    assert isinstance(sol, ThetaSolution)
    tw = build_twist(CG, sol)
    assert cocycle_check(build_twist(CG, sol.theta)).passed
    assert tw.field.root_order == 2


def oracle_residuals(t, theta):
    """The moment conditions written out by hand, one formula per condition."""
    n = t.n
    th = [[Q(theta[i][j]) for j in range(n)] for i in range(n)]
    z = cartan_data(t).z_grid
    tau = t.tau
    bad = []
    for a in t.gamma1:
        ta = tau[a]
        for j in range(n):
            r = (th[a - 1][j] - th[a][j]) - (z[a - 1][j] - z[a][j])
            if r:
                bad.append(("row-moment", a, j + 1, r))
        for i in range(n):
            r = (th[i][ta - 1] - th[i][ta]) - (z[i][ta - 1] - z[i][ta])
            if r:
                bad.append(("col-moment", a, i + 1, r))
        for k in range(n):
            r = (th[ta - 1][k] - th[ta][k]) + (th[k][a - 1] - th[k][a])
            if r:
                bad.append(("mixed-moment", a, k + 1, r))
    return bad


TRIPLES_UP_TO_5 = [t for n in range(1, 6) for t in enumerate_triples(n)]


def test_residuals_match_the_hand_written_conditions():
    rng = random.Random(11)
    nonempty = 0
    for t in TRIPLES_UP_TO_5:
        n = t.n
        theta = solve_theta(t).theta
        assert theta_residuals(t, theta) == oracle_residuals(t, theta) == []
        for _ in range(30):
            bad = [row[:] for row in theta]
            for _ in range(rng.randint(1, 3)):
                i, j = rng.randrange(n), rng.randrange(n)
                bad[i][j] += Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            got = theta_residuals(t, bad)
            assert got == oracle_residuals(t, bad), (t, bad)
            nonempty += bool(got)
    # tau(a) = a +- 1 puts two terms of a mixed moment on one position
    assert any(abs(a - b) == 1 for t in TRIPLES_UP_TO_5 for a, b in t.tau_pairs)
    assert nonempty > 500


def oracle_cartan_data(t):
    """The dense routes behind cartan_data: Z = B_tau Ginv B^T as a triple
    sum over every index pair, and h0 as the dense kernel of the rows
    alpha_i - alpha_tau(i)."""
    n, tau = t.n, t.tau

    def alpha(i):
        return [Q(1) if k == i - 1 else Q(-1) if k == i else Q(0) for k in range(n)]

    a1 = [alpha(i) for i in t.gamma1]
    a1_tau = [alpha(tau[i]) for i in t.gamma1]
    gram = [[sum((x * y for x, y in zip(u, v)), Q(0)) for v in a1] for u in a1]
    ginv = dense_invert_grid(gram, Q(0), Q(1))
    r = range(len(a1))
    z = [
        [sum((a1_tau[i][k] * ginv[i][j] * a1[j][l] for i in r for j in r), Q(0))
         for l in range(n)]
        for k in range(n)
    ]
    eqs = [[x - y for x, y in zip(alpha(i), alpha(tau[i]))] for i in t.gamma1]
    return z, dense_kernel(eqs, n, Q(0), Q(1))


def test_cartan_data_matches_the_dense_oracle():
    assert len(TRIPLES_UP_TO_5) >= 25
    for t in TRIPLES_UP_TO_5:
        cd = cartan_data(t)
        assert (cd.z_grid, cd.h0_basis) == oracle_cartan_data(t), t


def oracle_in_span(vec, basis_rows, n):
    if all(not x for x in vec):
        return True
    if not basis_rows:
        return False
    rows = [{b: row[k] for b, row in enumerate(basis_rows) if row[k]} for k in range(n)]
    return solve_particular(rows, len(basis_rows), vec, Q(0), Q(1)) is not None


def oracle_check_beta(beta, t):
    """beta's antisymmetry, then each row and column in the span of h0."""
    n = t.n
    basis = cartan_data(t).h0_basis
    for i in range(n):
        for j in range(n):
            if beta[i][j] + beta[j][i]:
                return "beta must be antisymmetric"
    for i in range(n):
        if not oracle_in_span(beta[i], basis, n):
            return f"row {i + 1} of beta leaves the h0 span"
        if not oracle_in_span([beta[k][i] for k in range(n)], basis, n):
            return f"column {i + 1} of beta leaves the h0 span"
    return None


def test_beta_check_matches_the_span_oracle():
    rng = random.Random(5)
    verdicts = Counter()
    for t in TRIPLES_UP_TO_5:
        n = t.n
        basis = cartan_data(t).h0_basis
        for k in range(30):
            beta = [[Q(0)] * n for _ in range(n)]
            if k % 3 == 0 and len(basis) >= 2:
                u, v = rng.sample(basis, 2)
                c = rng.randint(-2, 2)
                beta = [[c * (u[i] * v[j] - v[i] * u[j]) for j in range(n)] for i in range(n)]
            else:
                for i in range(n):
                    for j in range(i + 1, n):
                        if rng.random() < 0.4:
                            x = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                            beta[i][j], beta[j][i] = x, -x
            if k % 10 == 9 and n > 1:
                beta[0][1] += 1  # no longer antisymmetric
            want = oracle_check_beta(beta, t)
            try:
                qdq.twist._check_beta(beta, t)
                got = None
            except BetaNotInH0Error as exc:
                got = str(exc)
            assert got == want, (t, beta)
            verdicts[want is None, want or ""] += 1
    assert verdicts[True, ""] > 50
    assert verdicts[False, "beta must be antisymmetric"] > 20
    assert sum(v for (ok, msg), v in verdicts.items() if msg.startswith("row")) > 200


def test_build_twist_validates_and_derives_once(monkeypatch):
    calls = Counter()

    def counted(name):
        inner = getattr(qdq.twist, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(qdq.twist, name, wrapper)

    counted("validate_triple")
    counted("cartan_data")
    build_twist(GL4)
    assert calls == {"validate_triple": 1, "cartan_data": 1}


def twists_up_to(max_n):
    """The twist of every valid triple with n <= max_n, solver's Theta."""
    return [build_twist(t) for n in range(1, max_n + 1) for t in enumerate_triples(n)]


def gl4_beta():
    """A nonzero beta in h0 (x) h0 for GL4, from its first two h0 directions."""
    u, v = cartan_data(GL4).h0_basis[:2]
    return [[(u[i] * v[j] - v[i] * u[j]) / 2 for j in range(4)] for i in range(4)]


def bad_cg_twist():
    bad = [row[:] for row in CG_THETA]
    bad[0][0] = bad[0][0] + 1  # breaks the mixed moment condition
    return build_twist(CG, bad)


def oracle_cocycle_sides(tw):
    """Both sides of the cocycle identity written out by hand, as chains of
    leg-embedded Cartan exponentials and Rt factors."""
    n = tw.n
    field = tw.field
    neg_theta = [[-v for v in row] for row in tw.theta]

    def ce(grid, legs):
        return leg_embed(cartan_exp(grid, field), legs, n, 3)

    rt13 = leg_embed(tw.j_factors[1], (1, 3), n, 3)
    rt23 = leg_embed(tw.j_factors[1], (2, 3), n, 3)
    rt12 = leg_embed(tw.j_factors[1], (1, 2), n, 3)
    j12 = leg_embed(tw.j_vv, (1, 2), n, 3)
    j23 = leg_embed(tw.j_vv, (2, 3), n, 3)
    lhs = (
        ce(neg_theta, (1, 3))
        * ce(neg_theta, (2, 3))
        * rt13
        * rt23
        * ce(tw.beta, (1, 3))
        * ce(tw.beta, (2, 3))
        * j12
    )
    rhs = (
        ce(neg_theta, (1, 3))
        * ce(neg_theta, (1, 2))
        * rt13
        * rt12
        * ce(tw.beta, (1, 3))
        * ce(tw.beta, (1, 2))
        * j23
    )
    return lhs, rhs


def checked_cocycle_sides(tw, monkeypatch):
    """cocycle_check's report and the two matrices it compared."""
    seen = []

    def capture(check, params, lhs, rhs):
        seen.append((lhs, rhs))
        return equality_report(check, params, lhs, rhs)

    with monkeypatch.context() as mp:
        mp.setattr(qdq.twist, "equality_report", capture)
        rep = cocycle_check(tw)
    (sides,) = seen
    return rep, sides


def test_cocycle_sides_match_the_hand_written_chains(monkeypatch):
    cases = twists_up_to(4) + [
        bad_cg_twist(),
        build_twist(CG, CG_THETA, CG_BETA),
        build_twist(GL4, None, gl4_beta()),
    ]
    assert len(cases) == 15
    verdicts = Counter()
    for tw in cases:
        rep, (lhs, rhs) = checked_cocycle_sides(tw, monkeypatch)
        want_lhs, want_rhs = oracle_cocycle_sides(tw)
        assert lhs == want_lhs and rhs == want_rhs, tw.triple
        want = equality_report("cocycle", rep.params, want_lhs, want_rhs)
        assert (rep.passed, rep.witness) == (want.passed, want.witness), tw.triple
        verdicts[rep.passed] += 1
    assert verdicts == {True: 14, False: 1}


def test_coproduct_factors_order_and_shared_exponentials():
    tw = build_twist(GL4, None, gl4_beta())
    pairs = [(1, 4), (2, 4), (3, 4)]
    factors = coproduct_factors(tw, pairs)
    assert [legs for _, legs in factors] == pairs * 3
    ops = [op for op, _ in factors]
    neg_theta = cartan_exp([[-v for v in row] for row in tw.theta], tw.field)
    assert ops[0] == neg_theta and ops[6] == cartan_exp(tw.beta, tw.field)
    assert all(op is ops[0] for op in ops[:3]) and all(op is ops[6] for op in ops[6:])
    assert all(op is tw.j_factors[1] for op in ops[3:6])


def test_pair_12_gives_the_twist():
    for tw in twists_up_to(4) + [build_twist(GL4, None, gl4_beta()), bad_cg_twist()]:
        [j] = leg_products([coproduct_factors(tw, [(1, 2)])], tw.n, 2)
        assert j == tw.j_vv, tw.triple


def iterated_twist_sides(tw):
    """(D^2 (x) 1)(J) (D (x) 1)(J)_123 J12 and its mirror
    (1 (x) D^2)(J) (1 (x) D)(J)_234 J34, both on V^(x)4."""
    lhs = (
        coproduct_factors(tw, [(1, 4), (2, 4), (3, 4)])
        + coproduct_factors(tw, [(1, 3), (2, 3)])
        + [(tw.j_vv, (1, 2))]
    )
    rhs = (
        coproduct_factors(tw, [(1, 4), (1, 3), (1, 2)])
        + coproduct_factors(tw, [(2, 4), (2, 3)])
        + [(tw.j_vv, (3, 4))]
    )
    return leg_products([lhs, rhs], tw.n, 4)


def test_iterated_twist_on_four_legs():
    for tw in twists_up_to(3) + [build_twist(GL4, None, gl4_beta())]:
        lhs, rhs = iterated_twist_sides(tw)
        assert lhs == rhs, tw.triple
    lhs, rhs = iterated_twist_sides(bad_cg_twist())
    assert lhs != rhs


def test_cartan_exponentials_are_built_once_per_twist(monkeypatch):
    # build_twist makes J's three factors, and the cocycle reuses them
    calls = []

    def counted(grid, field):
        calls.append(grid)
        return cartan_exp(grid, field)

    monkeypatch.setattr(qdq.twist, "cartan_exp", counted)
    tw = build_twist(CG, CG_THETA, CG_BETA)
    assert len(calls) == 3
    assert cocycle_check(tw).passed
    assert len(calls) == 3


def test_cocycle_embeds_each_distinct_factor_once(monkeypatch):
    # e^{-h Theta}, Rt and e^{h beta} on legs 13, 23 and 12, and J on 12 and
    # 23: both sides share the 11 embeddings
    tw = build_twist(GL4, None, gl4_beta())
    made = record_embeddings(monkeypatch)
    assert cocycle_check(tw).passed
    assert len(made) == 11 and {k for *_, k in made} == {3}
    assert len({(id(op), legs) for op, legs, _ in made}) == 11


def gl4_betas(count, seed=5):
    """Seeded betas in h0 (x) h0 for GL4: each pair of h0 directions with a
    coefficient from +-1/2, +-1."""
    rng = random.Random(seed)
    basis = cartan_data(GL4).h0_basis
    pairs = [(u, v) for a, u in enumerate(basis) for v in basis[a + 1 :]]
    out = []
    for _ in range(count):
        coeffs = [rng.choice((H, -H, 1, -1)) for _ in pairs]
        out.append([
            [sum(c * (u[i] * v[j] - v[i] * u[j]) for c, (u, v) in zip(coeffs, pairs))
             for j in range(4)]
            for i in range(4)
        ])
    return out


def test_j_is_the_product_of_its_three_factors():
    # e^{-h Theta} Rt e^{h beta} with Rt = e^{hZ} J' is e^{hY} J' e^{h beta}
    cases = [build_twist(t) for t in TRIPLES_UP_TO_5]
    cases += [build_twist(GL4, None, beta) for beta in gl4_betas(4) + [gl4_beta()]]
    assert len(cases) == 36
    for tw in cases:
        f = tw.field
        z = cartan_data(tw.triple).z_grid
        y = [[zij - tij for zij, tij in zip(zr, tr)] for zr, tr in zip(z, tw.theta)]
        neg_theta = [[-v for v in row] for row in tw.theta]
        assert tw.j_factors == (
            cartan_exp(neg_theta, f),
            cartan_exp(z, f) * tw.jprime_vv,
            cartan_exp(tw.beta, f),
        ), tw.triple
        assert tw.j_vv == cartan_exp(y, f) * tw.jprime_vv * cartan_exp(tw.beta, f), tw.triple


@pytest.mark.parametrize("root_order", [1, 2])
def test_jprime_matches_the_loop_oracle_on_every_triple(root_order):
    f = ScalarField(root_order)
    triples = [t for n in range(2, 7) for t in enumerate_triples(n)]
    assert len(triples) == 81
    for t in triples:
        assert jprime_matrix(t, f) == loop_builders.jprime_matrix(t, f), t


def test_unsolved_moment_residuals_raise(monkeypatch):
    # the solver's own residual check is a raise, not an assert that
    # python -O would strip
    monkeypatch.setattr(qdq.twist, "_residuals", lambda t, z, theta: [("row-moment", 1, 1, 1)])
    with pytest.raises(NoSolutionError, match="residuals"):
        solve_theta(CG)
    with pytest.raises(NoSolutionError):
        build_twist(CG)


def test_build_twist_refuses_a_root_order_past_the_bound():
    # the root order is the lcm of the grids' denominators: 1031 is prime
    theta = [[Fraction(1, 1031), 0], [0, 0]]
    with pytest.raises(InputError, match="root order 1031 exceeds the bound"):
        build_twist(BDTriple.make(2), theta)


@pytest.mark.parametrize("e", [MAX_EXPONENT + 1, -MAX_EXPONENT - 1])
def test_build_twist_refuses_a_cartan_exponent_past_the_bound(e):
    # an integral Theta or beta entry keeps the root order at 1, so only the
    # exponent bound stops cartan_exp from building an (|e|+1)-entry tuple
    t = BDTriple.make(2)
    with pytest.raises(InputError, match=f"exceeds the bound {MAX_EXPONENT}"):
        build_twist(t, [[e, 0], [0, 0]])
    with pytest.raises(InputError, match=f"exceeds the bound {MAX_EXPONENT}"):
        build_twist(t, beta=[[0, e], [-e, 0]])
    assert build_twist(t, [[MAX_EXPONENT, 0], [0, 0]]).field.root_order == 1
