"""Acceptance battery: every criterion exact, each with its time budget.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  All equalities are structural over Q(s); there are no
tolerances anywhere.
"""

import random
import time
from fractions import Fraction
from itertools import permutations

from qdq.errors import SubmatrixSingularError
from qdq.frt import (
    build_T,
    f_of_D_image,
    factors_commute,
    frt_check,
    perturbed,
    qdet_coaction,
    verify_factorization,
)
from qdq.linalg import Matrix, kron
from qdq.quasidet import (
    NCSquare,
    all_sigmas,
    corner_factors,
    det_sigma,
    inverse_via_quasiminors,
    quasideterminant,
    triangular_invariance_check,
)
from qdq.rmatrix import hecke_check, r_hat, wedge_top, ybe_check
from qdq.scalars import q_power
from qdq.twist import (
    BDTriple,
    build_twist,
    cocycle_check,
    enumerate_triples,
    solve_theta,
    theta_residuals,
    untwisted,
)

H = Fraction(1, 2)
CG = BDTriple.make(3, [1], [2], {1: 2})
CG_THETA = [[0, H, H], [H, 0, H], [0, H, 0]]
CG_BETA = [[0, H, 1], [-H, 0, H], [-1, -H, 0]]
GL4 = BDTriple.make(4, [1], [3], {1: 3})


def budget(name, seconds):
    t0 = time.perf_counter()

    def done():
        dt = time.perf_counter() - t0
        print(f"PASS {name}: {dt:.2f}s (budget {seconds}s)")
        assert dt < seconds, f"{name} exceeded its {seconds}s budget ({dt:.2f}s)"

    return done


def assert_full_battery(tw, expected_image=None, sigmas=None, k1=1, k2=1):
    rep = verify_factorization(tw, k1=k1, k2=k2, sigmas=sigmas)
    assert rep.passed, f"{rep.witness}"
    if expected_image is not None:
        assert f_of_D_image(tw, k1, k2) == expected_image
    return rep


def test_untwisted_factorization_n2():
    done = budget("untwisted factorization n=2", 1.0)
    tw = untwisted(2)
    model = build_T(tw)
    ident = Matrix.identity(4, tw.field)
    factors = corner_factors(model.t_blocks)
    assert factors_commute(model, factors).passed
    for sigma in all_sigmas(2):
        val = det_sigma(model.t_blocks, sigma, factors)
        assert val == ident
    assert qdet_coaction(model) == ident
    assert f_of_D_image(tw) == ident
    done()


def test_untwisted_factorization_n3():
    done = budget("untwisted factorization n=3", 30.0)
    tw = untwisted(3)
    model = build_T(tw)
    ident = Matrix.identity(9, tw.field)
    factors = corner_factors(model.t_blocks)
    assert factors_commute(model, factors).passed
    vals = [det_sigma(model.t_blocks, sigma, factors) for sigma in all_sigmas(3)]
    assert len(vals) == 6
    for v in vals:
        assert v == ident
    assert qdet_coaction(model) == ident
    assert frt_check(model).passed
    done()


def _cg_expected_image(field):
    # diag(q^{3/2}, q, q^{1/2}) (x) diag(q^{-1/2}, q^{-1}, q^{-3/2})
    left = Matrix.diag(
        [q_power(Fraction(3, 2), field), q_power(1, field), q_power(H, field)], field
    )
    right = Matrix.diag(
        [q_power(Fraction(-1, 2), field), q_power(-1, field), q_power(Fraction(-3, 2), field)],
        field,
    )
    return kron(left, right)


def test_cremmer_gervais_gl3():
    done = budget("Cremmer-Gervais gl3, recorded theta", 120.0)
    sol = solve_theta(CG)
    assert theta_residuals(CG, sol.theta) == []
    assert theta_residuals(CG, CG_THETA) == []
    tw = build_twist(CG, CG_THETA)
    assert cocycle_check(tw).passed
    assert ybe_check(tw.r_j).passed
    rep = hecke_check(r_hat(tw.r_j))
    assert rep.passed and rep.details["eigenspace_dims"] == (6, 3)
    w = wedge_top(r_hat(tw.r_j), 3)  # raises unless dimension is exactly 1
    assert any(w)
    model = build_T(tw)
    image = f_of_D_image(tw)  # recomputed from the twist's own p-vector
    assert image == _cg_expected_image(tw.field)
    factors = corner_factors(model.t_blocks)
    assert factors_commute(model, factors).passed
    for sigma in all_sigmas(3):
        val = det_sigma(model.t_blocks, sigma, factors)
        assert val == image
    assert qdet_coaction(model) == image
    done()


def test_beta_extension_gl3():
    done = budget("beta extension gl3", 120.0)
    tw = build_twist(CG, CG_THETA, CG_BETA)
    assert cocycle_check(tw).passed
    assert_full_battery(tw)
    done()


def test_gl4_battery():
    done = budget("gl4 (1 -> 3), all 24 sigma", 600.0)
    tw = build_twist(GL4)
    rep = assert_full_battery(tw, sigmas=all_sigmas(4))
    assert rep.params["sigmas"] == 24
    done()


def test_gl4_battery_k21():
    # the k >= 2 probe: W1 = V (x) V, so T acts on 64 dimensions
    done = budget("gl4 (1 -> 3), k = (2, 1), all 24 sigma", 2.0)
    tw = build_twist(GL4)
    rep = assert_full_battery(tw, sigmas=all_sigmas(4), k1=2, k2=1)
    assert rep.params["sigmas"] == 24 and (rep.params["k1"], rep.params["k2"]) == (2, 1)
    done()


def test_gl5_two_root_block_battery():
    # a twist whose diagram block has two roots: exercises the multi-term
    # unipotent part and root order 3 (the block Gram inverse has thirds)
    done = budget("gl5 two-root block, all 120 sigma", 60.0)
    t = BDTriple.make(5, [1, 2], [3, 4], {1: 3, 2: 4})
    tw = build_twist(t)
    assert tw.field.root_order == 3
    rep = assert_full_battery(tw, sigmas=all_sigmas(5))
    assert rep.params["sigmas"] == 120
    done()


def _leibniz_det(grid):
    m = len(grid)
    total = Fraction(0)
    for perm in permutations(range(m)):
        sign = 1
        for a in range(m):
            for b in range(a + 1, m):
                if perm[a] > perm[b]:
                    sign = -sign
        term = Fraction(1)
        for r, c in enumerate(perm):
            term *= grid[r][c]
        total += sign * term
    return total


def test_quasideterminant_property_suite():
    done = budget("quasideterminant property suite", 60.0)
    from qdq.scalars import ScalarField

    F = ScalarField(1)
    rng = random.Random(20240207)

    def square(grid):
        return NCSquare([[F.from_rational(v) for v in row] for row in grid], F)

    passed = 0
    while passed < 100:
        m = rng.randint(2, 4)
        grid = [[Fraction(rng.randint(-5, 5)) for _ in range(m)] for _ in range(m)]
        det = _leibniz_det(grid)
        x = square(grid)
        i, j = rng.randint(1, m), rng.randint(1, m)
        minor = _leibniz_det(
            [
                [v for c, v in enumerate(row) if c != j - 1]
                for r, row in enumerate(grid)
                if r != i - 1
            ]
        )
        if minor == 0 or det == 0:
            continue
        try:
            # ratio identity at the random puncture
            assert quasideterminant(x, i, j) * F.from_rational(minor) == F.from_rational(
                (-1) ** (i + j) * det
            )
            # ordered products all equal the commutative determinant
            want = F.from_rational(det)
            for sigma in all_sigmas(m):
                assert det_sigma(x, sigma) == want
            # invariance under unitriangular sandwiching
            z = [[Fraction(1 if a == b else 0) for b in range(m)] for a in range(m)]
            y = [[Fraction(1 if a == b else 0) for b in range(m)] for a in range(m)]
            for a in range(m):
                for b in range(m):
                    if a > b:
                        z[a][b] = Fraction(rng.randint(-3, 3))
                    elif a < b:
                        y[a][b] = Fraction(rng.randint(-3, 3))
            assert triangular_invariance_check(
                x, square(z), square(y), all_sigmas(m)[rng.randrange(len(all_sigmas(m)))]
            )
            # quasiminor inverse multiplies back to the identity
            inv = inverse_via_quasiminors(x)
            prod = x.matmul(inv)
            for a in range(m):
                for b in range(m):
                    assert prod.entries[a][b] == (1 if a == b else 0)
        except SubmatrixSingularError:
            continue
        passed += 1
    assert passed >= 100
    done()


def test_solver_coverage_n_up_to_5():
    done = budget("solver coverage n <= 5", 600.0)
    total = 0
    for n in range(2, 6):
        for t in enumerate_triples(n):
            sol = solve_theta(t)
            assert theta_residuals(t, sol.theta) == []
            assert cocycle_check(build_twist(t, sol.theta)).passed, (n, t)
            total += 1
    assert total >= 25  # includes every nonempty datum plus the empty ones
    print(f"  ({total} triples covered)")
    done()


def test_negative_controls():
    done = budget("negative controls", 60.0)
    bad = [row[:] for row in CG_THETA]
    bad[0][0] = bad[0][0] + 1  # breaks the mixed moment condition
    rep = cocycle_check(build_twist(CG, bad))
    assert not rep.passed
    assert rep.witness is not None
    assert rep.witness["lhs"] != rep.witness["rhs"]
    assert "coords" in rep.witness

    model = perturbed(build_T(untwisted(2)))
    rep = frt_check(model)
    assert not rep.passed
    assert rep.witness is not None and "coords" in rep.witness
    assert rep.witness["lhs"] != rep.witness["rhs"]
    done()
