"""Belavin-Drinfeld-type diagram data and the triangular twist construction.

A datum is a pair of disjoint subsets Gamma1, Gamma2 of the simple roots
{1..n-1} of gl_n with an adjacency-preserving bijection tau: Gamma1 ->
Gamma2 that is order-preserving on every connected block.  From it we
build, entirely at the level of operators on V (x) V:

  * the Cartan tensor Z = (tau (x) 1) applied to the h1 Casimir,
  * a rational solution Theta of the two moment conditions

        (x (x) 1, Z - Theta) = (1 (x) tau(x), Z - Theta) = 0
        (tau(x) (x) 1 + 1 (x) x, Theta) = 0          for x in h1,

  * the unipotent part J' = 1 + (q - 1/q) sum E_{tau(i), tau(j)} (x) E_{j, i}
    over pairs i < j in each block's vertex interval,
  * the twist J = e^{-h Theta} Rt e^{h beta}, Rt = e^{hZ} J', with beta an
    antisymmetric Cartan tensor supported on h0 (x) h0,
    h0 = {y : (y, x) = (y, tau(x))},
  * the twisted braiding R_J = J21^{-1} R J, J21 being J on the legs (2, 1).

The twist property itself is never assumed: cocycle_check evaluates both
sides of the coproduct identity on V (x) V (x) V exactly, multiplying out
the two-leg factors that coproduct_factors gives for each coproduct of J.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BetaNotInH0Error,
    InvalidTripleError,
    NoSolutionError,
    OrderReversingError,
)
from .linalg import (
    Matrix,
    from_units,
    gauss_invert,
    invert_grid,
    kernel_basis_grid,
    leg_embed,  # unused here; perfbench's tracer tests read this binding
    leg_products,
    solve_particular,
)
from .report import Report, equality_report, timed
from .rmatrix import cartan_exp, standard_r
from .scalars import Q, ScalarField, as_rational, lcm_denominators

_Q0 = Q(0)
_Q1 = Q(1)


@dataclass(frozen=True)
class BDTriple:
    """(Gamma1, Gamma2, tau) with tau given as ordered pairs (a, tau(a))."""

    n: int
    gamma1: tuple
    gamma2: tuple
    tau_pairs: tuple

    @classmethod
    def make(cls, n, gamma1=(), gamma2=(), tau=None):
        g1 = tuple(sorted(set(int(a) for a in gamma1)))
        g2 = tuple(sorted(set(int(a) for a in gamma2)))
        tau = dict(tau or {})
        pairs = tuple(sorted((int(a), int(b)) for a, b in tau.items()))
        return cls(n, g1, g2, pairs)

    @property
    def tau(self) -> dict:
        return dict(self.tau_pairs)

    def blocks(self):
        """Connected components of gamma1 as (first_root, last_root) pairs."""
        g1 = self.gamma1
        firsts = [a for a in g1 if a - 1 not in g1]
        return list(zip(firsts, [a for a in g1 if a + 1 not in g1]))


@timed
def validate_triple(t: BDTriple) -> Report:
    """Clause-by-clause structural validation; report-valued."""
    failed = []
    tau = t.tau
    roots = set(range(1, t.n))
    if not set(t.gamma1) <= roots or not set(t.gamma2) <= roots:
        failed.append("RootRange")
    if set(tau.keys()) != set(t.gamma1) or set(tau.values()) != set(t.gamma2) or len(
        set(tau.values())
    ) != len(tau):
        failed.append("NotBijection")
    if set(t.gamma1) & set(t.gamma2):
        failed.append("NotDisjoint")
    g1 = t.gamma1
    if "NotBijection" not in failed and "RootRange" not in failed:
        if any((abs(a - b) == 1) != (abs(tau[a] - tau[b]) == 1) for a in g1 for b in g1):
            failed.append("AdjacencyBroken")
        elif any(a + 1 in g1 and tau[a + 1] != tau[a] + 1 for a in g1):
            failed.append("OrderReversing")
    rep = Report(
        "triple",
        {"n": t.n, "g1": t.gamma1, "g2": t.gamma2, "tau": t.tau_pairs},
        not failed,
        details={"failed_clauses": failed},
    )
    if failed:
        rep.witness = {"clauses": failed}
    return rep


def require_valid(t: BDTriple):
    rep = validate_triple(t)
    if not rep.passed:
        clauses = rep.details["failed_clauses"]
        if clauses == ["OrderReversing"]:
            raise OrderReversingError(f"tau reverses a block of {t.gamma1}")
        raise InvalidTripleError(f"invalid triple: {', '.join(clauses)}")


@dataclass
class CartanData:
    """Exact rational data attached to a valid triple."""

    n: int
    z_grid: list  # coefficients of Z in the H_i (x) H_j basis
    h0_basis: list


def _alpha(i: int, n: int):
    v = [_Q0] * n
    v[i - 1] = _Q1
    v[i] = -_Q1
    return v


def _h0_equations(t: BDTriple):
    """Rows alpha_i - alpha_tau(i), i in Gamma1: h0 is the kernel of these."""
    n, tau = t.n, t.tau
    return [
        [x - y for x, y in zip(_alpha(i, n), _alpha(tau[i], n))] for i in t.gamma1
    ]


def cartan_data(t: BDTriple) -> CartanData:
    require_valid(t)
    n = t.n
    tau = t.tau
    a1 = [_alpha(i, n) for i in t.gamma1]
    a1_tau = [_alpha(tau[i], n) for i in t.gamma1]
    # the Gram matrix of simple roots is a principal submatrix of the A-type
    # Cartan matrix, so it is positive definite and inverts
    gram = [[sum(x * y for x, y in zip(u, v)) for v in a1] for u in a1]
    ginv = invert_grid(gram, _Q0, _Q1)
    # Z = (tau (x) 1) of the h1 Casimir; in H-grid coordinates this is
    # tau as a linear map, B_tau Ginv B^T: basis-independent, kills h1-perp.
    # Ginv B^T first, skipping zeros; each nonzero entry of B_tau then adds
    # its multiple of one row of it.
    gb = [[sum((g * a[l] for g, a in zip(row, a1) if g and a[l]), _Q0)
           for l in range(n)] for row in ginv]
    z_grid = [[_Q0] * n for _ in range(n)]
    for tau_row, gb_row in zip(a1_tau, gb):
        for k, x in enumerate(tau_row):
            if x:
                z_grid[k] = [z + x * g for z, g in zip(z_grid[k], gb_row)]
    h0_basis = kernel_basis_grid(_h0_equations(t), n, _Q0, _Q1)
    return CartanData(n=n, z_grid=z_grid, h0_basis=h0_basis)


@dataclass
class ThetaSolution:
    """A Cartan correction Theta with its residual companion Y = Z - Theta
    and the exact residuals of the moment conditions at Theta, which the
    solver has checked to be empty."""

    theta: list
    y: list
    residuals: list


def _grid(values, n):
    return [[as_rational(values[i][j]) for j in range(n)] for i in range(n)]


def _moment_system(t: BDTriple, z):
    """The moment conditions on Theta, one linear equation at a time.

    Yields (condition, root, index, {position: coefficient}, rhs), the
    position of theta_ij (1-based i, j) being (i - 1) n + (j - 1): for each
    a in Gamma1 the row moments j = 1..n, the column moments i = 1..n at
    tau(a), then the mixed moments k = 1..n.  Two terms of a mixed moment
    share a position when tau(a) = a +- 1; their coefficients add.
    """
    n = t.n
    tau = t.tau

    def eq(*cells):
        # +-1 times theta at each (i, j, sign); equal positions add, zeros drop
        out = {}
        for i, j, sign in cells:
            p = (i - 1) * n + (j - 1)
            out[p] = out.get(p, 0) + sign
        return {p: Q(c) for p, c in out.items() if c}

    for a in t.gamma1:
        ta = tau[a]
        for j in range(1, n + 1):
            rhs = z[a - 1][j - 1] - z[a][j - 1]
            yield "row-moment", a, j, eq((a, j, 1), (a + 1, j, -1)), rhs
        for i in range(1, n + 1):
            rhs = z[i - 1][ta - 1] - z[i - 1][ta]
            yield "col-moment", a, i, eq((i, ta, 1), (i, ta + 1, -1)), rhs
        for k in range(1, n + 1):
            mixed = eq((ta, k, 1), (ta + 1, k, -1), (k, a, 1), (k, a + 1, -1))
            yield "mixed-moment", a, k, mixed, _Q0


def _residuals(t: BDTriple, z, theta) -> list:
    flat = [v for row in theta for v in row]
    bad = []
    for cond, a, idx, eq, rhs in _moment_system(t, z):
        r = sum((c * flat[p] for p, c in eq.items()), _Q0) - rhs
        if r:
            bad.append((cond, a, idx, r))
    return bad


def _solve_theta(t: BDTriple, z):
    """(theta, residuals) for the moment system of t with Cartan grid z."""
    n = t.n
    rows, rhs = [], []
    for *_, eq, b in _moment_system(t, z):
        rows.append(eq)
        rhs.append(b)
    x = solve_particular(rows, n * n, rhs, _Q0, _Q1)
    if x is None:
        raise NoSolutionError("moment conditions are inconsistent for a valid triple")
    theta = [x[i * n : (i + 1) * n] for i in range(n)]
    residuals = _residuals(t, z, theta)
    if residuals:
        raise NoSolutionError(f"solved Theta leaves moment residuals {residuals}")
    return theta, residuals


def theta_residuals(t: BDTriple, theta) -> list:
    """Exact residuals of the two moment conditions; empty means solved."""
    return _residuals(t, cartan_data(t).z_grid, _grid(theta, t.n))


def solve_theta(t: BDTriple) -> ThetaSolution:
    """Deterministic rational solution of the moment conditions.

    Unknowns theta_ij are ordered lexicographically and solved by one
    reduced-echelon pass with free variables pinned to zero; solvability
    is guaranteed for valid triples, so inconsistency raises
    NoSolutionError as an internal fault.
    """
    z = cartan_data(t).z_grid
    theta, residuals = _solve_theta(t, z)
    y = [[zij - tij for zij, tij in zip(zr, tr)] for zr, tr in zip(z, theta)]
    return ThetaSolution(theta, y, residuals)


# ---------------------------------------------------------------------------
# Twist assembly
# ---------------------------------------------------------------------------

@dataclass
class Twist:
    """Assembled twist data in the vector representation."""

    triple: BDTriple
    theta: list
    beta: list
    a_grid: list  # Cartan exponent of J0, equal to Y + beta
    field: ScalarField
    jprime_vv: Matrix
    j_factors: tuple  # e^{-h Theta}, Rt = e^{hZ} J', e^{h beta}: J's factors
    j_vv: Matrix
    r_j: Matrix

    @property
    def n(self):
        return self.triple.n


def _check_beta(beta, t: BDTriple):
    n = t.n
    for i in range(n):
        for j in range(n):
            if beta[i][j] + beta[j][i]:
                raise BetaNotInH0Error("beta must be antisymmetric")
    # antisymmetry makes column i the negative of row i, so rows suffice
    eqs = _h0_equations(t)
    for i, row in enumerate(beta, 1):
        if any(sum(e * b for e, b in zip(eq, row)) for eq in eqs):
            raise BetaNotInH0Error(f"row {i} of beta leaves the h0 span")


def jprime_matrix(t: BDTriple, field: ScalarField) -> Matrix:
    """Unipotent part of the twist on V (x) V:
    J' = 1 + (q - 1/q) sum E_{tau(i), tau(j)} (x) E_{j, i}.

    One term per pair i < j in each block's vertex interval, tau its vertex
    map.  Cross terms of the underlying exponential vanish on V (x) V, as
    consecutive matrix units annihilate, so this closed form is exact; the
    intervals are disjoint, so no two terms share a position.
    """
    v, lam = range(1, t.n + 1), field.q - field.q_inv
    units = {((a, b), (a, b)): field.one for a in v for b in v}
    for start, end in t.blocks():
        d, verts = t.tau[start] - start, range(start, end + 2)
        units.update({((i + d, j), (j + d, i)): lam for i in verts for j in verts if i < j})
    return from_units(t.n, units, field)


def build_twist(t: BDTriple, theta=None, beta=None) -> Twist:
    """Assemble J and R_J on V (x) V from a triple, Theta, and beta.

    Theta defaults to the deterministic solver output and is otherwise
    taken as given (solutions form an affine family; callers may supply
    their own).  beta defaults to zero and must be antisymmetric with
    support in h0 (x) h0.
    """
    z = cartan_data(t).z_grid
    n = t.n
    if theta is None:
        theta, _ = _solve_theta(t, z)
    elif isinstance(theta, ThetaSolution):
        theta = theta.theta
    theta = _grid(theta, n)
    beta = _grid(beta, n) if beta is not None else [[_Q0] * n for _ in range(n)]
    _check_beta(beta, t)
    y = [[z[i][j] - theta[i][j] for j in range(n)] for i in range(n)]
    a_grid = [[y[i][j] + beta[i][j] for j in range(n)] for i in range(n)]
    # one root order for the whole session: every exponent grid must embed
    M = lcm_denominators(v for g in (z, theta, beta) for row in g for v in row)
    field = ScalarField(M)
    jp = jprime_matrix(t, field)
    minus_theta = [[-v for v in row] for row in theta]
    j_factors = (cartan_exp(minus_theta, field), cartan_exp(z, field) * jp,
                 cartan_exp(beta, field))
    j_vv = j_factors[0] * j_factors[1] * j_factors[2]
    # R_J = J21^{-1} R J, J21 being J on the legs (2, 1)
    chain = [(gauss_invert(j_vv), (2, 1)), (standard_r(n, field), (1, 2)), (j_vv, (1, 2))]
    r_j = leg_products([chain], n, 2)[0]
    return Twist(
        triple=t,
        theta=theta,
        beta=beta,
        a_grid=a_grid,
        field=field,
        jprime_vv=jp,
        j_factors=j_factors,
        j_vv=j_vv,
        r_j=r_j,
    )


def untwisted(n: int) -> Twist:
    """The trivial twist (empty diagram data): J = Id, R_J the standard R."""
    return build_twist(BDTriple.make(n))


def coproduct_factors(tw: Twist, pairs: list) -> list:
    """The factors (operator on V (x) V, legs) of an iterated coproduct of J,
    in product order: each of tw.j_factors on every pair of legs.  The
    Cartan generators are primitive and Rt obeys the hexagon identities,
    so pairs (a, k+1) for a = 1..k give
    (D^(k-1) (x) 1)(J), pairs (1, b) for b = k+1..2 give (1 (x) D^(k-1))(J)
    and the pair (1, 2) gives J."""
    return [(op, legs) for op in tw.j_factors for legs in pairs]


@timed
def cocycle_check(tw: Twist) -> Report:
    """Both sides of the twist coproduct identity on V (x) V (x) V.

    The check is pass iff (D (x) 1)(J) J12 = (1 (x) D)(J) J23 exactly, with
    both coproducts from coproduct_factors:

        (D (x) 1)(J) = e^{-h(Th13 + Th23)} Rt13 Rt23 e^{h(b13 + b23)}
        (1 (x) D)(J) = e^{-h(Th13 + Th12)} Rt13 Rt12 e^{h(b13 + b12)}
    """
    n = tw.n

    lhs = coproduct_factors(tw, [(1, 3), (2, 3)]) + [(tw.j_vv, (1, 2))]
    rhs = coproduct_factors(tw, [(1, 3), (1, 2)]) + [(tw.j_vv, (2, 3))]
    lhs, rhs = leg_products([lhs, rhs], n, 3)
    params = {
        "n": n,
        "g1": tw.triple.gamma1,
        "g2": tw.triple.gamma2,
        "tau": tw.triple.tau_pairs,
        "root_order": tw.field.root_order,
    }
    return equality_report("cocycle", params, lhs, rhs)


def p_vector(tw: Twist):
    """Cartan exponent of the grouplike normalization: column sums minus
    row sums of the twist's Cartan grid."""
    a = tw.a_grid
    return [sum(col) - sum(row) for row, col in zip(a, zip(*a))]


def enumerate_triples(n: int):
    """All valid triples for gl_n, including the empty one."""
    from itertools import combinations, permutations

    roots = list(range(1, n))
    out = [BDTriple.make(n)]
    for size in range(1, len(roots) // 2 + 1):
        for g1 in combinations(roots, size):
            rest = [r for r in roots if r not in g1]
            for g2 in combinations(rest, size):
                for img in permutations(g2):
                    tau = dict(zip(g1, img))
                    t = BDTriple.make(n, g1, g2, tau)
                    if validate_triple(t).passed:
                        out.append(t)
    return out
