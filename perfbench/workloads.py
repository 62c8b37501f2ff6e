"""The benchmark's three workloads: seeded inputs, one op, and its check.

Every workload has the same interface:

* ``inputs(seed)`` returns the op specs, plain data derived only from the
  seed (the program sees nothing else);
* ``prepare(specs, workdir)`` writes any input files the ops read;
* ``warmup(specs)`` names the specs to run once before timing;
* ``run(spec)`` performs one op through qdq's public entry points, looked
  up on the module at call time so that a traced run goes through the
  tracer's wrappers;
* ``check(spec, out, ref)`` returns None when the output is right, else a
  reason; ``ref`` is the warm-up output of the same spec, if any;
* ``verdict(out)`` is what a traced and an untraced run must agree on;
* ``out_bytes(out)`` is the size of the op's serialized output.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import qdq.cli
import qdq.frt
import qdq.io_json
import qdq.linalg
import qdq.quasidet
import qdq.scalars
import qdq.twist


def strip_timings(obj):
    """Report JSON without its wall-clock fields, which differ run to run."""
    if isinstance(obj, dict):
        return {k: strip_timings(v) for k, v in obj.items() if k != "ms"}
    if isinstance(obj, list):
        return [strip_timings(v) for v in obj]
    return obj


def _report_verdict(rep):
    return json.dumps(strip_timings(qdq.io_json.report_to_json(rep)), sort_keys=True)


# ---------------------------------------------------------------------------
# battery-gl4
# ---------------------------------------------------------------------------

class BatteryGl4:
    """verify_factorization on gl4 (1 -> 3), all 24 sigma, k = (1, 1).

    Each op draws an antisymmetric beta in h0 ^ h0 with coefficients in
    {0, +-1/2, +-1} on the three wedges of the h0 basis.  Op cost grows
    with the number of nonzero coefficients, so ops alternate between
    three and two of them: every run then holds the same mix whatever
    the seed, which keeps the median steady across seeds.
    """

    name = "battery-gl4"
    n_inputs = 48
    _values = (Fraction(1, 2), Fraction(-1, 2), Fraction(1), Fraction(-1))

    def __init__(self):
        self.triple = qdq.twist.BDTriple.make(4, [1], [3], {1: 3})

    def inputs(self, seed):
        rng = random.Random(seed)
        basis = qdq.twist.cartan_data(self.triple).h0_basis
        wedges = [(a, b) for a in range(len(basis)) for b in range(a + 1, len(basis))]
        specs = []
        for op in range(self.n_inputs):
            coeffs = [rng.choice(self._values) for _ in wedges]
            if op % 2:
                coeffs[rng.randrange(len(wedges))] = Fraction(0)
            beta = [[Fraction(0)] * 4 for _ in range(4)]
            for c, (a, b) in zip(coeffs, wedges):
                u, v = basis[a], basis[b]
                for i in range(4):
                    for j in range(4):
                        beta[i][j] += c * (u[i] * v[j] - v[i] * u[j])
            specs.append({"beta": [[str(x) for x in row] for row in beta]})
        return specs

    def prepare(self, specs, workdir):
        pass

    def warmup(self, specs):
        return []

    def run(self, spec):
        beta = [[Fraction(x) for x in row] for row in spec["beta"]]
        tw = qdq.twist.build_twist(self.triple, beta=beta)
        return qdq.frt.verify_factorization(tw, 1, 1, qdq.quasidet.all_sigmas(4))

    def check(self, spec, out, ref):
        if not out.passed:
            return f"battery failed: {out.witness}"
        if out.params["sigmas"] != 24:
            return f"battery ran {out.params['sigmas']} orderings, not 24"
        failed = [r.check for r in out.details["checks"] if not r.passed]
        return f"subchecks failed: {failed}" if failed else None

    def verdict(self, out):
        return _report_verdict(out)

    def out_bytes(self, out):
        return 0


# ---------------------------------------------------------------------------
# generic-qs
# ---------------------------------------------------------------------------

def _fdet(grid):
    """Exact determinant of a rational grid by fraction Gaussian elimination."""
    a = [row[:] for row in grid]
    m = len(a)
    det = Fraction(1)
    for c in range(m):
        piv = next((r for r in range(c, m) if a[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, m):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def _drop(grid, i, j):
    return [[v for c, v in enumerate(row) if c != j] for r, row in enumerate(grid) if r != i]


def leibniz_det(entries, one):
    """Commutative determinant over RatFunc by the Leibniz sum (the oracle)."""
    m = len(entries)
    total = one - one
    for perm in permutations(range(m)):
        sign = 1
        for a in range(m):
            for b in range(a + 1, m):
                if perm[a] > perm[b]:
                    sign = -sign
        term = one if sign > 0 else -one
        for r, c in enumerate(perm):
            term = term * entries[r][c]
        total = total + term
    return total


class GenericQs:
    """Dense m x m matrices over Q(s) with non-monomial denominators.

    Entries are (a0 + a1 s + a2 s^2) / (1 + b1 s + b2 s^2) with small
    integers, b1 >= 1 and b2 >= 0.
    At s = 1 no denominator vanishes, so a minor that is nonzero there is
    nonzero over Q(s); inputs are redrawn until the full determinant, the
    leading principal minors and every (m-1)-minor are nonzero at s = 1,
    which makes every op below well defined.
    """

    name = "generic-qs"
    n_inputs = 50
    # One cycle of the op mix, as (op, m); runs repeat it.  Four cheaper
    # ops, two quasiminor inverses and four dearer ops per cycle put the
    # median inside the narrow cost band of the inverses, where it does
    # not jump between op kinds from one seed to the next.
    cycle = (
        ("gauss_invert", 4),
        ("quasideterminant", 4),
        ("det_sigma", 4),
        ("inverse_via_quasiminors", 3),
        ("gauss_invert", 3),
        ("gauss_invert", 4),
        ("quasideterminant", 3),
        ("det_sigma", 4),
        ("inverse_via_quasiminors", 3),
        ("det_sigma", 3),
    )

    def __init__(self):
        self.field = qdq.scalars.ScalarField(1)

    def _entry(self, rng):
        while True:
            num = (rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3))
            if any(num):
                return (num, (1, rng.randint(1, 3), rng.randint(0, 2)))

    def _grid_at_one(self, grid):
        return [[Fraction(sum(n), sum(d)) for n, d in row] for row in grid]

    def _usable(self, grid):
        g = self._grid_at_one(grid)
        m = len(g)
        minors = [g] + [[row[:l] for row in g[:l]] for l in range(1, m)]
        minors += [_drop(g, i, j) for i in range(m) for j in range(m)]
        return all(_fdet(x) for x in minors)

    def inputs(self, seed):
        rng = random.Random(seed)
        specs = []
        for k in range(self.n_inputs):
            op, m = self.cycle[k % len(self.cycle)]
            while True:
                grid = [[self._entry(rng) for _ in range(m)] for _ in range(m)]
                if self._usable(grid):
                    break
            spec = {"op": op, "grid": grid}
            if op == "quasideterminant":
                spec["ij"] = (rng.randint(1, m), rng.randint(1, m))
            specs.append(spec)
        return specs

    def prepare(self, specs, workdir):
        pass

    def warmup(self, specs):
        return specs[: len(self.cycle)]

    def _square(self, spec):
        f = self.field
        return qdq.quasidet.NCSquare(
            [[f.from_coeffs(n, d) for n, d in row] for row in spec["grid"]], f
        )

    def run(self, spec):
        x = self._square(spec)
        op = spec["op"]
        if op == "gauss_invert":
            return qdq.linalg.gauss_invert(qdq.linalg.Matrix(x.m, x.m, x.entries, x.field))
        if op == "quasideterminant":
            return qdq.quasidet.quasideterminant(x, *spec["ij"])
        if op == "det_sigma":
            factors = qdq.quasidet.corner_factors(x)
            return [
                qdq.quasidet.det_sigma(x, sigma, factors)
                for sigma in qdq.quasidet.all_sigmas(x.m)
            ]
        return qdq.quasidet.inverse_via_quasiminors(x)

    def check(self, spec, out, ref):
        x = self._square(spec)
        f = self.field
        m = x.m
        op = spec["op"]
        if op == "quasideterminant":
            i, j = spec["ij"]
            minor = leibniz_det(_drop(x.entries, i - 1, j - 1), f.one)
            want = leibniz_det(x.entries, f.one)
            if (i + j) % 2:
                want = -want
            return None if out * minor == want else "quasideterminant ratio identity fails"
        if op == "det_sigma":
            want = leibniz_det(x.entries, f.one)
            bad = [s for s, v in zip(qdq.quasidet.all_sigmas(m), out) if v != want]
            return f"det_sigma differs from Leibniz for {bad[:3]}" if bad else None
        inv = out.entries
        a = qdq.linalg.Matrix(m, m, x.entries, f)
        b = qdq.linalg.Matrix(m, m, inv, f)
        ident = qdq.linalg.Matrix.identity(m, f)
        if a * b != ident or b * a != ident:
            return f"{op} does not multiply back to the identity"
        return None

    def verdict(self, out):
        if isinstance(out, list):
            return [str(v) for v in out]
        if hasattr(out, "entries"):
            return [[str(v) for v in row] for row in out.entries]
        return str(out)

    def out_bytes(self, out):
        return 0


# ---------------------------------------------------------------------------
# sweep-cli
# ---------------------------------------------------------------------------

def _triple_args(t):
    args = ["--n", str(t.n)]
    if t.gamma1:
        args += [
            "--g1", ",".join(map(str, t.gamma1)),
            "--g2", ",".join(map(str, t.gamma2)),
            "--tau", ",".join(f"{a}>{b}" for a, b in t.tau_pairs),
        ]
    return args


class SweepCli:
    """In-process ``qdq.cli.run`` over every valid triple with n <= 5.

    Per triple: solve-theta and check ybe / hecke / cocycle; check main
    (all sigma) for n <= 3; std-r once per n; and, for each nonempty
    triple, check cocycle with a seed-perturbed Theta whose moment
    residuals are nonzero, which must exit 1 with a witness.  The ladder
    is shuffled by the seed and cycled until the run ends.
    """

    name = "sweep-cli"
    max_n = 5
    main_max_n = 3
    _deltas = (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2))

    def inputs(self, seed):
        rng = random.Random(seed)
        specs = []
        for n in range(1, self.max_n + 1):
            specs.append({"argv": ["std-r", "--n", str(n)], "exit": 0})
            for t in qdq.twist.enumerate_triples(n):
                args = _triple_args(t)
                specs.append({"argv": ["solve-theta", *args], "exit": 0})
                for kind in ("ybe", "hecke", "cocycle"):
                    specs.append({"argv": ["check", kind, *args], "exit": 0})
                if n <= self.main_max_n:
                    specs.append({"argv": ["check", "main", *args], "exit": 0})
                if t.gamma1:
                    specs.append(self._negative(rng, t, args))
        rng.shuffle(specs)
        return specs

    def _negative(self, rng, t, args):
        theta = qdq.twist.solve_theta(t).theta
        while True:
            bad = [row[:] for row in theta]
            i, j = rng.randrange(t.n), rng.randrange(t.n)
            bad[i][j] += rng.choice(self._deltas)
            if qdq.twist.theta_residuals(t, bad):
                break
        name = f"theta-{'-'.join(args[1::2]).replace(',', '.').replace('>', 'to')}.json"
        return {
            "argv": ["check", "cocycle", *args, "--theta", name],
            "exit": 1,
            "file": {"name": name, "theta": [[str(v) for v in row] for row in bad]},
        }

    def prepare(self, specs, workdir):
        workdir = Path(workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        for spec in specs:
            f = spec.get("file")
            if f:
                path = workdir / f["name"]
                path.write_text(json.dumps({"theta": f["theta"]}))
                i = spec["argv"].index("--theta")
                spec["argv"][i + 1] = str(path)

    def warmup(self, specs):
        return specs

    def run(self, spec):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = qdq.cli.run(list(spec["argv"]))
        return code, out.getvalue()

    def check(self, spec, out, ref):
        code, text = out
        if code != spec["exit"]:
            return f"exit {code}, expected {spec['exit']}"
        if spec["argv"][0] != "check":
            if ref is not None and text != ref[1]:
                return "data output differs from its warm-up bytes"
            return None
        rep = json.loads(text)
        if rep["pass"] != (spec["exit"] == 0):
            return f"report pass={rep['pass']} with exit {code}"
        if spec["exit"] == 1:
            wit = rep["witness"]
            if not wit or "coords" not in wit or wit["lhs"] == wit["rhs"]:
                return f"negative control without an exact witness: {wit}"
        if ref is not None and strip_timings(rep) != strip_timings(json.loads(ref[1])):
            return "report differs from its warm-up report"
        return None

    def verdict(self, out):
        code, text = out
        if text.startswith("{") and '"check"' in text:
            return code, strip_timings(json.loads(text))
        return code, text

    def out_bytes(self, out):
        return len(out[1].encode())


WORKLOADS = {w.name: w for w in (BatteryGl4, GenericQs, SweepCli)}
