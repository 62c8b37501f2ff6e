"""Command-line front end.

Subcommands: std-r, solve-theta, quasidet, and check {ybe, hecke,
cocycle, frt, main}.  Exit codes: 0 every requested check passed, 1 a
check failed, 2 invalid input (a usage error, an InputError raised by
the parsers, the file decoders or the triple and beta validation, or a
file that cannot be written), 3 a singularity was hit, 4 an internal
error (any other exception, reported on one line).  All file I/O is
through explicit paths; identical inputs produce identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import InputError, SingularMatrixError, WrongWedgeDimensionError
from .frt import build_T, frt_check, verify_factorization
from .io_json import (
    grid_from_json,
    grid_to_json,
    matrix_to_json,
    ncsquare_from_json,
    ratfunc_to_json,
    report_to_json,
)
from .linalg import Matrix
from .quasidet import all_sigmas, quasideterminant
from .report import Report
from .rmatrix import hecke_check, r_hat, standard_r, ybe_check
from .scalars import ScalarField
from .twist import (
    BDTriple,
    build_twist,
    cocycle_check,
    solve_theta,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INVALID = 2
EXIT_SINGULAR = 3
EXIT_INTERNAL = 4


def _positive_int(text):
    """argparse type of sizes, tensor powers and root orders."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _parse_roots(text, flag):
    roots = []
    for tok in (text or "").split(","):
        if tok.strip():
            try:
                roots.append(int(tok))
            except ValueError:
                raise InputError(f"{flag}: {tok!r} is not an integer root") from None
    return tuple(roots)


def _parse_tau(text):
    tau = {}
    for pair in (text or "").split(","):
        if pair.strip():
            try:
                a, b = (int(tok) for tok in pair.split(">"))
            except ValueError:
                msg = f"--tau: {pair.strip()!r} is not a pair a>b of integer roots"
                raise InputError(msg) from None
            tau[a] = b
    return tau


def _parse_sigmas(text, n):
    if text is None or text == "all":
        return all_sigmas(n)
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        sigma = tuple(int(ch) for ch in tok if "1" <= ch <= "9")
        if len(sigma) != len(tok) or sorted(sigma) != list(range(1, n + 1)):
            raise InputError(f"--sigma: {tok!r} is not an ordering of 1..{n}")
        out.append(sigma)
    if not out:
        raise InputError(f"--sigma: {text!r} names no ordering")
    return out


def _triple_from_args(args) -> BDTriple:
    return BDTriple.make(
        args.n,
        _parse_roots(args.g1, "--g1"),
        _parse_roots(args.g2, "--g2"),
        _parse_tau(args.tau),
    )


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8 or not JSON
        why = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
        raise InputError(f"{path}: {why}") from None


def _load_grid(path, n):
    data = _read_json(path)
    if isinstance(data, dict):
        data = data.get("theta", data.get("beta", data.get("grid")))
    if not isinstance(data, list):
        raise InputError(f"{path} holds no grid (expected a list or a theta/beta/grid key)")
    try:
        grid = grid_from_json(data)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None
    if len(grid) != n or any(len(r) != n for r in grid):
        raise InputError(f"grid in {path} is not {n}x{n}")
    return grid


def _emit(payload, args) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _report_lines(rep: Report, depth=0):
    pad = "  " * depth
    status = "pass" if rep.passed else "FAIL"
    line = f"{pad}{rep.check:<{30 - len(pad)}} {status} {rep.ms:>10.1f} ms"
    if "route" in rep.details:
        line += f"  [{rep.details['route']}]"
    if not rep.passed and rep.witness:
        wit = rep.witness
        if "failed" in wit:
            line += f"  (first failure: {wit['failed']})"
        elif "premise" in wit:
            line += f"  (premise failed: {wit['premise']})"
        elif "shape" in wit:
            line += f"  shape {wit['shape']['lhs']} != {wit['shape']['rhs']}"
        elif "coords" in wit:
            line += f"  at {wit['coords']}: {wit.get('lhs')} != {wit.get('rhs')}"
        elif "clauses" in wit:
            line += f"  ({', '.join(wit['clauses'])})"
        elif "eigenspace_dims" in wit:
            dims, want = wit["eigenspace_dims"], wit["expected_dims"]
            line += f"  eigenspace dims {dims} != expected {want}"
    yield line
    for sub in rep.details.get("checks", []):
        yield from _report_lines(sub, depth + 1)


def _finish_report(rep: Report, args) -> int:
    if args.format == "json":
        print(json.dumps(report_to_json(rep), indent=2, sort_keys=True))
    else:
        for line in _report_lines(rep):
            print(line)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(report_to_json(rep), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return EXIT_PASS if rep.passed else EXIT_FAIL


def _twist_from_args(args):
    triple = _triple_from_args(args)
    theta = _load_grid(args.theta, args.n) if args.theta else None
    beta = _load_grid(args.beta, args.n) if args.beta else None
    return build_twist(triple, theta, beta)


def cmd_std_r(args) -> int:
    field = ScalarField(args.root_order)
    payload = {
        "n": args.n,
        "root_order": field.root_order,
        "matrix": matrix_to_json(standard_r(args.n, field)),
    }
    _emit(payload, args)
    return EXIT_PASS


def cmd_solve_theta(args) -> int:
    triple = _triple_from_args(args)
    sol = solve_theta(triple)
    payload = {
        "n": args.n,
        "g1": list(triple.gamma1),
        "g2": list(triple.gamma2),
        "tau": [list(p) for p in triple.tau_pairs],
        "theta": grid_to_json(sol.theta),
        "y": grid_to_json(sol.y),
        "residuals": [
            {"condition": c, "root": a, "index": i, "value": str(v)}
            for (c, a, i, v) in sol.residuals
        ],
    }
    _emit(payload, args)
    return EXIT_PASS


def cmd_quasidet(args) -> int:
    data = _read_json(args.file)
    try:
        x = ncsquare_from_json(data)
    except InputError as exc:
        raise InputError(f"{args.file}: {exc}") from None
    if not (1 <= args.i <= x.m and 1 <= args.j <= x.m):
        raise InputError(f"puncture ({args.i},{args.j}) outside 1..{x.m}")
    value = quasideterminant(x, args.i, args.j)
    encode = matrix_to_json if isinstance(value, Matrix) else ratfunc_to_json
    _emit({"root_order": x.field.root_order, "value": encode(value)}, args)
    return EXIT_PASS


def cmd_check(args) -> int:
    kind = args.kind
    if kind in ("ybe", "hecke"):
        r = _twist_from_args(args).r_j
        rep = ybe_check(r) if kind == "ybe" else hecke_check(r_hat(r))
        return _finish_report(rep, args)
    if kind == "cocycle":
        return _finish_report(cocycle_check(_twist_from_args(args)), args)
    if kind == "frt":
        tw = _twist_from_args(args)
        rep = frt_check(build_T(tw, args.k1, args.k2))
        return _finish_report(rep, args)
    if kind == "main":
        sigmas = _parse_sigmas(args.sigma, args.n)
        tw = _twist_from_args(args)
        rep = verify_factorization(tw, args.k1, args.k2, sigmas)
        return _finish_report(rep, args)
    raise InputError(f"unknown check {kind!r}")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qdq",
        description=(
            "Exact computations with twisted quantum gl_n: R-matrices, "
            "quasideterminants, and determinant factorization checks."
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_triple_opts(p):
        p.add_argument("--n", type=_positive_int, required=True)
        p.add_argument("--g1", default="", help='first root subset, e.g. "1,2"')
        p.add_argument("--g2", default="", help='second root subset, e.g. "3,4"')
        p.add_argument("--tau", default="", help='bijection, e.g. "1>3,2>4"')

    p = sub.add_parser("std-r", help="print the standard R-matrix as JSON")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--root-order", type=_positive_int, default=1, dest="root_order")
    p.add_argument("--out")
    p.set_defaults(func=cmd_std_r)

    p = sub.add_parser("solve-theta", help="solve the Cartan moment conditions")
    add_triple_opts(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_solve_theta)

    p = sub.add_parser("quasidet", help="quasideterminant of a stored matrix")
    p.add_argument("--file", required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_quasidet)

    p = sub.add_parser("check", help="run an exact identity check")
    p.add_argument("kind", choices=["ybe", "hecke", "cocycle", "frt", "main"])
    add_triple_opts(p)
    p.add_argument("--theta", help="JSON file with a theta grid")
    p.add_argument("--beta", help="JSON file with a beta grid")
    p.add_argument("--k1", type=_positive_int, default=1)
    p.add_argument("--k2", type=_positive_int, default=1)
    p.add_argument("--sigma", default="all", help='"all" or e.g. "231,312"')
    p.add_argument("--json", help="also write the report JSON to this path")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=cmd_check)

    return ap


def run(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:  # OSError: writing --out or --json
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (SingularMatrixError, WrongWedgeDimensionError) as exc:
        print(f"singularity: {exc}", file=sys.stderr)
        return EXIT_SINGULAR
    except Exception as exc:  # the CLI boundary: any other fault is internal
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        where = f"{os.path.basename(tb.tb_frame.f_code.co_filename)}:{tb.tb_lineno}"
        print(f"internal error: {type(exc).__name__}: {exc} ({where})", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
