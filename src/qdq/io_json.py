"""JSON encodings for scalars, matrices, and reports.

Rational coefficients travel as "p/q" strings in lowest terms; the
ambient object carries the root order once.  Encoders are deterministic:
identical values produce identical JSON.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InputError
from .linalg import Matrix
from .quasidet import NCSquare
from .report import Report
from .scalars import RatFunc, ScalarField


def ratfunc_to_json(x: RatFunc) -> dict:
    return {
        "num": [str(c) for c in x.num] or ["0"],
        "den": [str(c) for c in x.den],
    }


def ratfunc_from_json(obj, field: ScalarField) -> RatFunc:
    return field.from_coeffs(
        [Fraction(c) for c in obj["num"]], [Fraction(c) for c in obj["den"]]
    )


def matrix_to_json(m: Matrix) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[ratfunc_to_json(e) for e in row] for row in m.entries],
    }


def _json_int(obj, key) -> int:
    value = obj[key]
    if type(value) is not int:  # bool and float are refused too
        raise InputError(f"{key} must be an integer, got {value!r}")
    return value


def matrix_from_json(obj, field: ScalarField) -> Matrix:
    entries = [
        [ratfunc_from_json(e, field) for e in row] for row in obj["entries"]
    ]
    return Matrix(_json_int(obj, "rows"), _json_int(obj, "cols"), entries, field)


def ncsquare_to_json(x: NCSquare) -> dict:
    out = {"root_order": x.field.root_order, "size": x.m}
    if isinstance(x.one, Matrix):
        out["inner_dim"] = x.inner
        out["entries"] = [[matrix_to_json(e) for e in row] for row in x.entries]
    else:
        out["entries"] = [[ratfunc_to_json(e) for e in row] for row in x.entries]
    return out


def _square_entry(read, e, field, i, j):
    try:
        return read(e, field)
    except (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
        why = f"no key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise InputError(f"entry ({i}, {j}) of the square is malformed: {why}") from None


def ncsquare_from_json(obj) -> NCSquare:
    """Decode ncsquare_to_json's format; size, inner_dim and each operator
    entry's rows and cols must be integers that match the grid.

    Malformed input raises an InputError; a malformed entry is named by
    its 1-based row and column."""
    grid = obj.get("entries") if isinstance(obj, dict) else None
    if not isinstance(grid, list) or not all(isinstance(r, list) for r in grid):
        raise InputError('expected an object whose "entries" is a list of rows')
    if not grid or any(len(r) != len(grid) for r in grid):
        raise InputError('"entries" must be a nonempty square grid')
    root_order = obj.get("root_order", 1)
    if type(root_order) is not int or root_order < 1:
        raise InputError(f"root_order must be an integer >= 1, got {root_order!r}")
    field = ScalarField(root_order)
    read = matrix_from_json if "inner_dim" in obj else ratfunc_from_json
    entries = [
        [_square_entry(read, e, field, i, j) for j, e in enumerate(row, 1)]
        for i, row in enumerate(grid, 1)
    ]
    if read is matrix_from_json:
        d = entries[0][0].rows
        if any(e.rows != d or e.cols != d for row in entries for e in row):
            raise InputError("operator entries must share one square size")
    x = NCSquare(entries, field)
    for key, have in (("size", x.m), ("inner_dim", x.inner)):
        if key in obj and _json_int(obj, key) != have:
            raise InputError(f"declared {key} {obj[key]!r} does not match the grid's {have}")
    return x


def grid_to_json(grid) -> list:
    return [[str(v) for v in row] for row in grid]


def grid_from_json(rows) -> list:
    """Decode a grid of "p/q" strings or numbers; an entry that is not a
    rational raises an InputError naming its 1-based row and column."""
    grid = []
    for i, row in enumerate(rows, 1):
        if not isinstance(row, list):
            raise InputError(f"row {i} of the grid is not a list")
        out = []
        for j, v in enumerate(row, 1):
            try:
                if isinstance(v, bool) or not isinstance(v, (int, float, str)):
                    raise TypeError
                out.append(Fraction(v))
            except (TypeError, ValueError, ZeroDivisionError, OverflowError):
                raise InputError(
                    f"entry ({i}, {j}) of the grid is not a rational: {v!r}"
                ) from None
        grid.append(out)
    return grid


def _plain(value):
    """Recursively convert values to JSON-encodable plain data."""
    if isinstance(value, RatFunc):
        return ratfunc_to_json(value)
    if isinstance(value, Matrix):
        return matrix_to_json(value)
    if isinstance(value, (tuple, list)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, Report):
        return report_to_json(value)
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float, str)):
        return value
    return str(value)


def report_to_json(rep: Report) -> dict:
    return {
        "check": rep.check,
        "params": _plain(rep.params),
        "pass": rep.passed,
        "witness": _plain(rep.witness) if rep.witness is not None else None,
        "ms": round(rep.ms, 3),
        "details": _plain(rep.details),
    }
