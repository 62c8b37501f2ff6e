"""Structured pass/fail results for identity checks."""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field


@dataclass(slots=True)
class Report:
    """Outcome of one exact identity check.

    witness is present exactly when the check failed and holds the first
    mismatching coordinate together with both exact values.
    """

    check: str
    params: dict
    passed: bool
    witness: dict | None = None
    ms: float = 0.0
    details: dict = field(default_factory=dict)

    def __bool__(self):
        return self.passed


class Clock:
    """The one wall clock behind every report's ms.

    stamp(rep) sets rep.ms to the time since the previous stamp, or since
    the clock started, so reports stamped in turn share out the whole run.
    """

    def __init__(self):
        self._last = time.perf_counter()

    def stamp(self, rep: Report) -> Report:
        now = time.perf_counter()
        rep.ms = (now - self._last) * 1000.0
        self._last = now
        return rep


def timed(check):
    """Stamp the report a check returns with the time the call took."""

    @functools.wraps(check)
    def stamped(*args, **kwargs):
        clock = Clock()
        return clock.stamp(check(*args, **kwargs))

    return stamped


def mismatch_witness(loc, *prefix, **extra) -> dict:
    """Witness of a first_mismatch result.

    An entry mismatch gives its coordinates (after the caller's prefix)
    and both exact values; a shape mismatch gives only the prefix and
    both shapes, so it cannot be read as an entry.
    """
    i, j, a, b = loc
    if i is None:
        return {**extra, "coords": list(prefix), "shape": {"lhs": a, "rhs": b}}
    return {**extra, "coords": [*prefix, i, j], "lhs": a, "rhs": b}


def equality_report(check: str, params: dict, lhs, rhs) -> Report:
    """Compare two matrices entry by entry and package the outcome."""
    from .linalg import first_mismatch

    loc = first_mismatch(lhs, rhs)
    if loc is None:
        return Report(check, params, True)
    return Report(check, params, False, witness=mismatch_witness(loc))


def aggregate_report(check: str, params: dict, subreports) -> Report:
    """Combine named subchecks; fails if any subcheck fails."""
    rep = Report(
        check,
        params,
        all(r.passed for r in subreports),
        details={"checks": list(subreports)},
    )
    for r in subreports:
        if not r.passed:
            rep.witness = {"failed": r.check, **(r.witness or {})}
            break
    return rep
