"""Opt-in stress checks beyond the acceptance scale (pytest -m slow)."""

import pytest

from qdq.frt import build_T, qdet_coaction, verify_factorization
from qdq.quasidet import all_sigmas
from qdq.twist import BDTriple, build_twist

from test_frt import coaction_defects, wedge_of


@pytest.mark.slow
def test_gl5_coaction_on_every_row():
    # the explicit oracle on all 5^5 rows of the two-root gl5 model: D read
    # from one row is the coaction everywhere, and off the support it is 0
    tw = build_twist(BDTriple.make(5, [1, 2], [3, 4], {1: 3, 2: 4}))
    m = build_T(tw)
    coeffs = wedge_of(m)
    assert coaction_defects(m, coeffs, qdet_coaction(m)) == []


@pytest.mark.slow
def test_gl5_two_root_battery_k21():
    # the k >= 2 probe at gl5: T acts on 5^3 dimensions
    tw = build_twist(BDTriple.make(5, [1, 2], [3, 4], {1: 3, 2: 4}))
    rep = verify_factorization(tw, k1=2, k2=1, sigmas=all_sigmas(5))
    subs = rep.details["checks"]
    assert rep.passed and rep.params["sigmas"] == 120
    assert all(sub.passed for sub in subs), [sub.check for sub in subs if not sub.passed]


@pytest.mark.slow
def test_gl6_two_root_battery():
    # the largest case settled: its wedge is one kernel over 6^6 coordinates,
    # and the commuting factors certify all 720 orderings from one product
    tw = build_twist(BDTriple.make(6, [1, 2], [3, 4], {1: 3, 2: 4}))
    rep = verify_factorization(tw, sigmas=all_sigmas(6))
    subs = rep.details["checks"]
    assert rep.passed and rep.params["sigmas"] == 720
    assert len(subs) > 1 and all(sub.passed for sub in subs), [
        sub.check for sub in subs if not sub.passed
    ]
    (orderings,) = [sub for sub in subs if sub.check == "det-sigma-consistency"]
    assert orderings.ms < 500, orderings.ms
