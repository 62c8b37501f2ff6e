"""Opt-in stress checks beyond the acceptance scale (pytest -m slow)."""

import hashlib
import json

import pytest

from qdq.frt import build_T, qdet_coaction, verify_factorization
from qdq.io_json import report_to_json
from qdq.quasidet import all_sigmas
from qdq.twist import BDTriple, build_twist, enumerate_triples

from test_acceptance import _without_ms
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


# sha256 of the n = 5 census reports, their ms stripped; recorded before
# R, J', the flip and the Cartan exponentials were built from matrix units
CENSUS_5_DIGEST = "7ff63a51a356a6a8dba1631cbd5199811b73834c86dfb0c4e82de18162fc44fc"


@pytest.mark.slow
def test_census_n5():
    # every valid triple of gl5 at k = (1,1), all 120 orderings each
    reports = []
    for t in enumerate_triples(5):
        rep = verify_factorization(build_twist(t))
        assert rep.passed and rep.params["sigmas"] == 120, t
        reports.append(_without_ms(report_to_json(rep)))
    assert len(reports) == 19
    blob = json.dumps(reports, sort_keys=True, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == CENSUS_5_DIGEST
