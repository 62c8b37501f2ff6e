"""The full verification: quantum determinant = ordered quasiminor products.

For a quantum-matrix model T with operator entries built from a twisted
braiding, three independently computed objects must coincide exactly:

  1. the coaction coefficient of the top wedge vector (the quantum
     determinant's image),
  2. the closed-form grouplike image from the twist's Cartan exponents,
  3. det_sigma(T), for every ordering sigma, with commuting factors.
"""

from fractions import Fraction

from qdq import (
    BDTriple,
    all_sigmas,
    build_T,
    build_twist,
    corner_factors,
    det_sigma,
    f_of_D_image,
    factors_commute,
    frt_check,
    qdet_coaction,
    untwisted,
    verify_factorization,
)

print("=== untwisted gl_2 ===")
tw = untwisted(2)
model = build_T(tw)
print("exchange relations hold:", frt_check(model).passed)
D = qdet_coaction(model)
print("quantum determinant image D (diagonal):",
      [str(D.entries[i][i]) for i in range(4)])
facts = corner_factors(model.t_blocks)
print("factors commute:", factors_commute(model, facts).passed)
for sigma in all_sigmas(2):
    val = det_sigma(model.t_blocks, sigma, facts)
    print(f"  det_sigma, sigma={sigma}: equals D?", val == D)

print("\n=== Cremmer-Gervais gl_3 ===")
H = Fraction(1, 2)
cg = BDTriple.make(3, [1], [2], {1: 2})
theta = [[0, H, H], [H, 0, H], [0, H, 0]]
tw = build_twist(cg, theta)
model = build_T(tw)
D = qdet_coaction(model)
print("D is diagonal with entries:")
print("  ", [str(D.entries[i][i]) for i in range(9)])
print("closed form agrees:", D == f_of_D_image(tw))
facts = corner_factors(model.t_blocks)
print("factors commute:", factors_commute(model, facts).passed)
ok = all(det_sigma(model.t_blocks, s, facts) == D for s in all_sigmas(3))
print("all 6 orderings give D:", ok)

print("\n=== one-call batteries ===")
for name, tw in (
    ("untwisted gl_3", untwisted(3)),
    ("gl_4 with 1 -> 3", build_twist(BDTriple.make(4, [1], [3], {1: 3}))),
):
    rep = verify_factorization(tw)
    print(f"{name}: {'all checks pass' if rep.passed else 'FAILED'}"
          f" ({len(rep.details['checks'])} checks)")
