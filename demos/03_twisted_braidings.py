"""From diagram data to a twisted braiding, step by step.

The datum is two disjoint sets of simple roots with an order-preserving
adjacency bijection.  The pipeline: Cartan tensor Z, a rational solution
of the moment conditions, the unipotent part J', the assembled twist J,
and finally the twisted braiding R_J - each stage checked exactly.
"""

from qdq import (
    BDTriple,
    build_twist,
    cartan_data,
    cocycle_check,
    hecke_check,
    p_vector,
    r_hat,
    solve_theta,
    theta_residuals,
    validate_triple,
    wedge_top,
    ybe_check,
)

# the smallest nontrivial datum for gl_3: root 1 mapped to root 2
cg = BDTriple.make(3, [1], [2], {1: 2})
print("triple valid:", validate_triple(cg).passed)

cd = cartan_data(cg)
print("\nZ grid (coefficients of H_i (x) H_j):")
for row in cd.z_grid:
    print("  ", [str(v) for v in row])
print("h0 basis (directions where tau acts trivially on pairings):")
for v in cd.h0_basis:
    print("  ", [str(x) for x in v])

sol = solve_theta(cg)
print("\nsolver's theta grid:")
for row in sol.theta:
    print("  ", [str(v) for v in row])
print("residuals of the moment conditions:", theta_residuals(cg, sol.theta))

tw = build_twist(cg, sol)
print("\nroot order needed:", tw.field.root_order, "(q is a square, q^(1/2) = s)")
print("J' - Id has", sum(1 for i in range(9) for j in range(9)
      if i != j and tw.jprime_vv.entries[i][j]), "nonzero off-diagonal entry")

print("\ncocycle identity on V (x) V (x) V:", cocycle_check(tw).passed)
print("Yang-Baxter for R_J:", ybe_check(tw.r_j).passed)
hk = hecke_check(r_hat(tw.r_j))
print("Hecke relation for Rhat_J:", hk.passed, "eigenspace dims", hk.details["eigenspace_dims"])

w = wedge_top(r_hat(tw.r_j), 3)
print("top wedge vector has", sum(1 for c in w if c), "nonzero coordinates of", len(w))
print("twist weight vector p =", [str(v) for v in p_vector(tw)])

# a corrupted theta breaks the cocycle, with an exact witness
bad = [row[:] for row in sol.theta]
bad[0][0] = bad[0][0] + 1
rep = cocycle_check(build_twist(cg, bad))
print("\ncorrupted theta still a twist?", rep.passed)
print("first mismatch at", rep.witness["coords"], ":",
      rep.witness["lhs"], "vs", rep.witness["rhs"])
