"""Koszul complex: boundary blocks, Betti ranks, Dirac squares, syzygies.

The boundary operator B = sum_k T_k (x) C_k squares to zero for a commuting
tuple; the standard module has the cohomology of a free module, with the
only nonzero Betti number r sitting at form degree d, level 0.  The square
of the Dirac operator D = B + B* decomposes into the row-sum operator plus
commutator corrections, and exactness at the penultimate stage is the
classical syzygy statement, solved here explicitly.
"""

import numpy as np

import gradmod as gm
from gradmod import linalg
from gradmod.koszul import (betti_numbers, betti_table, build_koszul,
                            dirac_square_residual, solve_syzygy)

for d, r in ((2, 1), (2, 3), (3, 1)):
    mod = gm.StandardModule(gm.make_weights("dshift", 8), d=d, multiplicity=r)
    ops = mod.coordinate_tuple()
    complex_ = build_koszul(ops)
    print(f"standard module d = {d}, r = {r}: "
          f"B^2 residual {complex_.bsquared_residual(0.0):.2e}, "
          f"Betti numbers {betti_numbers(betti_table(complex_))}")

print("\nThe free-module cohomology is concentrated at level 0: the full")
print("(form degree, level) table of a standard module has a single entry.")
mod = gm.StandardModule(gm.make_weights("dshift", 8), d=2, multiplicity=1)
ops = mod.coordinate_tuple()
table = betti_table(build_koszul(ops))
nonzero = {key: val for key, val in table.items() if val != 0}
print("  nonzero entries:", nonzero)

print("\nQuotients can break exactness in the middle. For S/[z1] the")
print("compressed tuple is (0, shift) and middle cohomology appears:")
sub = gm.GradedSubmodule.generate(mod, [gm.monomial_generator((1, 0))])
q_table = betti_table(build_koszul(sub.quotient_tuple()))
print("  nonzero entries:", {k: v for k, v in sorted(q_table.items()) if v})
print("  Betti numbers:", betti_numbers(q_table))

print("\nDirac square identity D^2 = F (x) 1 + commutator corrections,")
print("checked blockwise on the Hardy module:")
hardy = gm.StandardModule(gm.make_weights("hardy", 8, d=2), d=2)
h_ops = hardy.coordinate_tuple()
h_complex = build_koszul(h_ops)
for n in range(1, 6):
    print(f"  level {n}: residual {dirac_square_residual(h_complex, n, 0.0):.2e}")

print("\nSyzygies: any homogeneous relation sum_k Z_k xi_k = 0 is generated")
print("by the trivial antisymmetric ones, one degree down.")
xi = [np.array([0.0, 1.0], complex), np.array([-1.0, 0.0], complex)]
eta, resid = solve_syzygy(ops, xi, 1)
print(f"  xi = (z2, -z1): eta_12 = {eta[(1, 2)][0].real:+.0f} "
      f"(reconstruction residual {resid:.2e})")

rng = np.random.default_rng(11)
null = linalg.nullspace(mod.row_block(4))
coef = rng.normal(size=null.shape[1]) + 1j * rng.normal(size=null.shape[1])
vec = null @ coef
vec /= np.linalg.norm(vec)
h = mod.level_dim(4)
xi = [vec.reshape(h, 2)[:, i].copy() for i in range(2)]
eta, resid = solve_syzygy(ops, xi, 4)
print(f"  random level-4 kernel element: reconstruction residual {resid:.2e}, "
      f"eta antisymmetric: {bool(np.all(eta[(1, 2)] == -eta[(2, 1)]))}")
