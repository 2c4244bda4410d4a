"""Standard modules as exact block operators.

The module stores coordinate multiplications levelwise: the block from level
n to n+1 is rho_n times the symmetric-Fock-space block, expressed in
orthonormal monomial bases.  Everything the rest of the toolkit does reduces
to identities between these finite matrices, checked here at machine
precision.
"""

import numpy as np

import gradmod as gm

w = gm.make_weights("hardy", 10, d=2)
mod = gm.StandardModule(w, d=2, multiplicity=1)

print("Hardy module at d = 2, levels 0..10")
print("level dims:", [mod.level_dim(n) for n in range(8)])
ops = mod.coordinate_tuple()
print("\nZ_1 block from level 1 to level 2 (rows: z1^2, z1 z2, z2^2):")
print(np.round(ops[1][0].real, 6))

print("\nmonomial norms ||z^alpha||^2 at level 2 (c_2 * nu_alpha):")
for (alpha, _), nrm in zip(mod.level_basis(2), mod.monomial_norms(2)):
    print(f"  z^{alpha}: {nrm:.6f}")

print("\nDefining identity of the weighted shift realization:")
print("  sum_k Z_k Z_k* = rho_n^2 * I on each level")
for n in range(6):
    print(f"  level {n + 1}: residual {gm.row_sum_residual(ops, mod.rho, n):.2e}, "
          f"rho_{n}^2 = {w.values[n] ** 2:.6f}")

print("\nAdjoints act as scaled differentiation (maximal symmetry):")
print("  Z_k* = u(n) d/dz_k on level n with u(n) = rho_(n-1)^2 / n; stacked over")
print("  k, the row adjoint L_(n-1)* is u(n) times the gradient (d/dz_1, d/dz_2)")
for n in (1, 2, 5):
    eye = np.eye(mod.level_dim(n))
    resid = np.linalg.norm(mod.row_adjoint(n - 1, eye)
                           - mod.adjoint_scalar(n) * mod.gradient(n, eye), 2)
    print(f"  level {n}: u({n}) = {mod.adjoint_scalar(n):.6f}, residual {resid:.2e}")

print("\nCommutator decomposition against the Fock-space commutator,")
print("  [Z_j*, Z_k] = [S_j*, S_k] Dt^2 + S_k S_j* (Dt^2 - D^2) per level:")
fock_ops = mod.fock_tuple()
for n in (1, 3, 6, 9):
    worst = gm.commutator_decomposition_residual(ops, fock_ops, mod.rho, n).max()
    print(f"  level {n}: max residual over pairs {worst:.2e}")

print("\nFor constant weights the correction term drops out: with the plain")
print("d-shift, [Z_j*, Z_k] equals the Fock commutator identically, and at")
print("d = 1 the single self-commutator is the rank-one projection onto the")
print("constants:")
shift = gm.StandardModule(gm.make_weights("dshift", 6), d=1)
comms = gm.self_commutators(shift.coordinate_tuple())
print("  [Z*, Z] level 0 block:", comms[0][0, 0].real[0, 0],
      "| higher-level norms:",
      [round(float(np.linalg.norm(comms[n][0, 0], 2)), 15) for n in range(1, 5)])
