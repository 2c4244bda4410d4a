"""Linearization: pulling nonlinear relations back to linear ones.

The row operator L sends a d-tuple of module elements to sum_k Z_k xi_k.
Its kernel has degree 1, and pulling a degree-n submodule back through L
yields a degree-(n-1) submodule of the d-fold module; iterating reduces any
quotient by nonlinear relations to a quotient by linear ones.  Degree-1
submodules in turn are classified by subspaces V of d.E through the spaces
E_V of polynomials with gradient pointwise in V: E_V^perp is the submodule
generated at level 1 by L_0 V^perp.
"""

import numpy as np

import gradmod as gm
from gradmod import linalg

mod = gm.StandardModule(gm.make_weights("dshift", 10), d=2)

print("Kernel of the row operator (d = 2): dims grow like n, degree is 1")
K = gm.kernel_levels(mod)
print("  dims:", K.dims())
print("  degree report:", K.degree_report().degree,
      "| K_0 = 0:", K.dim(0) == 0)

print("\nPullback chain for M = [z1^3 + z2^3] (degree 3):")
g = gm.VectorPolynomial(3, (((3, 0), 0, 1.0), ((0, 3), 0, 1.0)))
sub = gm.GradedSubmodule.generate(mod, [g])
result = gm.linearize_full(sub, 0.0, 0.0)
for step in result.steps:
    print(f"  ambient multiplicity {step.multiplicity}: degree {step.degree}, "
          f"window {step.window}, dims {list(step.level_dims[:6])}...")
print(f"  complete: {result.complete} ({result.reason})")
print(f"  co-invariance residuals of each pullback's quotient side: "
      f"{[f'{r:.1e}' for r in result.coinvariance_residuals]}")
print(f"  ker L against each pullback's quotient side, ||K* Q'||: "
      f"{[f'{r:.1e}' for r in result.kernel_residuals]}")

print("\nThe shifted quotient is carried levelwise by L: level n of the new")
print("quotient matches level n+1 of the old one:")
pulled = gm.pullback(sub)
print("  old dims: ", [sub.quotient_basis(n).shape[1] for n in range(1, 8)])
print("  new dims: ", [pulled.quotient_basis(n).shape[1] for n in range(7)])
conds = gm.induced_map_report(sub, pulled)
print("  induced level maps full rank with condition numbers:",
      [f"{conds[n][0]:.2f}" for n in sorted(conds)[:5]])

print("\nDegree-1 submodules <-> subspaces V of d.E (here d.E = C^2):")
v = gm.SubspaceV.from_matrix(mod, np.array([[1.0], [0.0]]))
m = gm.ev_space(mod, v)
ev = m.quotient_bases
print("  V = span{(1,0)}: E_V(n) is spanned by z_1^n, dims",
      [ev[n].shape[1] for n in range(8)])
print("  orthocomplement degree:", m.degree_report().degree,
      "| level-0 component:", m.dim(0))
recovered = gm.recover_subspace(m)
print("  V recovered from M_1, distance:",
      f"{linalg.subspace_distance(v.basis, recovered.basis, 0.0):.2e}")

print("\nBoth routes to E_V agree: the submodule generated by L_0 V^perp")
print("and the Euler recursion on pointwise gradient membership:")
hardy = gm.StandardModule(gm.make_weights("hardy", 8, d=2), d=2, multiplicity=2)
rng = np.random.default_rng(5)
raw = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
v = gm.SubspaceV.from_matrix(hardy, raw)
ev_adj = gm.ev_space(hardy, v).quotient_bases
ev_grad = gm.ev_gradient_levels(hardy, v)
gap = max(linalg.subspace_distance(ev_adj[n], ev_grad[n], 0.0) for n in ev_adj)
print(f"  max subspace gap over levels: {gap:.2e}")
