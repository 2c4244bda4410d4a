"""Essential-normality experiments: Schatten trends, the resolvent
projection with its norm bound, the similarity counterexample, and the
linearized-quotient presets.

Self-commutators of a degree-1 tuple are level-diagonal, so their Schatten
p-sums decompose exactly into level contributions; the reports classify the
growth trend and never claim a limit.  The final section runs the three
structured families of linearized quotients (one-dimensional V, codimension
one V, diagonal relations) whose essential normality is known; the general
case is open, so those reports are labeled evidence.
"""

import numpy as np

import gradmod as gm
from gradmod import linalg
from gradmod.linearize import pullback_quotient
from gradmod.normality import (alternating_block_sequence,
                               similarity_counterexample,
                               spectral_projection_oracle)

print("Ambient Schatten trends for the d-shift module at d = 2:")
mod = gm.StandardModule(gm.make_weights("dshift", 120), d=2)
rep = gm.schatten_report(mod.coordinate_tuple(), [2.0, 3.0])
for p in (2.0, 3.0):
    t = rep[p].trend
    print(f"  p = {p}: cumulative {rep[p].partial_sums[-1]:10.4f}  "
          f"trend {t.trend:12s} (ratio {t.ratio:.3f})   [threshold: p > d]")

print("\nResolvent-integral projection: B = L P L* at one level, rectangle")
print("contour around the positive spectrum, Gauss-Legendre panel quadrature")
print("vs the eigendecomposition oracle:")
small = gm.StandardModule(gm.make_weights("dshift", 6), d=2)
g = gm.VectorPolynomial(2, (((2, 0), 0, 1.0), ((0, 2), 0, 1.0)))
sub = gm.GradedSubmodule.generate(small, [g])
level = 2
lmat = small.row_block(level)
pulled = pullback_quotient(small, sub.quotient_basis(level + 1), level)
b = lmat @ (np.eye(lmat.shape[1]) - linalg.projector(pulled)) @ lmat.conj().T
eigs = np.linalg.eigvalsh(b)
gap = float(eigs[eigs > 1e-10].min())
up = small.coordinate_tuple()[level + 1]
y = np.swapaxes(up.conj(), 1, 2) @ up          # Y_k = Z_k* Z_k, k = 1, 2
out = gm.resolvent_projection(b, gap, transforms=y, p_values=[1.0])
oracle = spectral_projection_oracle(b, gap)
print(f"  spectral gap (0, {gap:.4f}); {out.nodes} nodes; distance to oracle "
      f"{np.linalg.norm(out.projection - oracle, 2):.2e}")
for check in out.bound_checks:
    print(f"  commutator bound at 2p = {2 * check.p:.0f}: measured "
          f"{check.measured:.4f} <= bound {check.bound:.4f} "
          f"(slack {check.slack:.4f})")

print("\nSimilarity does not preserve essential normality: the weighted")
print("shift B is similar to the unilateral shift A via LA = BL, yet its")
print("self-commutator diagonal keeps returning to e^2 - 1:")
rep = similarity_counterexample(alternating_block_sequence(61), 60)
print(f"  intertwining residual: {rep.intertwining_residual} (exact)")
print(f"  rank [A*, A] = {rep.a_commutator_rank}")
flags = rep.flagged_indices
print(f"  flagged indices (u_n, u_n+1) = (0, 1): {list(flags[:5])} ... "
      f"({flags.size} on the window)")
print(f"  [B*, B] diagonal there: {np.round(rep.b_commutator_diag[flags[:4]], 4)}"
      f"  (e^2 - 1 = {np.e ** 2 - 1:.4f})")

print("\nLinearized-quotient presets (known special cases; the general")
print("question is open, so these are labeled evidence):")
mod3 = gm.StandardModule(gm.make_weights("dshift", 30), d=3)
presets = {
    "(a) dim V = 1, d = 3": gm.SubspaceV.from_matrix(
        mod3, np.array([[1.0], [1.0], [1.0]]) / np.sqrt(3)),
    "(b) codim V = 1, d = 3": gm.SubspaceV.from_matrix(
        mod3, np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])),
}
for name, v in presets.items():
    en = gm.schatten_report(gm.ev_space(mod3, v).quotient_tuple(), [4.0, 5.0])
    calls = ", ".join(f"p={p:.0f}: {en[p].trend.trend}" for p in (4.0, 5.0))
    print(f"  {name}: {calls}   [evidence, not proof]")

mod22 = gm.StandardModule(gm.make_weights("dshift", 30), d=2, multiplicity=2)
m1 = gm.submodules.embed_polynomials(mod22, [
    gm.VectorPolynomial(1, (((1, 0), 0, 1.0),)),
    gm.VectorPolynomial(1, (((0, 1), 1, 1.0),))])
v_diag = gm.recover_subspace(gm.GradedSubmodule.from_level_seeds(mod22, {1: m1}))
en = gm.schatten_report(gm.ev_space(mod22, v_diag).quotient_tuple(), [3.0, 4.0])
calls = ", ".join(f"p={p:.0f}: {en[p].trend.trend}" for p in (3.0, 4.0))
print(f"  (c) diagonal relations, d = 2, r = 2: {calls}   [evidence, not proof]")
