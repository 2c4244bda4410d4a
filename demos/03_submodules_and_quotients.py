"""Graded submodules: generation, degree, reducing structure, quotients.

A graded submodule is generated levelwise from homogeneous generators; its
degree is the first level after which the coordinate operators alone
regenerate every higher level.  Reducing submodules are exactly the degree-0
ones, and quotients are realized on levelwise orthocomplements with
compressed coordinate blocks.
"""

import numpy as np

import gradmod as gm

mod = gm.StandardModule(gm.make_weights("dshift", 10), d=2)

print("Ambient: d-shift module at d = 2, levels 0..10, dims",
      [mod.level_dim(n) for n in range(6)], "...")

examples = {
    "[z1]": [gm.monomial_generator((1, 0))],
    "[z1^2 + z2^2]": [gm.VectorPolynomial(2, (((2, 0), 0, 1.0), ((0, 2), 0, 1.0)))],
    "[z1^3]": [gm.monomial_generator((3, 0))],
}

for name, gens in examples.items():
    sub = gm.GradedSubmodule.generate(mod, gens)
    rep = sub.degree_report()
    print(f"\nM = {name}")
    print(f"  level dims M: {sub.dims()}")
    print(f"  level dims S/M: {[q.shape[1] for q in sub.quotient_bases.values()]}")
    print(f"  degree = {rep.degree} (determined: {rep.determined}; saturation "
          f"flags {[int(rep.flags[k]) for k in sorted(rep.flags)]})")
    print(f"  reducing: {sub.is_reducing()[0]}   invariance residual "
          f"{sub.invariance_residual(0.0):.2e}")

print("\nDegree 0 means reducing summand. In multiplicity 2, the generator")
print("e_1 produces G (x) span(e_1):")
mod2 = gm.StandardModule(gm.make_weights("hardy", 8, d=2), d=2, multiplicity=2)
summand = gm.GradedSubmodule.generate(
    mod2, [gm.VectorPolynomial(0, (((0, 0), 0, 1.0),))])
flag, v = summand.is_reducing()
print(f"  reducing: {flag}, V basis in E:\n{np.round(v.real.T, 6)}")

print("\nQuotient by [z2] collapses to one variable: the compressed Z_1 is")
print("the weighted unilateral shift, the compressed Z_2 vanishes:")
sub = gm.GradedSubmodule.generate(mod, [gm.monomial_generator((0, 1))])
blocks = sub.quotient_tuple()
print("  quotient dims:", [q.shape[1] for q in sub.quotient_bases.values()])
print("  compressed Z_1 entries:", [round(abs(blocks[n][0][0, 0]), 6)
                                    for n in range(5)])
print("  compressed Z_2 norms:  ", [round(float(np.linalg.norm(blocks[n][1])), 16)
                                    for n in range(5)])

print("\nCompression identities tie ambient, submodule and quotient")
print("commutators together exactly at every interior level (max over j, k):")
g = gm.VectorPolynomial(2, (((2, 0), 0, 1.0), ((0, 2), 0, 1.0)))
sub = gm.GradedSubmodule.generate(mod, [g])
ops = mod.coordinate_tuple()
for level in (1, 3, 6):
    r1, r2 = gm.compression_identity_residuals(ops, sub, level, 0.0)
    print(f"  level {level}: restriction identity {r1.max():.2e}, "
          f"compression identity {r2.max():.2e}")
