"""Acceptance suite: every criterion at its stated tolerance.

Each criterion prints exactly one PASS/FAIL line (run ``pytest -s`` to see
them on success).  Scales follow the desk-scale contract: d <= 3, r <= 3,
N <= 30 for structural checks, larger N only for scalar weight diagnostics.
"""

import numpy as np

import gradmod as gm
from gradmod import cli, linalg
from gradmod.koszul import (betti_numbers, betti_table, build_koszul,
                            dirac_square_residual, solve_syzygy)
from gradmod.normality import (alternating_block_sequence, resolvent_quadrature,
                               similarity_counterexample, spectral_projection_oracle)
from mside_oracle import pullback_span_residual
from structure_oracle import coordinate_block

RNG_SEED = 1729


def _report(num, ok, text):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num} failed: {text}"


def h2(d, r=1, n_levels=10):
    return gm.StandardModule(gm.make_weights("dshift", n_levels), d=d,
                             multiplicity=r)


# -- 1: the kernel of the row operator has degree one -------------------------


def test_criterion_1_kernel_degree_one():
    worst = 0.0
    for d in (2, 3):
        for r in (1, 2):
            mod = h2(d, r, 10)
            kernel = gm.kernel_levels(mod)
            assert kernel.dim(0) == 0
            dom = mod.row_domain
            for n in range(1, kernel.module.top_level):
                image = linalg.orthonormal_columns(np.hstack([
                    coordinate_block(dom, k, n) @ kernel.basis(n)
                    for k in range(1, d + 1)]))
                worst = max(worst, linalg.subspace_distance(
                    image, kernel.basis(n + 1), 0.0))
    _report(1, worst <= 1e-10,
            f"K_0 = 0 and K_(n+1) = sum_k Z_k K_n at d = 2,3, r = 1,2 "
            f"(max principal-angle distance {worst:.2e} <= 1e-10)")


# -- 2: pullbacks drop the degree by one and linearization terminates ----------


def _acceptance_submodules():
    """Ten generated submodules with determinable degree in [2, 4]."""
    mono = gm.monomial_generator
    quad2 = gm.VectorPolynomial(2, (((2, 0), 0, 1.0), ((0, 2), 0, 1.0)))
    cube2 = gm.VectorPolynomial(3, (((3, 0), 0, 1.0), ((0, 3), 0, 1.0)))
    quart2 = gm.VectorPolynomial(4, (((4, 0), 0, 1.0), ((0, 4), 0, 1.0)))
    quad3 = gm.VectorPolynomial(
        2, (((2, 0, 0), 0, 1.0), ((0, 2, 0), 0, 1.0), ((0, 0, 2), 0, 1.0)))
    cases = [
        (h2(2, 1, 10), [quad2], 2),
        (h2(2, 1, 10), [mono((2, 0))], 2),
        (h2(2, 1, 10), [mono((1, 1))], 2),
        (gm.StandardModule(gm.make_weights("hardy", 10, d=2), d=2), [cube2], 3),
        (h2(2, 1, 10), [mono((3, 0))], 3),
        (h2(2, 1, 10), [mono((2, 1))], 3),
        (h2(2, 1, 10), [quart2], 4),
        (gm.StandardModule(gm.make_weights("bergman", 10, d=2), d=2),
         [mono((4, 0))], 4),
        (h2(2, 2, 10), [gm.VectorPolynomial(2, (((2, 0), 0, 1.0),)),
                        gm.VectorPolynomial(2, (((0, 2), 1, 1.0),))], 2),
        (h2(3, 1, 8), [quad3], 2),
    ]
    return cases


def test_criterion_2_degree_drop_and_linearization():
    worst_span = 0.0
    for module, gens, expected_degree in _acceptance_submodules():
        sub = gm.GradedSubmodule.generate(module, gens)
        rep = sub.degree_report()
        assert rep.determined and rep.degree == expected_degree, \
            f"setup degree {rep.degree} != {expected_degree}"
        pulled = gm.pullback(sub)
        pulled_rep = pulled.degree_report()
        assert pulled_rep.determined and pulled_rep.degree == expected_degree - 1
        worst_span = max(worst_span, pullback_span_residual(sub, pulled))
        result = gm.linearize_full(sub, 0.0, 0.0)
        assert result.complete and result.steps[-1].degree == 1
        worst_span = max(worst_span, *result.coinvariance_residuals,
                         *result.kernel_residuals)
    _report(2, worst_span <= 1e-10,
            f"deg(pullback) = deg(M) - 1 with L(M'_k) = M_(k+1) on 10 "
            f"submodules of degree 2..4, full linearization reaches degree 1 "
            f"(max span, co-invariance and ker L residual {worst_span:.2e} "
            f"<= 1e-10)")


# -- 3: bijection between subspaces of d.E and degree-1 submodules -------------


def test_criterion_3_ev_bijection():
    rng = np.random.default_rng(RNG_SEED)
    worst_round = 0.0
    count = 0
    for d, r, n_levels in ((2, 1, 8), (2, 2, 8), (3, 1, 6), (3, 2, 6)):
        mod = h2(d, r, n_levels)
        ambient = d * r
        for trial in range(5):
            dim = int(rng.integers(0, ambient + 1))
            raw = rng.normal(size=(ambient, dim)) \
                + 1j * rng.normal(size=(ambient, dim))
            v = gm.SubspaceV.from_matrix(mod, raw)
            sub = gm.ev_space(mod, v)
            deg = sub.degree_report()
            assert deg.determined and deg.degree <= 1
            assert sub.dim(0) == 0       # contained in Z_1 S + ... + Z_d S
            recovered = gm.recover_subspace(sub)
            worst_round = max(worst_round, linalg.subspace_distance(
                v.basis, recovered.basis, 0.0))
            # reverse direction: degree-1 submodule -> V -> same submodule
            back = gm.ev_space(mod, recovered)
            for n in range(back.module.top_level + 1):
                worst_round = max(worst_round, linalg.subspace_distance(
                    back.basis(n), sub.basis(n), 0.0))
            count += 1
    _report(3, count == 20 and worst_round <= 1e-9,
            f"E_V structure on {count} random subspaces at d = 2,3: degree <= 1, "
            f"level-0 component zero, V round trip (max distance "
            f"{worst_round:.2e} <= 1e-9)")


# -- 4: weighted-shift algebra of the appendix ---------------------------------


def test_criterion_4_appendix_algebra():
    worst_row = 0.0
    worst_dec = 0.0
    modules = [
        h2(2, 1, 12),
        gm.StandardModule(gm.make_weights("hardy", 12, d=2), d=2),
        gm.StandardModule(gm.make_weights("bergman", 12, d=2), d=2, multiplicity=2),
        gm.StandardModule(gm.make_weights("sinsqrt", 12, r1=1.0, r2=4.0), d=3),
    ]
    for mod in modules:
        ops, fock_ops = mod.coordinate_tuple(), mod.fock_tuple()
        for n in range(mod.top_level):
            worst_row = max(worst_row, gm.row_sum_residual(ops, mod.rho, n, 0.0))
        for n in range(1, mod.top_level):
            worst_dec = max(worst_dec, gm.commutator_decomposition_residual(
                ops, fock_ops, mod.rho, n, 0.0).max())
    hardy = gm.make_weights("hardy", 200, d=2)
    k = np.arange(200)
    hardy_exact = float(np.max(np.abs(hardy.values - np.sqrt((k + 1) / (k + 2)))))
    ok = worst_row <= 1e-12 and worst_dec <= 1e-12 and hardy_exact == 0.0
    _report(4, ok,
            f"sum_k Z_k Z_k* = rho_n^2 on every level ({worst_row:.2e} <= 1e-12), "
            f"commutator decomposition blockwise ({worst_dec:.2e} <= 1e-12), "
            f"Hardy weights exact (max deviation {hardy_exact:.1e})")


# -- 5: summability thresholds ---------------------------------------------------


def test_criterion_5_summability_thresholds():
    details = []
    ok = True

    for d in (2, 3):
        for p in (1, 2, 3, 4, 5):
            trend = gm.number_trace_report(d, p, 500).trend.trend
            expected = "converging" if p > d else "diverging"
            ok &= trend == expected
            details.append(f"trace d={d} p={p}:{trend[:4]}")

    w = gm.make_weights("sinsqrt", 2000, r1=1.0, r2=4.0)
    t3 = gm.summability_report(w, 2, 3).trend.trend
    t5 = gm.summability_report(w, 2, 5).trend.trend
    ok &= t3 == "diverging" and t5 == "converging"
    details.append(f"sinsqrt p=3:{t3[:4]} p=5:{t5[:4]}")

    mod = h2(2, 1, 200)
    rep = gm.schatten_report(mod.coordinate_tuple(), [2.0, 3.0])
    c2 = rep[2.0].trend.trend
    c3 = rep[3.0].trend.trend
    ok &= c2 == "diverging" and c3 == "converging"
    details.append(f"H2 commutators p=2:{c2[:4]} p=3:{c3[:4]}")

    _report(5, ok, "; ".join(details))


# -- 6: Koszul complex ------------------------------------------------------------


def test_criterion_6_koszul():
    rng = np.random.default_rng(RNG_SEED)
    worst_b2 = 0.0
    worst_dirac = 0.0
    betti_ok = True
    for d in (2, 3):
        for r in (1, 3):
            mod = h2(d, r, 8)
            ops = mod.coordinate_tuple()
            complex_ = build_koszul(ops)
            worst_b2 = max(worst_b2, complex_.bsquared_residual(0.0))
            for n in range(0, complex_.top_level - d):
                worst_dirac = max(worst_dirac,
                                  dirac_square_residual(complex_, n, 0.0))
            betti_ok &= betti_numbers(betti_table(complex_)) == (0,) * d + (r,)

    worst_syz = 0.0
    antisym_ok = True
    solved = 0
    for d, level, count in ((2, 2, 9), (2, 4, 8), (2, 5, 8),
                            (3, 2, 9), (3, 3, 8), (3, 4, 8)):
        mod = h2(d, 1, 8)
        ops = mod.coordinate_tuple()
        null = linalg.nullspace(mod.row_block(level))
        h = mod.level_dim(level)
        for _ in range(count):
            coef = rng.normal(size=null.shape[1]) \
                + 1j * rng.normal(size=null.shape[1])
            vec = null @ coef
            vec /= np.linalg.norm(vec)
            xi = [vec.reshape(h, d)[:, i].copy() for i in range(d)]
            eta, resid = solve_syzygy(ops, xi, level)
            worst_syz = max(worst_syz, resid)
            for j in range(1, d + 1):
                for k in range(1, d + 1):
                    antisym_ok &= bool(np.all(eta[(j, k)] == -eta[(k, j)]))
            solved += 1
    ok = (worst_b2 <= 1e-12 and worst_dirac <= 1e-11 and betti_ok
          and solved == 50 and worst_syz <= 1e-9 and antisym_ok)
    _report(6, ok,
            f"B^2 = 0 ({worst_b2:.2e} <= 1e-12), Dirac square "
            f"({worst_dirac:.2e} <= 1e-11), Betti type (0,..,0,r) for r = 1,3 "
            f"at d = 2,3, {solved} syzygies reconstructed "
            f"({worst_syz:.2e} <= 1e-9, antisymmetric: {antisym_ok})")


# -- 7: compression identities and the resolvent projection -----------------------


def test_criterion_7_identities_and_resolvent():
    rng = np.random.default_rng(RNG_SEED)
    worst_comp = 0.0
    for trial in range(10):
        d, r = 2, int(rng.integers(1, 3))
        mod = h2(d, r, 8)
        degree = int(rng.integers(1, 4))
        basis = gm.monomial_basis(d, degree)
        terms = tuple((alpha, comp, complex(rng.normal(), rng.normal()))
                      for alpha in basis.monomials for comp in range(r))
        sub = gm.GradedSubmodule.generate(
            mod, [gm.VectorPolynomial(degree, terms)])
        ops = mod.coordinate_tuple()
        for level in range(1, mod.top_level):
            r1, r2 = gm.compression_identity_residuals(ops, sub, level, 0.0)
            worst_comp = max(worst_comp, r1.max(), r2.max())

    # resolvent projection against the eigendecomposition oracle
    mod = h2(2, 1, 6)
    basis = gm.monomial_basis(2, 2)
    terms = tuple((alpha, 0, complex(rng.normal(), rng.normal()))
                  for alpha in basis.monomials)
    sub = gm.GradedSubmodule.generate(mod, [gm.VectorPolynomial(2, terms)])
    level = 2
    lmat = mod.row_block(level)
    target = sub.basis(level + 1)
    proj_out = lmat - target @ (target.conj().T @ lmat)
    pre = linalg.nullspace(proj_out)
    b = lmat @ linalg.projector(pre) @ lmat.conj().T
    eigs = np.linalg.eigvalsh(b)
    gap = float(eigs[eigs > 1e-10].min())
    oracle = spectral_projection_oracle(b, gap)

    # Gauss-Legendre panels converge geometrically: at least 100x per
    # doubling until the error reaches roundoff.  B is a projection here, so
    # at the full gap 64 nodes already reach roundoff; a contour of height
    # gap/8 passes 8x closer to the spectrum and shows the decay.
    errors = []
    for nodes in (64, 128, 256, 512):
        proj, _ = resolvent_quadrature(b, gap / 8, nodes)
        errors.append(float(np.linalg.norm(proj - oracle, 2)))
    geometric_ok = errors[-1] <= 1e-12 and all(
        fine <= coarse / 100 for coarse, fine in zip(errors, errors[1:])
        if coarse > 1e-12)

    y_ops = [z.conj().T @ z for z in mod.coordinate_tuple()[level + 1]]
    rep = gm.resolvent_projection(b, gap, transforms=y_ops, p_values=[1.0, 2.0])
    distance = float(np.linalg.norm(rep.projection - oracle, 2))
    bounds_ok = all(c.slack >= 0.0 for c in rep.bound_checks)

    ok = (worst_comp <= 1e-11 and rep.converged and distance <= 1e-12
          and geometric_ok and bounds_ok)
    _report(7, ok,
            f"compression identities on 10 random submodules "
            f"({worst_comp:.2e} <= 1e-11); quadrature converged at "
            f"{rep.nodes} nodes ({rep.converged}), {distance:.2e} <= 1e-12 "
            f"from the eigendecomposition; at contour height gap/8 the errors "
            f"at 64..512 nodes "
            f"{', '.join(f'{e:.1e}' for e in errors)} fall at least 100x per "
            f"doubling ({geometric_ok}); norm bound satisfied on all "
            f"instances ({bounds_ok})")


# -- 8: the similarity counterexample ----------------------------------------------


def test_criterion_8_counterexample():
    rep = similarity_counterexample(alternating_block_sequence(81), 80)
    delta = 1.0 + 1e-9
    flagged_vals = rep.b_commutator_diag[rep.flagged_indices]
    ok = (rep.intertwining_residual == 0.0
          and rep.a_commutator_rank == 1
          and rep.flagged_indices.size == 20
          and bool(np.all(flagged_vals >= np.e**2 - delta)))
    _report(8, ok,
            f"LA = BL exactly (residual {rep.intertwining_residual}); "
            f"rank[A*, A] = {rep.a_commutator_rank}; B self-commutator diagonal "
            f">= e^2 - {delta:g} on {rep.flagged_indices.size} flagged indices")


# -- 9: deterministic CLI reports ----------------------------------------------------


def test_criterion_9_cli_determinism(tmp_path):
    gens = tmp_path / "gens.txt"
    gens.write_text("2 1+0i (2 0)@e1 + 1+0i (0 2)@e1\n")
    commands = {
        "weights": ["weights", "--family", "sinsqrt", "--r1", "1", "--r2", "4",
                    "--d", "2", "--N", "150", "--p", "3,5"],
        "submodule": ["submodule", "--d", "2", "--N", "8", "--family", "hardy",
                      "--gens", str(gens)],
        "koszul": ["koszul", "--d", "2", "--N", "6"],
        "counterexample": ["counterexample", "--N", "40"],
    }
    identical = True
    for name, argv in commands.items():
        out1, out2 = tmp_path / f"{name}_1", tmp_path / f"{name}_2"
        assert cli.main(argv + ["--out", str(out1)]) == 0
        assert cli.main(argv + ["--out", str(out2)]) == 0
        report = f"{name}.json"
        identical &= (out1 / report).read_bytes() == (out2 / report).read_bytes()
    _report(9, identical,
            "byte-identical JSON reports across repeated runs of weights, "
            "submodule, koszul and counterexample")
