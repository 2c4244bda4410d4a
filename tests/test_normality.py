"""Commutator blocks, Schatten trends, compression identities, resolvent
projection, and the similarity counterexample."""

import numpy as np
import pytest
from hypothesis import given, settings

import gradmod as gm
from gradmod import linalg
from gradmod.config import RESIDUAL_FLOOR
from gradmod.normality import (CHUNK_ENTRIES, GL_ORDER, _side_panels,
                               alternating_block_sequence,
                               resolvent_quadrature, similarity_counterexample,
                               spectral_projection_oracle)
from conftest import random_generators, submodule_inputs
from normality_oracle import compression_sides
from quadrature_oracle import node_by_node_quadrature


@pytest.fixture
def h2():
    return gm.StandardModule(gm.make_weights("dshift", 10), d=2)


# -- commutator blocks -------------------------------------------------------


def test_commutators_are_level_diagonal(h2):
    comms = gm.self_commutators(h2.coordinate_tuple())
    for n, stack in comms.items():
        assert stack.shape == (2, 2) + (h2.level_dim(n),) * 2


def test_normal_tuple_has_zero_commutators():
    # constant commuting diagonal blocks: away from the bottom edge of the
    # grading all commutator blocks vanish (at level 0 the truncation itself
    # contributes T_j* T_k, the same edge effect that makes a shift non-normal)
    diag = np.diag([1.0, -2.0]).astype(complex)
    ops = {n: np.stack([diag, 2 * diag]) for n in range(5)}
    comms = gm.self_commutators(ops)
    for n in range(1, 5):
        assert np.abs(comms[n]).max() <= 1e-14


def test_h2_commutator_norm_decay(h2):
    comms = gm.self_commutators(h2.coordinate_tuple())
    norms = [np.linalg.norm(comms[n][0, 0], 2) for n in range(10)]
    # O(1/n) decay: norm at level 2n is about half the norm at level n
    assert norms[8] < 0.7 * norms[4] < 0.5 * norms[2]


def test_schatten_report_structure(h2):
    rep = gm.schatten_report(h2.coordinate_tuple(), [2.0])
    assert list(rep) == [2.0]
    assert rep[2.0].partial_sums.size == 10
    assert np.all(np.diff(rep[2.0].partial_sums) >= 0)
    with pytest.raises(ValueError):
        gm.schatten_report(h2.coordinate_tuple(), [0.5])
    with pytest.raises(ValueError, match="no levels"):
        gm.schatten_report({}, [2.0])


def test_schatten_singular_values_equal_per_block_svd(h2, rng):
    # one stacked SVD per level gives each block's singular values bit for
    # bit, so each level's summand is, bit for bit, the sum of sigma^p over
    # per-block SVDs added in pair order; the quotient by (z_1, z_2) has
    # dim Q_n = 0 on every level n >= 1
    linear = gm.GradedSubmodule.generate(
        h2, [gm.monomial_generator((1, 0)), gm.monomial_generator((0, 1))])
    generic = gm.GradedSubmodule.generate(h2, random_generators(rng, 2, 1, 2, 1))
    assert linear.dims()[1:] == [h2.level_dim(n) for n in range(1, 11)]
    p_values = [1.0, 2.0, 3.5]
    for ops in (h2.coordinate_tuple(),
                linear.quotient_tuple(), generic.quotient_tuple()):
        rep = gm.schatten_report(ops, p_values)
        comms = gm.self_commutators(ops)
        for p in p_values:
            summands = []
            for n in sorted(comms):
                total = 0
                for j, k in ((1, 1), (1, 2), (2, 1), (2, 2)):
                    block = comms[n][j - 1, k - 1]
                    sigma = (np.linalg.svd(block, compute_uv=False)
                             if block.size else np.zeros(0))
                    total += float(np.sum(sigma ** p))
                summands.append(total)
            np.testing.assert_array_equal(rep[p].partial_sums, np.cumsum(summands))


def test_quotient_report_of_full_subspace_matches_ambient(h2):
    v = gm.SubspaceV.from_matrix(h2, np.eye(2))
    amb = gm.schatten_report(h2.coordinate_tuple(), [2.0])
    quo = gm.schatten_report(gm.ev_space(h2, v).quotient_tuple(), [2.0])
    np.testing.assert_allclose(quo[2.0].partial_sums, amb[2.0].partial_sums, atol=1e-12)


def test_one_variable_restriction_trend(h2):
    # V = span{(1,0)}: the quotient is the 1-variable shift, whose
    # self-commutator is concentrated at level 0
    v = gm.SubspaceV.from_matrix(h2, np.array([[1.0], [0.0]]))
    rep = gm.schatten_report(gm.ev_space(h2, v).quotient_tuple(), [1.5, 2.0, 3.0])
    for p in (1.5, 2.0, 3.0):
        assert rep[p].trend.trend == "converging"


def test_linearized_quotient_presets_emit_labeled_evidence():
    """The three special-case presets produce trend reports.

    No pass/fail is attached to the trends themselves: whether every such
    quotient is essentially normal is an open question, and the ``ev``
    report labels them evidence only (its ``note``, checked in test_cli).
    """
    # (a) one-dimensional V at d = 3
    mod3 = gm.StandardModule(gm.make_weights("dshift", 8), d=3)
    v_a = gm.SubspaceV.from_matrix(mod3, np.array([[1.0], [1.0], [1.0]]) / np.sqrt(3))
    # (b) V of codimension one in d.E
    v_b = gm.SubspaceV.from_matrix(
        mod3, np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    # (c) diagonal M_1 = span{z_1 e_1, z_2 e_2} at d = 2, r = 2
    mod22 = gm.StandardModule(gm.make_weights("dshift", 8), d=2, multiplicity=2)
    m1 = gm.submodules.embed_polynomials(mod22, [
        gm.VectorPolynomial(1, (((1, 0), 0, 1.0),)),
        gm.VectorPolynomial(1, (((0, 1), 1, 1.0),))])
    adj = mod22.adjoint_stack(0, m1)
    for k in (1, 2):
        for j in (1, 2):
            if j == k:
                continue
            overlap = adj[k - 1].conj().T @ adj[j - 1]
            assert linalg.opnorm(overlap) <= 1e-13    # genuinely diagonal
    v_c = gm.recover_subspace(gm.GradedSubmodule.from_level_seeds(mod22, {1: m1}))

    for mod, v in ((mod3, v_a), (mod3, v_b), (mod22, v_c)):
        rep = gm.schatten_report(gm.ev_space(mod, v).quotient_tuple(), [3.0, 4.0])
        for p in (3.0, 4.0):
            assert rep[p].trend.trend in ("converging", "diverging", "inconclusive")


def test_quotient_commutator_norms_eventually_nonincreasing(rng):
    # regression guard at d = 2: beyond level 10 the per-level commutator
    # norms of generated-quotient tuples do not increase
    mod = gm.StandardModule(gm.make_weights("dshift", 20), d=2)
    gens_list = [
        [gm.monomial_generator((1, 0))],
        [gm.VectorPolynomial(2, (((2, 0), 0, 1.0), ((0, 2), 0, 1.0)))],
        random_generators(rng, 2, 1, 3, 1),
    ]
    for gens in gens_list:
        comms = gm.self_commutators(
            gm.GradedSubmodule.generate(mod, gens).quotient_tuple())
        norms = [max(np.linalg.norm(comms[n][j, k], 2) if comms[n].size else 0.0
                     for j in (0, 1) for k in (0, 1)) for n in range(20)]
        for n in range(10, 19):
            assert norms[n + 1] <= norms[n] + 1e-10


# -- compression identities ---------------------------------------------------


def test_identities_for_trivial_submodules(h2):
    full = gm.GradedSubmodule.from_level_seeds(h2, {0: np.eye(h2.level_dim(0))})
    zero = gm.GradedSubmodule.from_level_seeds(h2, {})
    ops = h2.coordinate_tuple()
    for level in (1, 4, 8):
        r1, r2 = gm.compression_identity_residuals(ops, full, level, 0.0)
        assert r1.shape == r2.shape == (2, 2)
        assert max(r1.max(), r2.max()) <= 1e-13
        r1, r2 = gm.compression_identity_residuals(ops, zero, level, 0.0)
        assert max(r1.max(), r2.max()) <= 1e-13


def test_identities_random_submodules(rng, h2):
    ops = h2.coordinate_tuple()
    for trial in range(3):
        gens = random_generators(rng, 2, 1, int(rng.integers(1, 4)), 1)
        sub = gm.GradedSubmodule.generate(h2, gens)
        for level in range(1, 7):
            r1, r2 = gm.compression_identity_residuals(ops, sub, level, 0.0)
            assert max(r1.max(), r2.max()) <= 1e-11


@settings(derandomize=True, database=None, max_examples=15, deadline=None)
@given(submodule_inputs())
def test_identities_on_drawn_submodules(case):
    mod, gens = case
    sub = gm.GradedSubmodule.generate(mod, gens)
    # the identities are quartic in the T_i, whose norms are the weights
    tol = 1e-11 * max(1.0, float(np.max(mod.rho))) ** 4
    ops = mod.coordinate_tuple()
    for level in range(1, sub.module.top_level):
        r1, r2 = gm.compression_identity_residuals(ops, sub, level, 0.0)
        assert r1.shape == r2.shape == (mod.d, mod.d)
        assert max(r1.max(), r2.max()) <= tol


def test_identities_reject_boundary_level(h2):
    sub = gm.GradedSubmodule.from_level_seeds(h2, {0: np.eye(h2.level_dim(0))})
    ops = h2.coordinate_tuple()
    with pytest.raises(ValueError):
        gm.compression_identity_residuals(ops, sub, 0, 0.0)
    with pytest.raises(ValueError):
        gm.compression_identity_residuals(ops, sub, 10, 0.0)


def _oracle_residuals(mod, sub, level):
    """Both residual arrays of one level from the dense oracle."""
    r1, r2 = np.zeros((mod.d, mod.d)), np.zeros((mod.d, mod.d))
    for j in range(1, mod.d + 1):
        for k in range(1, mod.d + 1):
            lhs1, rhs1, lhs2, rhs2 = compression_sides(mod, sub, j, k, level)
            r1[j - 1, k - 1] = np.linalg.norm(lhs1 - rhs1, 2)
            r2[j - 1, k - 1] = np.linalg.norm(lhs2 - rhs2, 2)
    return r1, r2


@settings(derandomize=True, database=None, max_examples=6, deadline=None)
@given(submodule_inputs())
def test_identities_match_dense_oracle_on_generated_submodules(case):
    # invariant M: both evaluations are at roundoff, on every pair and level
    mod, gens = case
    sub = gm.GradedSubmodule.generate(mod, gens)
    tol = 1e-11 * max(1.0, float(np.max(mod.rho))) ** 4
    ops = mod.coordinate_tuple()
    for level in range(1, sub.module.top_level):
        got = gm.compression_identity_residuals(ops, sub, level, 0.0)
        for g, want in zip(got, _oracle_residuals(mod, sub, level)):
            assert g.max() <= tol and want.max() <= tol
            np.testing.assert_allclose(g, want, rtol=0, atol=tol)


def _random_quotient_side(rng, mod):
    """A GradedSubmodule whose Q_n are random orthonormal columns: not invariant.

    Level 0 lies in M; every other level has ceil(dim / 2) columns in Q_n.
    """
    bases = {}
    for n in range(mod.top_level + 1):
        dim = mod.level_dim(n)
        cols = (dim + 1) // 2 if n else 0
        raw = rng.normal(size=(dim, cols)) + 1j * rng.normal(size=(dim, cols))
        bases[n] = np.linalg.qr(raw)[0]
    return gm.GradedSubmodule(mod, bases, {})


@pytest.mark.parametrize("family,d,r,top", [
    ("hardy", 2, 1, 7), ("bergman", 3, 1, 5), ("sinsqrt", 2, 2, 6)])
def test_identities_fail_off_invariant_subspaces_as_the_oracle_does(
        rng, family, d, r, top):
    # the levelwise arrays must see the same nonzero residuals as the dense
    # evaluation, for every pair: a check that can only report roundoff would
    # not fail here
    mod = gm.StandardModule(gm.make_weights(family, top, d=d, r1=0.5, r2=2.0),
                            d=d, multiplicity=r)
    sub = _random_quotient_side(rng, mod)
    ops = mod.coordinate_tuple()
    for level in range(1, top):
        got = gm.compression_identity_residuals(ops, sub, level, 0.0)
        # residuals far above the printed floor keep their exact bits
        floored = gm.compression_identity_residuals(ops, sub, level, RESIDUAL_FLOOR)
        for g, f, want in zip(got, floored, _oracle_residuals(mod, sub, level)):
            assert g.min() > 1e-3
            assert np.array_equal(f, g)
            np.testing.assert_allclose(g, want, rtol=1e-10, atol=0)


# -- resolvent projection ------------------------------------------------------


def test_resolvent_diagonal_example():
    b = np.diag([0.0, 2.0, 3.0]).astype(complex)
    rep = gm.resolvent_projection(b, 2.0)
    np.testing.assert_allclose(rep.projection, np.diag([0.0, 1.0, 1.0]),
                               atol=1e-8)


def test_resolvent_fixed_point_on_projections():
    b = np.zeros((3, 3), dtype=complex)
    b[1, 1] = b[2, 2] = 1.0
    rep = gm.resolvent_projection(b, 1.0)
    np.testing.assert_allclose(rep.projection, b, atol=1e-8)


def test_resolvent_requires_gap_and_hermitian():
    with pytest.raises(ValueError):
        gm.resolvent_projection(np.diag([0.0, 0.5, 2.0]).astype(complex), 2.0)
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        gm.resolvent_projection(bad, 1.0)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_resolvent_refuses_a_non_finite_b_before_lapack(bad, capfd):
    # an infinite corner entry used to reach LAPACK, which printed
    # "On entry to DLASCL parameter number 4 had an illegal value" to the
    # terminal before an unrelated error from the panel count
    b = np.diag([0.0, 1.0, 2.0]).astype(complex)
    b[0, 2] = bad
    with pytest.raises(ValueError, match="B has a non-finite entry"):
        gm.resolvent_projection(b, 1.0)
    assert capfd.readouterr() == ("", "")


def _rotated_diagonal(diagonal):
    rng = np.random.default_rng(3)
    dim = len(diagonal)
    q = np.linalg.qr(rng.normal(size=(dim, dim))
                     + 1j * rng.normal(size=(dim, dim)))[0]
    b = q @ np.diag(diagonal) @ q.conj().T
    return (b + b.conj().T) / 2


def test_resolvent_error_decays_geometrically():
    b = _rotated_diagonal([0.0, 0.0, 1.0, 1.5, 2.0, 4.0])
    oracle = spectral_projection_oracle(b, 1.0)
    errors = []
    for nodes in (64, 128, 256, 512):
        proj, _ = resolvent_quadrature(b, 1.0, nodes)
        errors.append(np.linalg.norm(proj - oracle, 2))
    for e_coarse, e_fine in zip(errors, errors[1:]):
        if e_coarse > 1e-12:
            assert e_fine <= e_coarse / 100
    assert errors[2] <= 1e-12       # 256 nodes


def test_resolvent_refinement_doubles_panels_from_one_node():
    # a one-node request still yields distinct successive rules, so
    # convergence is never claimed by comparing a rule with itself
    b = _rotated_diagonal([0.0, 0.0, 1.0, 1.5, 2.0, 4.0])
    rep = gm.resolvent_projection(b, 1.0, nodes=1)
    distance = np.linalg.norm(rep.projection - spectral_projection_oracle(b, 1.0), 2)
    assert distance <= 1e-8 or not rep.converged
    assert rep.successive_difference > 0.0


def test_resolvent_converges_at_small_relative_gap():
    # ||B|| / gap = 40: a rule whose error is O(h^2) at the corners stays
    # above the 1e-10 floor all the way to QUAD_MAX_NODES here
    b = _rotated_diagonal([0.0, 0.0, 0.1, 1.5, 2.0, 4.0])
    rep = gm.resolvent_projection(b, 0.1)
    assert rep.converged
    assert rep.nodes <= 4096
    assert np.linalg.norm(rep.projection - spectral_projection_oracle(b, 0.1), 2) \
        <= 1e-12


def _gapped_case(dim):
    """Hermitian B with a zero cluster and spectrum above a gap, plus Hermitian Ys.

    The number of transforms is dim mod 4 and the doublings (dim // 4) mod 4,
    so dim = 1..16 meets every pair of the two.
    """
    rng = np.random.default_rng(500 + dim)
    gap = float(rng.uniform(0.25, 2.0))
    spectrum = np.where(rng.random(dim) < 0.4, 0.0,
                        gap + rng.uniform(0.0, 4.0, dim))
    b = _rotated_diagonal(spectrum)
    ys = []
    for _ in range(dim % 4):
        y = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        ys.append((y + y.conj().T) / 2)
    return b, gap, ys, (dim // 4) % 4


def several_chunks(b, gap):
    """A node count whose undoubled rule spans three or more chunks and ends in a partial one.

    Opposite sides have equal panel counts, so a rule has an even number of
    panels, and chunks of one or two panels leave no partial chunk; for
    them it is enough that there are three or more.
    """
    dim = b.shape[0]
    chunk = max(1, CHUNK_ENTRIES // (GL_ORDER * dim * dim))
    b_norm = float(np.linalg.norm(b, 2))
    nodes = GL_ORDER
    while True:
        panels = sum(_side_panels(b_norm, gap, nodes))
        if panels > 2 * chunk and (chunk <= 2 or panels % chunk):
            return nodes
        nodes += GL_ORDER


@pytest.mark.parametrize("dim", range(1, 17))
def test_panel_quadrature_equals_node_loop_bitwise(dim):
    # one stacked solve per chunk of panels, summed in node order: the same
    # bits as one solve per node; nodes = 1 gives one panel per side, and
    # the last rule spans several chunks and ends in a partial one
    b, gap, ys, doublings = _gapped_case(dim)
    for nodes, doubled in ((1, doublings), (100, doublings), (several_chunks(b, gap), 0)):
        proj, transformed = resolvent_quadrature(b, gap, nodes, ys, doubled)
        want_proj, want_transformed = node_by_node_quadrature(b, gap, nodes, ys, doubled)
        assert np.array_equal(proj, want_proj)
        assert len(transformed) == len(ys)
        for got, want in zip(transformed, want_transformed):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("dim", [1, 5, 11, 16])
def test_a_chunk_is_whole_panels_within_the_entry_limit(dim, monkeypatch):
    # as many whole panels per stacked solve as fit in CHUNK_ENTRIES (one
    # panel at dim 16), at least one; only the last chunk may be shorter
    b, gap, _, _ = _gapped_case(dim)
    nodes = several_chunks(b, gap)
    panels = sum(_side_panels(linalg.opnorm(b), gap, nodes))
    chunk = max(1, CHUNK_ENTRIES // (GL_ORDER * dim * dim))
    sizes = []
    solve = np.linalg.solve

    def counting(a, *args):
        sizes.append(a.shape[0])
        return solve(a, *args)
    monkeypatch.setattr(np.linalg, "solve", counting)
    resolvent_quadrature(b, gap, nodes)
    assert len(sizes) == -(-panels // chunk) >= 3
    assert sizes[:-1] == [chunk * GL_ORDER] * (len(sizes) - 1)
    assert sum(sizes) == panels * GL_ORDER
    assert chunk * GL_ORDER * dim * dim <= max(CHUNK_ENTRIES, GL_ORDER * dim * dim)


@pytest.mark.parametrize("dim", [1, 4, 7])
def test_resolvent_projection_is_its_last_rule_bitwise(dim):
    # resolvent_projection reuses ||B|| and each [Y, B] across its rules; its
    # answer is still exactly the node-by-node value of the last rule
    b, gap, ys, _ = _gapped_case(dim)
    rep = gm.resolvent_projection(b, gap, nodes=64, transforms=ys)
    first = GL_ORDER * sum(_side_panels(float(np.linalg.norm(b, 2)), gap, 64))
    doublings = (rep.nodes // first).bit_length() - 1
    assert first << doublings == rep.nodes
    want_proj, want_transformed = node_by_node_quadrature(b, gap, 64, ys, doublings)
    assert np.array_equal(rep.projection, want_proj)
    for got, want in zip(rep.commutator_transforms, want_transformed, strict=True):
        assert np.array_equal(got, want)


def test_resolvent_commutator_transform_and_bound(rng):
    q = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))[0]
    b = q @ np.diag([0.0, 1.0, 1.0, 2.0, 3.0]) @ q.conj().T
    b = (b + b.conj().T) / 2
    y = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    y = (y + y.conj().T) / 2
    rep = gm.resolvent_projection(b, 1.0, transforms=[y], p_values=[1.0, 2.0])
    oracle = spectral_projection_oracle(b, 1.0)
    direct = y @ oracle - oracle @ y
    assert np.linalg.norm(rep.commutator_transforms[0] - direct, 2) <= 1e-8
    for check in rep.bound_checks:
        assert check.slack >= 0.0
        assert check.measured <= check.bound


# -- similarity counterexample --------------------------------------------------


def test_default_sequence_admissible():
    u = alternating_block_sequence(13)
    np.testing.assert_array_equal(u[:4], [0.0, 1.0, 0.0, -1.0])
    assert np.max(np.abs(np.cumsum(u))) <= 1.0


def test_counterexample_construction():
    rep = similarity_counterexample(alternating_block_sequence(61), 60)
    assert rep.intertwining_residual == 0.0            # bitwise exact
    assert rep.a_commutator_rank == 1
    assert rep.flagged_indices.size == 15              # every n = 0 mod 4
    flags = rep.flagged_indices
    e2 = np.e ** 2
    assert np.all(rep.b_commutator_diag[flags] >= e2 - 1.0 - 1e-9)
    np.testing.assert_allclose(rep.b_ratio_diag[flags], e2, rtol=1e-12)
    # partial sums stay bounded, so the intertwiner is invertible on the window
    assert rep.max_partial_sum <= 1.0
    assert rep.intertwiner_extremes[0] >= 1.0


def test_counterexample_requires_flag():
    with pytest.raises(ValueError):
        similarity_counterexample(np.zeros(21), 20)
    with pytest.raises(ValueError):
        similarity_counterexample(np.zeros(5), 20)     # too short


def test_counterexample_nontrivial_b():
    rep = similarity_counterexample(alternating_block_sequence(41), 40)
    # B is genuinely not essentially normal on the window: the diagonal does
    # not decay along flagged indices
    tail_flags = rep.flagged_indices[rep.flagged_indices > 20]
    assert np.all(np.abs(rep.b_commutator_diag[tail_flags]) > 1.0)


@pytest.mark.parametrize("random_u", [False, True])
def test_counterexample_diagonals_are_the_one_by_one_self_commutators(rng, random_u):
    # the closed-form diagonals equal [A*, A] and [B*, B] formed by
    # self_commutators on the 1 x 1 stacks of A e_n = e_{n+1} and
    # B e_n = e^{u_{n+1}} e_{n+1}, bit for bit; a drawn u gets the required
    # flag (u_0, u_1) = (0, 1) planted
    if random_u:
        u = rng.normal(size=41)
        u[:2] = 0.0, 1.0
    else:
        u = alternating_block_sequence(41)
    rep = similarity_counterexample(u, 40)
    b = np.exp(u[1:])
    a_comms = gm.self_commutators({n: np.ones((1, 1, 1), dtype=complex)
                                   for n in range(40)})
    b_comms = gm.self_commutators({n: np.full((1, 1, 1), b[n], dtype=complex)
                                   for n in range(40)})
    a_diag = np.array([a_comms[n].real[0, 0, 0, 0] for n in range(40)])
    b_diag = np.array([b_comms[n].real[0, 0, 0, 0] for n in range(40)])
    assert rep.a_commutator_rank == np.count_nonzero(a_diag) == 1
    np.testing.assert_array_equal(a_diag, np.eye(1, 40)[0])
    np.testing.assert_array_equal(rep.b_commutator_diag, b_diag)


def test_counterexample_rejects_an_overflowing_sequence():
    # e^1000 overflows: no report is built from an infinite weight
    u = [1000.0, 0.0, 1.0, 0.0, -1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0]
    with pytest.raises(ValueError, match="overflows"):
        similarity_counterexample(u, 10)
