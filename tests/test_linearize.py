"""Row operator, kernel, pullback, iterated linearization, E_V structure.

The pullback oracle recomputes preimages with least squares (particular
solutions plus the kernel), a route independent of the isometry L_k*/rho_k
that the package pulls back by.
"""

import itertools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gradmod as gm
from gradmod import linalg
from gradmod.config import RANK_TOL_FACTOR
from gradmod.linearize import WindowExhausted
import structure_oracle as oracle
from conftest import random_generators, random_subspace
from mside_oracle import preimage, pullback_span_residual


@pytest.fixture
def h2():
    return gm.StandardModule(gm.make_weights("dshift", 10), d=2)


# -- row operator and kernel ---------------------------------------------------


def test_row_operator_surjective(h2):
    for n in range(9):
        # S_{n+1} = sum_k Z_k S_n, so L_n has full row rank
        assert linalg.numerical_rank(h2.row_block(n)) == h2.level_dim(n + 1)
        assert h2.row_block(n).shape == (h2.level_dim(n + 1), 2 * h2.level_dim(n))


@pytest.mark.parametrize("family,d,r", [("dshift", 2, 1), ("hardy", 2, 3),
                                        ("bergman", 3, 2), ("sinsqrt", 4, 1)])
def test_row_block_is_sum_of_coordinate_blocks(rng, family, d, r):
    mod = gm.StandardModule(gm.make_weights(family, 5, d=d, r1=1.0, r2=4.0),
                            d=d, multiplicity=r)
    for n in range(mod.top_level):
        s = mod.scalar_dim(n)
        xis = [rng.normal(size=s * r) + 1j * rng.normal(size=s * r) for _ in range(d)]
        # d.S level n: index (monomial, copy k, component), copy-major d.E
        stacked = np.zeros(s * d * r, dtype=complex)
        for m in range(s):
            for k in range(d):
                for c in range(r):
                    stacked[(m * d + k) * r + c] = xis[k][m * r + c]
        expected = sum(oracle.coordinate_block(mod, k + 1, n) @ xis[k]
                       for k in range(d))
        assert np.allclose(mod.row_block(n) @ stacked, expected, rtol=0, atol=1e-13)


def test_row_domain_cached_on_module(h2):
    assert h2.row_domain is h2.row_domain
    assert h2.row_domain.multiplicity == 2 * h2.multiplicity


def test_kernel_level_one_explicit(h2):
    K = gm.kernel_levels(h2)
    assert K.dim(0) == 0
    assert K.dim(1) == 1
    # the kernel vector at level 1 is (z_2, -z_1): copy-major coordinates
    # inside monomial-major d.S indexing: (alpha, copy) -> index 2*alpha + copy
    expected = np.zeros((4, 1), dtype=complex)
    expected[0 * 2 + 1] = -1.0   # -z_1 in copy 2
    expected[1 * 2 + 0] = 1.0    # +z_2 in copy 1
    expected /= np.sqrt(2.0)
    assert linalg.subspace_distance(K.basis(1), expected) <= 1e-12


@pytest.mark.parametrize("d,r", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_kernel_dims_by_rank_nullity(d, r):
    mod = gm.StandardModule(gm.make_weights("hardy", 8, d=d), d=d, multiplicity=r)
    K = gm.kernel_levels(mod)
    for n in range(K.window + 1):
        expected = d * mod.level_dim(n) - mod.level_dim(n + 1)
        assert K.dim(n) == expected


def test_kernel_degree_one(h2):
    K = gm.kernel_levels(h2)
    rep = K.degree_report()
    assert rep.degree == 1 and rep.determined
    # span equality K_{n+1} = sum Z_k K_n, checked directly
    dom = h2.row_domain
    for n in range(1, K.window):
        image = linalg.orthonormal_columns(np.hstack([
            oracle.coordinate_block(dom, k, n) @ K.basis(n) for k in (1, 2)]))
        assert linalg.subspace_distance(image, K.basis(n + 1)) <= 1e-10


# -- pullback -------------------------------------------------------------------


def bruteforce_preimage(row_block, target_basis):
    """Particular solutions by least squares plus the kernel of the row block."""
    cols = [np.linalg.lstsq(row_block, target_basis[:, i], rcond=None)[0]
            for i in range(target_basis.shape[1])]
    null = linalg.nullspace(row_block)
    pieces = [np.column_stack(cols)] if cols else []
    pieces.append(null)
    return linalg.orthonormal_columns(np.hstack(pieces))


def test_pullback_matches_bruteforce_preimage(h2):
    g = gm.VectorPolynomial(2, (((2, 0), 0, 1.0), ((0, 2), 0, 1.0)))
    sub = gm.GradedSubmodule.generate(h2, [g])
    pulled = gm.pullback(sub)
    assert pulled.dim(1) == 2    # nullity 1 + preimage dim 1
    for k in range(pulled.window + 1):
        oracle = bruteforce_preimage(h2.row_block(k), sub.basis(k + 1))
        assert linalg.subspace_distance(pulled.basis(k), oracle) <= 1e-10


def test_preimage_of_a_target_containing_the_range():
    # two generic linear forms fill every level >= 1, so M_3 contains ran L_2:
    # (I - P_{M_3}) L_2 is roundoff (1e-16), and all of (d.S)_2 is the preimage
    mod = gm.StandardModule(gm.make_weights("dshift", 7), d=2)
    gens = gm.parse_generators("1 0.3+0.2i (1 0)@e1 + 0.7-0.1i (0 1)@e1\n"
                               "1 -0.4+0.9i (1 0)@e1 + 0.2+0.5i (0 1)@e1\n", 2)
    sub = gm.GradedSubmodule.generate(mod, gens)
    assert sub.dim(3) == mod.level_dim(3)
    assert preimage(mod.row_block(2), sub.basis(3)).shape == (6, 6)


def test_pullback_identities(h2):
    g = gm.VectorPolynomial(2, (((2, 0), 0, 1.0), ((0, 2), 0, 1.0)))
    sub = gm.GradedSubmodule.generate(h2, [g])
    pulled = gm.pullback(sub)
    assert pullback_span_residual(sub, pulled) <= 1e-10
    assert gm.kernel_containment_residual(h2, pulled) <= 1e-10
    assert pulled.degree_report().degree == sub.degree_report().degree - 1


def test_pullback_degree_preconditions(h2):
    low = gm.GradedSubmodule.generate(h2, [gm.monomial_generator((1, 0))])
    with pytest.raises(ValueError):
        gm.pullback(low)                       # degree 1
    full = gm.GradedSubmodule.full(h2)
    with pytest.raises(ValueError):
        gm.pullback(full)                      # reducing, degree 0
    tall = gm.GradedSubmodule.generate(h2, [gm.monomial_generator((9, 0))])
    with pytest.raises(WindowExhausted):
        gm.pullback(tall)                      # undetermined degree


def test_shift_quotient_dims_and_induced_map(h2):
    g = gm.VectorPolynomial(2, (((2, 0), 0, 1.0), ((0, 2), 0, 1.0)))
    sub = gm.GradedSubmodule.generate(h2, [g])
    q = gm.QuotientModule(sub)
    shifted = gm.shift_quotient(q)
    for n in range(shifted.window + 1):
        assert shifted.dim(n) == q.dim(n + 1)
    report = gm.induced_map_report(q, shifted)
    for n, (cond, full_rank) in report.items():
        assert full_rank and np.isfinite(cond)


def test_linearize_full_cases(h2):
    # degree 2: one pullback step
    g2 = gm.VectorPolynomial(2, (((2, 0), 0, 1.0), ((0, 2), 0, 1.0)))
    res = gm.linearize_full(gm.GradedSubmodule.generate(h2, [g2]))
    assert res.complete and len(res.steps) == 2
    assert [s.degree for s in res.steps] == [2, 1]
    assert res.steps[-1].multiplicity == 2

    # degree 1 input: zero steps
    res = gm.linearize_full(gm.GradedSubmodule.generate(
        h2, [gm.monomial_generator((1, 0))]))
    assert res.complete and len(res.steps) == 1 and res.steps[0].degree == 1

    # degree 3: two steps, final multiplicity d^2 = 4
    g3 = gm.VectorPolynomial(3, (((3, 0), 0, 1.0), ((0, 3), 0, 1.0)))
    res = gm.linearize_full(gm.GradedSubmodule.generate(h2, [g3]))
    assert res.complete
    assert [s.degree for s in res.steps] == [3, 2, 1]
    assert res.steps[-1].multiplicity == 4
    assert max(res.coinvariance_residuals) <= 1e-10
    assert max(res.kernel_residuals) <= 1e-10


def test_linearize_full_window_exhaustion():
    # at N = 4 only one saturated level beyond the generator degree is
    # witnessed, so the degree must be reported undetermined
    mod = gm.StandardModule(gm.make_weights("dshift", 4), d=2)
    g = gm.VectorPolynomial(3, (((3, 0), 0, 1.0), ((0, 3), 0, 1.0)))
    sub = gm.GradedSubmodule.generate(mod, [g])
    res = gm.linearize_full(sub)
    assert not res.complete
    assert "window" in res.reason


def test_linearize_budget_flag(h2, monkeypatch):
    g3 = gm.VectorPolynomial(3, (((3, 0), 0, 1.0), ((0, 3), 0, 1.0)))
    sub = gm.GradedSubmodule.generate(h2, [g3])
    monkeypatch.setattr(gm.linearize, "MAX_AMBIENT_DIM", 10)
    res = gm.linearize_full(sub)
    assert not res.complete and "budget" in res.reason


# -- E_V ------------------------------------------------------------------------


def test_ev_axis_subspace(h2):
    v = gm.SubspaceV.from_matrix(h2, np.array([[1.0], [0.0]]))
    ev, sub = gm.ev_space(h2, v)
    idx = [gm.monomial_basis(2, n).index((n, 0)) for n in range(11)]
    for n in range(11):
        assert ev[n].shape[1] == 1
        if n:
            assert abs(abs(ev[n][idx[n], 0]) - 1.0) <= 1e-12   # spans z_1^n
    rep = sub.degree_report()
    assert rep.determined and rep.degree == 1 and sub.dim(0) == 0


def test_ev_extreme_subspaces(h2):
    full = gm.SubspaceV.from_matrix(h2, np.eye(2))
    ev, sub = gm.ev_space(h2, full)
    assert all(ev[n].shape[1] == h2.level_dim(n) for n in range(11))
    assert sub.dims() == [0] * 11
    assert sub.degree_report().degree == 0

    none = gm.SubspaceV.from_matrix(h2, np.zeros((2, 0)))
    ev, sub = gm.ev_space(h2, none)
    assert [ev[n].shape[1] for n in range(11)] == [1] + [0] * 10
    assert sub.dims() == [0] + [h2.level_dim(n) for n in range(1, 11)]


def test_ev_gradient_route_agrees(rng):
    mod = gm.StandardModule(gm.make_weights("bergman", 7, d=2), d=2, multiplicity=2)
    for dim in (1, 2, 3):
        v = random_subspace(rng, mod, dim)
        ev_a, _ = gm.ev_space(mod, v)
        ev_g = gm.ev_gradient_levels(mod, v)
        for n in ev_a:
            assert linalg.subspace_distance(ev_a[n], ev_g[n]) <= 1e-10


def test_ev_roundtrip_both_directions(rng):
    mod = gm.StandardModule(gm.make_weights("hardy", 7, d=2), d=2, multiplicity=2)
    # V -> M -> V
    for dim in (1, 2, 3):
        v = random_subspace(rng, mod, dim)
        _, sub = gm.ev_space(mod, v)
        rec = gm.recover_subspace(sub)
        assert linalg.subspace_distance(v.basis, rec.basis) <= 1e-9
    # M -> V -> M for a degree-1 submodule generated from random M_1
    raw = rng.normal(size=(mod.level_dim(1), 2)) \
        + 1j * rng.normal(size=(mod.level_dim(1), 2))
    m1 = linalg.orthonormal_columns(raw)
    sub = gm.GradedSubmodule.from_level_seeds(mod, {1: m1})
    v = gm.recover_subspace(sub)
    _, back = gm.ev_space(mod, v)
    for n in range(back.window + 1):
        assert linalg.subspace_distance(back.basis(n), sub.basis(n)) <= 1e-9


def full_svd_nullspace(a, floor):
    """Kernel from a full SVD with the package's rank rule."""
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    rank = 0 if s[0] <= floor else int(np.count_nonzero(
        s > max(RANK_TOL_FACTOR * s[0], floor)))
    return vh[rank:, :].conj().T


def test_nullspace_of_tall_matrix(rng):
    # 40 x 9 of rank 5: a thin SVD of a tall matrix still has all 9 right
    # singular vectors
    a = (rng.normal(size=(40, 5)) + 1j * rng.normal(size=(40, 5))) \
        @ (rng.normal(size=(5, 9)) + 1j * rng.normal(size=(5, 9)))
    null = linalg.nullspace(a)
    assert null.shape == (9, 4)
    assert linalg.orthonormality_residual(null) <= 1e-13
    assert linalg.opnorm(a @ null) <= 1e-12 * linalg.opnorm(a)
    assert linalg.subspace_distance(null, full_svd_nullspace(a, 0.0)) <= 1e-12


def full_level_ev(module, v, route):
    """E_V(n) as the nullspace of (1 (x) Q) stacked on the whole level n.

    Q = I - P_V is the projector onto V^perp, built here from V's basis; for
    V = d.E it is roundoff, and the absolute floor cuts it.
    """
    q = np.eye(v.basis.shape[0]) - linalg.projector(v.basis)
    ev = {0: np.eye(module.level_dim(0), dtype=complex)}
    for n in range(1, module.top_level + 1):
        if route is gm.ev_gradient_levels:
            stacked = oracle.gradient_stack(module, n)
        else:
            stacked = oracle.row_block(module, n - 1).conj().T
        qfull = np.kron(np.eye(module.scalar_dim(n - 1)), q)
        ev[n] = full_svd_nullspace(qfull @ stacked,
                                   floor=1e-10 * linalg.opnorm(stacked))
    return ev


EV_FAMILIES = ("dshift", "hardy", "bergman", "sinsqrt")


def adjoint_levels(module, v):
    return gm.ev_space(module, v)[0]


# the two routes to E_V, each returning dict level -> basis
EV_ROUTES = (adjoint_levels, gm.ev_gradient_levels)


def ev_module(family, d, r, top):
    return gm.StandardModule(gm.make_weights(family, top, d=d, r1=1.0, r2=4.0),
                             d=d, multiplicity=r)


@pytest.mark.parametrize("family", EV_FAMILIES)
@pytest.mark.parametrize("d,top", [(2, 8), (3, 6), (4, 5)])
@pytest.mark.parametrize("r", [1, 2])
def test_ev_recursion_matches_full_level_nullspace(rng, family, d, r, top):
    mod = ev_module(family, d, r, top)
    for dim in sorted({0, 1, 2, d * r - 1, d * r}):
        v = random_subspace(rng, mod, dim)
        for route in EV_ROUTES:
            ev = route(mod, v)
            oracle = full_level_ev(mod, v, route)
            assert sorted(ev) == sorted(oracle)
            for n in oracle:
                assert ev[n].shape == oracle[n].shape
                assert linalg.subspace_distance(ev[n], oracle[n]) <= 1e-12


def linear_form_products(module, v_basis, n):
    """The products l_1^{a_1} ... l_m^{a_m} with |a| = n, in the level-n basis.

    l_j(z) = sum_i v_ij z_i, without conjugation, for the columns v_j of
    ``v_basis``; coefficients are scaled into the orthonormal level basis by
    the square roots of the monomial norms.
    """
    d = module.d
    basis = gm.monomial_basis(d, n)
    norms = np.sqrt(module.monomial_norms(n))
    cols = []
    for picks in itertools.combinations_with_replacement(range(v_basis.shape[1]), n):
        poly = {(0,) * d: 1.0 + 0j}
        for j in picks:
            product = {}
            for alpha, c in poly.items():
                for i in range(d):
                    beta = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1:]
                    product[beta] = product.get(beta, 0.0) + c * v_basis[i, j]
            poly = product
        col = np.zeros(module.level_dim(n), dtype=complex)
        for alpha, c in poly.items():
            idx = basis.index(alpha)
            col[idx] = c * norms[idx]
        cols.append(col)
    return np.array(cols).T


@pytest.mark.parametrize("family", EV_FAMILIES)
@pytest.mark.parametrize("d,top", [(2, 10), (3, 8), (4, 7)])
def test_ev_matches_linear_form_products(rng, family, d, top):
    # r = 1: grad f in V pointwise means f is constant along V^perp, so E_V(n)
    # is spanned by the degree-n products of the linear forms of V
    mod = ev_module(family, d, 1, top)
    for m in range(1, d + 1):
        v = random_subspace(rng, mod, m)
        ev, _ = gm.ev_space(mod, v)
        for n in range(top + 1):
            products = linear_form_products(mod, v.basis, n)
            assert ev[n].shape[1] == products.shape[1] == math.comb(n + m - 1, m - 1)
            assert linalg.subspace_distance(
                ev[n], linalg.orthonormal_columns(products)) <= 1e-12


def test_ev_nullspace_calls_stay_on_the_candidate_span(monkeypatch, rng):
    # the gradient route's own Euler recursion; ev_space is generation, covered
    # by test_generate_nullspaces_stay_on_the_candidate_span
    mod = ev_module("bergman", 3, 2, 6)
    widths = []
    nullspace = linalg.nullspace

    def counting(a, *args, **kwargs):
        if sys._getframe(1).f_code.co_name == "ev_gradient_levels":
            widths.append(np.shape(a)[1])
        return nullspace(a, *args, **kwargs)

    monkeypatch.setattr(linalg, "nullspace", counting)
    for dim in (0, 1, 3, 5, 6):
        v = random_subspace(rng, mod, dim)
        widths.clear()
        ev = gm.ev_gradient_levels(mod, v)
        # one solve per level; below an empty E_V(n-1) it has no columns
        assert len(widths) == mod.top_level
        for n, width in enumerate(widths, 1):
            assert width <= mod.d * ev[n - 1].shape[1]


def test_generate_ranks_only_seeded_levels(monkeypatch, rng):
    mod = gm.StandardModule(gm.make_weights("hardy", 9, d=2), d=2)
    gens = random_generators(rng, 2, 1, 2, 1) + random_generators(rng, 2, 1, 3, 1)
    solved = []
    nullspace = linalg.nullspace

    def counting_nullspace(a, *args, **kwargs):
        frame = sys._getframe(1)
        solved.append((frame.f_code.co_name, frame.f_locals.get("n")))
        return nullspace(a, *args, **kwargs)

    monkeypatch.setattr(linalg, "nullspace", counting_nullspace)
    sub = gm.GradedSubmodule.generate(mod, gens)
    # the generator rows are solved only at the seeded levels 2 and 3
    assert [n for name, n in solved if name == "from_level_seeds"] == [2, 3]

    shapes = []
    numerical_rank = linalg.numerical_rank

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return numerical_rank(a, *args, **kwargs)

    monkeypatch.setattr(linalg, "numerical_rank", counting)
    solved.clear()
    flags = sub.degree_report().flags
    # the flags came out of the recursion: the report decides no rank at all
    assert shapes == [] and solved == []
    for k in range(sub.window):
        if sub.dim(k) == 0:
            assert flags[k] == (sub.dim(k + 1) == 0)
            continue
        spanned = np.hstack([oracle.coordinate_block(mod, j, k) @ sub.basis(k)
                             for j in (1, 2)])
        assert flags[k] == (numerical_rank(spanned) == sub.dim(k + 1))
    assert [k for k, ok in flags.items() if not ok] == [1, 2]


@st.composite
def ev_inputs(draw):
    family = draw(st.sampled_from(EV_FAMILIES))
    d = draw(st.sampled_from((2, 3)))
    r = draw(st.sampled_from((1, 2)))
    dim = draw(st.integers(0, d * r))
    parts = draw(st.lists(st.integers(-2, 2), min_size=2 * d * r * dim,
                          max_size=2 * d * r * dim))
    raw = (np.array(parts[0::2]) + 1j * np.array(parts[1::2])).reshape(d * r, dim)
    mod = ev_module(family, d, r, 6)
    return mod, gm.SubspaceV.from_matrix(mod, raw)


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(ev_inputs())
def test_ev_roundtrip_and_derivative_containment(case):
    mod, v = case
    ev, sub = gm.ev_space(mod, v)
    rec = gm.recover_subspace(sub)
    assert linalg.subspace_distance(v.basis, rec.basis) <= 1e-9
    for n in range(1, mod.top_level + 1):
        outer = ev[n - 1]
        for j in range(1, mod.d + 1):
            img = oracle.gradient_block(mod, j, n) @ ev[n]
            out = img - outer @ (outer.conj().T @ img)
            assert linalg.opnorm(out) <= 1e-10 * max(1.0, linalg.opnorm(img))


def test_ev_quotient_full_subspace_is_ambient(h2):
    v = gm.SubspaceV.from_matrix(h2, np.eye(2))
    compressed = gm.ev_quotient(h2, v).coordinate_tuple()
    ambient = h2.coordinate_tuple()
    for n in range(5):
        np.testing.assert_allclose(compressed[n], ambient[n], atol=1e-14)


def test_subspace_parsing(h2):
    text = "# V\n1+0i 0+0i\n0+0i 1+0i\n"
    v = gm.linearize.parse_subspace(text, h2)
    assert v.dim == 2
    with pytest.raises(ValueError):
        gm.linearize.parse_subspace("1+0i\n", h2)   # wrong row count
