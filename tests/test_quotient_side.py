"""Submodules held on their quotient side, against the M-side oracle.

The package grows Q_n = M_n^perp by the co-invariant Euler recursion and
pulls back by Q'_k = orth(L_k* Q_{k+1}).  ``mside_oracle`` grows M_n and
pulls back by preimages; the two must agree on dimensions, saturation flags,
degree reports and linearization steps, and Q_n must be the complement of
the oracle's M_n.  Property tests check the identities the quotient side
rests on, and work guards check that the command-line paths never build M.
"""

import inspect
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gradmod as gm
import mside_oracle as oracle
from gradmod import cli, linalg
from gradmod.linearize import stacked_adjoint
from gradmod.submodules import embed_polynomials
from conftest import random_generators

FAMILIES = ("dshift", "hardy", "bergman", "sinsqrt")
TOP = {2: 8, 3: 6, 4: 5}


def module(family, d, r, top=None):
    top = TOP[d] if top is None else top
    return gm.StandardModule(gm.make_weights(family, top, d=d, r1=1.0, r2=4.0),
                             d=d, multiplicity=r)


def unit(d, i):
    return tuple(int(j == i) for j in range(d))


def times_z1(poly):
    terms = tuple(((alpha[0] + 1,) + alpha[1:], comp, c)
                  for alpha, comp, c in poly.terms)
    return gm.VectorPolynomial(poly.degree + 1, terms)


def generator_sets(rng, d, r):
    """Seeded generic, monomial, degree-0 and repeated generator lists."""
    zero = (0,) * d
    quad = random_generators(rng, d, r, 2, 1)
    return {
        "generic": random_generators(rng, d, r, 2, 1) + random_generators(rng, d, r, 3, 1),
        "monomial": [gm.monomial_generator(tuple(2 * a for a in unit(d, 0))),
                     gm.monomial_generator(tuple(a + b for a, b in
                                                 zip(unit(d, 0), unit(d, d - 1))),
                                           comp=r - 1)],
        "degree0": [gm.VectorPolynomial(0, ((zero, 0, 1.0),)),
                    gm.monomial_generator(tuple(2 * a for a in unit(d, 1)), comp=r - 1)],
        "repeated": quad + quad + [times_z1(quad[0])],
    }


def oracle_of(mod, gens, window=None):
    window = mod.top_level if window is None else window
    seeds = {deg: embed_polynomials(mod, [g for g in gens if g.degree == deg])
             for deg in {g.degree for g in gens}}
    bases, saturated = oracle.grow(mod, seeds, window)
    return bases, saturated, max(seeds)


# -- the M-side oracle -----------------------------------------------------------


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_generate_matches_mside_oracle(family, d, r):
    rng = np.random.default_rng([d, r, FAMILIES.index(family)])
    mod = module(family, d, r)
    for name, gens in generator_sets(rng, d, r).items():
        sub = gm.GradedSubmodule.generate(mod, gens)
        bases, saturated, g = oracle_of(mod, gens)
        dims = [bases[n].shape[1] for n in range(mod.top_level + 1)]
        flags = oracle.saturation_flags(mod, bases, mod.top_level, saturated)
        assert sub.dims() == dims, name
        assert oracle.report_payload(sub.degree_report()) \
            == oracle.degree_payload(flags, dims, mod.top_level, g), name
        for n in range(mod.top_level + 1):
            assert linalg.subspace_distance(
                sub.quotient_basis(n), linalg.complement_basis(bases[n])) <= 1e-10


LINEARIZE_CASES = (
    [(family, 2, r, 8) for family in FAMILIES for r in (1, 2, 3)]
    + [(family, 3, r, 6) for family in FAMILIES for r in (1, 2)]
    + [(family, 4, 1, 5) for family in FAMILIES])


@pytest.mark.parametrize("family,d,r,top", LINEARIZE_CASES)
def test_linearize_matches_mside_oracle(family, d, r, top):
    rng = np.random.default_rng([d, r, top, FAMILIES.index(family)])
    mod = module(family, d, r, top)
    cases = [random_generators(rng, d, r, 2, 1),
             [gm.monomial_generator(tuple(2 * a for a in unit(d, 0))),
              gm.monomial_generator(tuple(a + b for a, b in
                                          zip(unit(d, 0), unit(d, 1))))]]
    if d == 2:
        cases.append(random_generators(rng, d, r, 3, 1))
    for gens in cases:
        sub = gm.GradedSubmodule.generate(mod, gens)
        bases, saturated, g = oracle_of(mod, gens)
        steps, complete, reason = oracle.linearize_steps(
            mod, bases, mod.top_level, g, saturated)
        result = gm.linearize_full(sub)
        assert [(s.multiplicity, s.degree, s.window, s.level_dims)
                for s in result.steps] == steps
        assert (result.complete, result.reason) == (complete, reason)
        assert max(result.coinvariance_residuals + result.kernel_residuals,
                   default=0.0) <= 1e-10
        # one pullback: Q' is the complement of the preimage of M
        if sub.degree_report().degree >= 2:
            pulled = gm.pullback(sub)
            pre, window = oracle.pullback(mod, bases, mod.top_level)
            assert pulled.window == window
            for k in range(window + 1):
                assert linalg.subspace_distance(
                    pulled.quotient_basis(k), linalg.complement_basis(pre[k])) <= 1e-10
            assert oracle.pullback_span_residual(sub, pulled) <= 1e-10


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("d,r", [(2, 1), (2, 3), (3, 2), (4, 1)])
def test_kernel_quotient_side_matches_dense_kernel(family, d, r):
    # L_n*/rho_n against K_n from a dense SVD of the row block
    mod = module(family, d, r)
    kernel = gm.kernel_levels(mod)
    assert kernel.orthonormality_residual() <= 1e-12
    for n in range(kernel.window + 1):
        dense = linalg.nullspace(mod.row_block(n))
        assert kernel.dim(n) == dense.shape[1]
        assert linalg.subspace_distance(
            kernel.quotient_basis(n), linalg.complement_basis(dense)) <= 1e-10


# -- identities of the quotient side ------------------------------------------------


@st.composite
def submodule_inputs(draw):
    """A module and 1-2 generators of degree 2..3 with small Gaussian-integer coefficients."""
    family = draw(st.sampled_from(FAMILIES))
    d = draw(st.sampled_from((2, 3)))
    r = draw(st.sampled_from((1, 2)))
    mod = module(family, d, r, 7 if d == 2 else 6)
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        degree = draw(st.integers(2, 3))
        alphas = gm.monomial_basis(d, degree).monomials
        parts = draw(st.lists(st.integers(-2, 2), min_size=2 * len(alphas) * r,
                              max_size=2 * len(alphas) * r))
        coeffs = [complex(a, b) for a, b in zip(parts[0::2], parts[1::2])]
        if not any(coeffs):
            coeffs[0] = 1.0
        gens.append(gm.VectorPolynomial(degree, tuple(
            (alpha, comp, coeffs[i * r + comp])
            for i, alpha in enumerate(alphas) for comp in range(r)
            if coeffs[i * r + comp] != 0)))
    return mod, gens


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(submodule_inputs())
def test_quotient_side_is_coinvariant(case):
    mod, gens = case
    sub = gm.GradedSubmodule.generate(mod, gens)
    assert sub.orthonormality_residual() <= 1e-12
    for n in range(mod.top_level):
        inner = sub.quotient_basis(n)
        for k in range(1, mod.d + 1):
            img = mod.coordinate_block(k, n).conj().T @ sub.quotient_basis(n + 1)
            out = img - inner @ (inner.conj().T @ img)
            assert linalg.opnorm(out) <= 1e-10 * max(1.0, linalg.opnorm(img))


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(submodule_inputs())
def test_pullback_drops_degree_and_shifts_the_quotient(case):
    mod, gens = case
    sub = gm.GradedSubmodule.generate(mod, gens)
    report = sub.degree_report()
    assert report.determined and report.degree >= 2
    pulled = gm.pullback(sub)
    assert pulled.degree_report().determined
    assert pulled.degree == report.degree - 1
    for k in range(pulled.window + 1):
        assert pulled.quotient_basis(k).shape[1] == sub.quotient_basis(k + 1).shape[1]
        # L_k* is rho_k times an isometry, so the induced map is rho_k times
        # a unitary: invertible, with every singular value rho_k
        induced = sub.quotient_basis(k + 1).conj().T @ mod.row_block(k) \
            @ pulled.quotient_basis(k)
        s = np.linalg.svd(induced, compute_uv=False)
        assert np.all(np.abs(s - mod.rho[k]) <= 1e-10 * mod.rho[k])


# -- closed-form rank floors -------------------------------------------------------


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("r", [1, 2])
def test_stacked_adjoint_norm_is_closed_form(family, d, r):
    mod = module(family, d, r)
    for n in range(1, mod.top_level + 1):
        for use_gradient in (False, True):
            stacked, norm = stacked_adjoint(mod, n, use_gradient)
            assert abs(norm - linalg.opnorm(stacked)) <= 1e-14 * norm
        # the floors of cosaturation and pullback: ||L_{n-1}|| = rho_{n-1}
        rho = mod.rho[n - 1]
        assert abs(linalg.opnorm(mod.row_block(n - 1)) - rho) <= 1e-14 * rho


# -- work guards --------------------------------------------------------------------


def test_cli_submodule_and_linearize_never_build_m(monkeypatch, tmp_path, rng):
    complements = []
    complement_basis = linalg.complement_basis

    def counting(*args, **kwargs):
        complements.append(1)
        return complement_basis(*args, **kwargs)

    monkeypatch.setattr(linalg, "complement_basis", counting)
    quadric = tmp_path / "quadric.txt"
    quadric.write_text("".join(gm.submodules.format_generator(g) + "\n"
                               for g in random_generators(rng, 2, 1, 2, 1)))
    cubics = tmp_path / "cubics.txt"
    cubics.write_text("".join(gm.submodules.format_generator(g) + "\n"
                              for g in random_generators(rng, 3, 1, 3, 2)))
    cubic = tmp_path / "cubic.txt"
    cubic.write_text(gm.submodules.format_generator(
        random_generators(rng, 3, 1, 3, 1)[0]) + "\n")
    runs = [["submodule", "--d", "2", "--N", "10", "--gens", str(quadric)],
            ["linearize", "--d", "2", "--N", "10", "--family", "hardy",
             "--gens", str(quadric)],
            ["submodule", "--d", "3", "--N", "9", "--gens", str(cubics)],
            ["linearize", "--d", "3", "--N", "7", "--gens", str(cubic)]]
    for argv in runs:
        assert cli.main(argv + ["--out", str(tmp_path / "out")]) == 0
    assert complements == []


def test_cli_identity_pulls_back_on_the_quotient_side(monkeypatch, tmp_path, rng):
    calls = []
    for name in ("complement_basis", "preimage"):
        def counting(*args, _name=name, _orig=getattr(linalg, name), **kwargs):
            calls.append(_name)
            return _orig(*args, **kwargs)
        monkeypatch.setattr(linalg, name, counting)
    quadric = tmp_path / "quadric.txt"
    quadric.write_text("".join(gm.submodules.format_generator(g) + "\n"
                               for g in random_generators(rng, 2, 1, 2, 1)))
    assert cli.main(["identity", "--d", "2", "--N", "6", "--gens", str(quadric),
                     "--nodes", "128", "--out", str(tmp_path / "out")]) == 0
    assert calls == []


def test_generate_nullspaces_stay_on_the_candidate_span(monkeypatch, rng):
    solved = []
    nullspace = linalg.nullspace

    def recording(a, *args, **kwargs):
        solved.append((sys._getframe(1).f_locals["n"], np.shape(a)[1]))
        return nullspace(a, *args, **kwargs)

    monkeypatch.setattr(linalg, "nullspace", recording)
    for family, d, r in (("hardy", 2, 2), ("bergman", 3, 1), ("sinsqrt", 3, 2),
                         ("dshift", 4, 1)):
        mod = module(family, d, r)
        for gens in generator_sets(rng, d, r).values():
            solved.clear()
            sub = gm.GradedSubmodule.generate(mod, gens)
            assert solved
            for n, width in solved:
                if n == 0:
                    assert width <= mod.level_dim(0)
                    continue
                bound = d * sub.quotient_basis(n - 1).shape[1]
                if sub.dim(n - 1) == 0:   # M_{n-1} = 0: the level is not yet filled
                    bound = max(bound, mod.level_dim(n))
                assert width <= bound


def test_package_has_one_pullback_path():
    # the M-side constructions live only in the test oracle
    assert not hasattr(gm, "pullback_span_residual")
    assert not hasattr(gm.GradedSubmodule, "_saturated_by_construction")
    assert list(inspect.signature(gm.QuotientModule).parameters) == ["submodule"]
