"""Submodules held on their quotient side, against the M-side oracle.

The package grows Q_n = M_n^perp by the co-invariant Euler recursion and
pulls back by the isometry L_k*/rho_k: Q'_k = L_k* Q_{k+1} / rho_k.
``mside_oracle`` grows M_n and pulls back by preimages; the two must agree
on dimensions, saturation flags, degree reports and linearization steps, and
Q_n must be the complement of the oracle's M_n.  The closed-form pullback is
also checked against orth(L_k* Q_{k+1}) by SVD, and the saturation flags
every construction carries (a pullback's are its input's, shifted down one
degree; E_V^perp's come from its generation by L_0 V^perp) against the flags
``cosaturation`` solves on the same quotient bases.  Property tests check the
identities the quotient side rests on, and work guards check that the
command-line paths never build M and that the closed form takes no SVD.
"""

import functools
import inspect
import json
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings

import gradmod as gm
import mside_oracle as oracle
import structure_oracle as structure
from gradmod import cli, linalg
from gradmod.linearize import pullback_quotient
from gradmod.config import RANK_TOL_FACTOR
from gradmod.submodules import cosaturation_flags, embed_polynomials
from conftest import FAMILIES, random_generators, submodule_inputs

TOP = {1: 8, 2: 8, 3: 6, 4: 5}


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


class Case:
    """The module, seeded generator sets and generated submodules of one (family, d, r).

    Built once per session by ``case`` and shared by the parametrized tests
    below, which differ only in what they check on these submodules.
    """

    def __init__(self, family, d, r):
        self.module = module(family, d, r)
        self.gens = generator_sets(np.random.default_rng([d, r, FAMILIES.index(family)]),
                                   d, r)
        self.subs = {name: gm.GradedSubmodule.generate(self.module, gens)
                     for name, gens in self.gens.items()}


@functools.cache
def case(family, d, r):
    return Case(family, d, r)


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
    built = case(family, d, r)
    mod = built.module
    for name, gens in built.gens.items():
        sub = built.subs[name]
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


# -- the closed-form pullback against the SVD route ----------------------------------


def svd_pullback(module, quotient_next, k):
    """orth(L_k* Q_{k+1}) by a thin SVD with the floor 1e-10 rho_k."""
    u, s, _ = np.linalg.svd(module.row_block(k).conj().T @ quotient_next,
                            full_matrices=False)
    floor = max(RANK_TOL_FACTOR * s[0], 1e-10 * module.rho[k]) if s.size else 0.0
    return u[:, :int(np.count_nonzero(s > floor))]


def assert_same_subspace(got, want):
    assert got.shape == want.shape
    assert linalg.subspace_distance(got, want) <= 1e-12
    assert linalg.orthonormality_residual(got) <= 1e-13


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_pullback_quotient_matches_svd_route(family, d, r):
    built = case(family, d, r)
    mod = built.module
    for sub in built.subs.values():
        for k in range(mod.top_level):
            q_next = sub.quotient_basis(k + 1)
            assert_same_subspace(pullback_quotient(mod, q_next, k),
                                 svd_pullback(mod, q_next, k))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_recover_subspace_matches_preimage_complement(family, d, r):
    # V = (L_0^{-1} M_1)^perp by the oracle's preimage and a complement SVD
    rng = np.random.default_rng([d, r, FAMILIES.index(family), 11])
    built = case(family, d, r)
    mod = built.module
    subs = list(built.subs.values())
    for dim in range(d * r + 1):
        raw = rng.normal(size=(d * r, dim)) + 1j * rng.normal(size=(d * r, dim))
        v = gm.SubspaceV.from_matrix(mod, raw)
        subs.append(gm.ev_space(mod, v)[1])
    for sub in subs:
        want = linalg.complement_basis(
            oracle.preimage(mod.row_block(0), sub.basis(1)))
        assert_same_subspace(gm.recover_subspace(sub).basis, want)


# -- identities of the quotient side ------------------------------------------------


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(submodule_inputs())
def test_quotient_side_is_coinvariant(case):
    mod, gens = case
    sub = gm.GradedSubmodule.generate(mod, gens)
    assert sub.orthonormality_residual() <= 1e-12
    for n in range(mod.top_level):
        inner = sub.quotient_basis(n)
        for k in range(1, mod.d + 1):
            img = structure.coordinate_block(mod, k, n).conj().T \
                @ sub.quotient_basis(n + 1)
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
    pulled_report = pulled.degree_report()
    assert pulled_report.determined
    assert pulled_report.degree == report.degree - 1
    for k in range(pulled.window + 1):
        assert pulled.quotient_basis(k).shape[1] == sub.quotient_basis(k + 1).shape[1]
        # L_k* is rho_k times an isometry, so the induced map is rho_k times
        # a unitary: invertible, with every singular value rho_k
        induced = sub.quotient_basis(k + 1).conj().T @ mod.row_block(k) \
            @ pulled.quotient_basis(k)
        s = np.linalg.svd(induced, compute_uv=False)
        assert np.all(np.abs(s - mod.rho[k]) <= 1e-10 * mod.rho[k])


# -- saturation flags carried by each construction ---------------------------------


def pulled_chain(sub):
    """The pullbacks of sub, iterated while the degree is determined and >= 2."""
    chain = []
    while True:
        report = sub.degree_report()
        if not report.determined or report.degree < 2:
            return chain
        sub = gm.pullback(sub)
        chain.append(sub)


def assert_flags_match_cosaturation(sub):
    # the flags the construction carries, against cosaturation on every level
    assert sub.saturation_flags() == cosaturation_flags(
        sub.module, sub.quotient_bases, sub.window)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_pulled_flags_match_cosaturation(family, d, r):
    pulled = 0
    for sub in case(family, d, r).subs.values():
        for step in pulled_chain(sub):
            assert_flags_match_cosaturation(step)
            pulled += 1
    assert pulled >= 2


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(submodule_inputs())
def test_pulled_flags_match_cosaturation_on_drawn_inputs(case):
    mod, gens = case
    chain = pulled_chain(gm.GradedSubmodule.generate(mod, gens))
    assert chain
    for sub in chain:
        assert_flags_match_cosaturation(sub)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("r", [1, 2])
def test_ev_flags_match_cosaturation(family, d, r):
    # E_V^perp is generated by L_0 V^perp, so its flags are those of generation
    rng = np.random.default_rng([d, r, FAMILIES.index(family), 17])
    mod = module(family, d, r)
    for dim in range(1, d + 1):
        raw = rng.normal(size=(d * r, dim)) + 1j * rng.normal(size=(d * r, dim))
        sub = gm.ev_space(mod, gm.SubspaceV.from_matrix(mod, raw))[1]
        assert_flags_match_cosaturation(sub)
        report = sub.degree_report()
        assert report.determined and report.degree <= 1


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("d,r", [(2, 1), (2, 3), (3, 2), (4, 1)])
def test_zero_full_and_kernel_flags_match_cosaturation(family, d, r):
    mod = module(family, d, r)
    zero, full = gm.GradedSubmodule.zero(mod), gm.GradedSubmodule.full(mod)
    assert zero.dims() == [0] * (mod.top_level + 1)
    assert full.dims() == [mod.level_dim(n) for n in range(mod.top_level + 1)]
    for sub, degree in ((zero, 0), (full, 0), (gm.kernel_levels(mod), 1)):
        assert_flags_match_cosaturation(sub)
        assert sub.degree_report().degree == degree


def test_every_construction_supplies_its_flags():
    assert (inspect.signature(gm.GradedSubmodule).parameters["flags"].default
            is inspect.Parameter.empty)
    assert list(inspect.signature(gm.ev_space).parameters) == ["module", "v"]


# -- closed-form rank floors -------------------------------------------------------


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("r", [1, 2])
def test_stacked_adjoint_norm_is_closed_form(family, d, r):
    mod = module(family, d, r)
    for n in range(1, mod.top_level + 1):
        eye = np.eye(mod.level_dim(n), dtype=complex)
        rho = mod.rho[n - 1]
        # the stacked adjoints L_{n-1}* and the gradient, against dense oracles;
        # the gradient's norm rho_{n-1} / u(n) = n / rho_{n-1} is the floor of
        # ev_gradient_levels
        dense_adjoint = structure.row_block(mod, n - 1).conj().T
        assert np.array_equal(mod.row_adjoint(n - 1, eye), dense_adjoint)
        dense_gradient = structure.gradient_stack(mod, n)
        assert np.array_equal(mod.gradient(n, eye), dense_gradient)
        norm = n / rho
        assert abs(norm - linalg.opnorm(dense_gradient)) <= 1e-14 * norm
        # the floors of cosaturation and pullback: ||L_{n-1}|| = rho_{n-1}
        assert abs(linalg.opnorm(dense_adjoint) - rho) <= 1e-14 * rho


# -- work guards --------------------------------------------------------------------


def counting_complements(monkeypatch, skip=None):
    """Count complement_basis calls, except those made by the function named ``skip``."""
    calls = []
    complement_basis = linalg.complement_basis

    def counting(*args, **kwargs):
        if sys._getframe(1).f_code.co_name != skip:
            calls.append(1)
        return complement_basis(*args, **kwargs)

    monkeypatch.setattr(linalg, "complement_basis", counting)
    return calls


def test_cli_submodule_and_linearize_never_build_m(monkeypatch, tmp_path, rng):
    complements = counting_complements(monkeypatch)
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
    calls = counting_complements(monkeypatch)
    quadric = tmp_path / "quadric.txt"
    quadric.write_text("".join(gm.submodules.format_generator(g) + "\n"
                               for g in random_generators(rng, 2, 1, 2, 1)))
    assert cli.main(["identity", "--d", "2", "--N", "6", "--gens", str(quadric),
                     "--nodes", "128", "--out", str(tmp_path / "out")]) == 0
    assert calls == []


def test_cli_ev_never_builds_m(monkeypatch, tmp_path, rng):
    # V comes back from Q_1 by the isometry, not from a complement of M_1; the
    # one complement taken is V^perp in d.E (``SubspaceV.complement``), the
    # seed of E_V^perp, so only complements of level bases count
    calls = counting_complements(monkeypatch, skip="complement")
    for d, r, dim in ((2, 1, 1), (3, 1, 2), (2, 2, 3)):
        grid = tmp_path / f"v-{d}-{r}-{dim}.txt"
        raw = rng.normal(size=(d * r, dim)) + 1j * rng.normal(size=(d * r, dim))
        grid.write_text("".join(" ".join(f"{z.real:.17g}{z.imag:+.17g}i" for z in row)
                                + "\n" for row in raw))
        assert cli.main(["ev", "--d", str(d), "--r", str(r), "--N", "8",
                         "--V", str(grid), "--out", str(tmp_path / "out")]) == 0
    assert calls == []


def test_cli_ev_runs_one_euler_recursion_per_route(monkeypatch, tmp_path, rng):
    # the generation of E_V^perp and the gradient route, the hard check's
    # other side, each take one candidate span per level
    levels = []
    euler_candidates = gm.submodules.euler_candidates

    def counting(module, prev, n):
        levels.append(n)
        return euler_candidates(module, prev, n)

    # linearize binds euler_candidates by name; a tree where it does not still counts
    for owner in (gm.submodules, gm.linearize):
        monkeypatch.setattr(owner, "euler_candidates", counting, raising=False)
    grid = tmp_path / "v.txt"
    raw = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    grid.write_text("".join(" ".join(f"{z.real:.17g}{z.imag:+.17g}i" for z in row)
                            + "\n" for row in raw))
    assert cli.main(["ev", "--d", "3", "--N", "16", "--V", str(grid),
                     "--out", str(tmp_path / "out")]) == 0
    per_level = Counter(levels)
    assert sorted(per_level) == list(range(1, 17))
    assert max(per_level.values()) <= 2


def test_closed_form_pullbacks_take_no_svd(monkeypatch, rng):
    mod = module("sinsqrt", 3, 2)
    sub = gm.GradedSubmodule.generate(mod, random_generators(rng, 3, 2, 2, 2))
    quotients = [sub.quotient_basis(k + 1) for k in range(mod.top_level)]
    svds = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        svds.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    for k, q_next in enumerate(quotients):
        pullback_quotient(mod, q_next, k)
    gm.recover_subspace(sub)
    assert svds == []


def test_generate_nullspaces_stay_on_the_candidate_span(monkeypatch, rng):
    nullspace = linalg.nullspace

    def solved_by(build, *args):
        """``build(*args)`` and the (level, width) of each nullspace it solved."""
        solved = []

        def recording(a, *rest, **kwargs):
            solved.append((sys._getframe(1).f_locals["n"], np.shape(a)[1]))
            return nullspace(a, *rest, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(linalg, "nullspace", recording)
            return build(*args), solved

    for family, d, r in (("hardy", 2, 2), ("bergman", 3, 1), ("sinsqrt", 3, 2),
                         ("dshift", 4, 1)):
        mod = module(family, d, r)
        built = [solved_by(gm.GradedSubmodule.generate, mod, gens)
                 for gens in generator_sets(rng, d, r).values()]
        # E_V^perp is generated too; V^perp in d.E is taken before the count
        for dim in range(d * r + 1):
            v = gm.SubspaceV.from_matrix(mod, rng.normal(size=(d * r, dim)))
            v.complement
            (_, sub), solved = solved_by(gm.ev_space, mod, v)
            built.append((sub, solved))
        for sub, solved in built:
            assert solved
            for n, width in solved:
                if n == 0:
                    assert width <= mod.level_dim(0)
                    continue
                bound = d * sub.quotient_basis(n - 1).shape[1]
                if sub.dim(n - 1) == 0:   # M_{n-1} = 0: the level is not yet filled
                    bound = max(bound, mod.level_dim(n))
                assert width <= bound


def test_cli_linearize_solves_one_flag_per_pullback(monkeypatch, tmp_path, rng):
    # pulled flags are shifted, and d.S is applied through its scalar tables:
    # no dense Z stack of a d.S is built
    cubic = tmp_path / "cubic.txt"
    cubic.write_text(gm.submodules.format_generator(
        random_generators(rng, 3, 1, 3, 1)[0]) + "\n")
    cosaturations = []
    dense_stacks = []
    cosaturation = gm.submodules.cosaturation
    level_stack = gm.StandardModule._level_stack

    def counting_cosaturation(module, *args, **kwargs):
        cosaturations.append(module.multiplicity)
        return cosaturation(module, *args, **kwargs)

    def counting_stack(self, *args, **kwargs):
        dense_stacks.append(self.multiplicity)
        return level_stack(self, *args, **kwargs)

    # linearize binds cosaturation by name; a tree where it does not still counts
    for owner in (gm.submodules, gm.linearize):
        monkeypatch.setattr(owner, "cosaturation", counting_cosaturation,
                            raising=False)
    monkeypatch.setattr(gm.StandardModule, "_level_stack", counting_stack)
    out = tmp_path / "out"
    assert cli.main(["linearize", "--d", "3", "--N", "11", "--gens", str(cubic),
                     "--out", str(out)]) == 0
    steps = json.loads((out / "linearize.json").read_text())["steps"]
    pullbacks = len(steps) - 1
    assert pullbacks == 2
    # the base module has r = 1; every d.S of the chain has r >= 3
    assert len([r for r in cosaturations if r > 1]) <= pullbacks
    assert [r for r in dense_stacks if r > 1] == []


def test_cli_ev_and_linearize_build_no_dense_block(monkeypatch, tmp_path, rng):
    # Z_k, L, L* and d/dz_k act as scatters and gathers on the successor table
    built = []
    for name in ("_level_stack", "row_block"):
        def counting(self, *args, _name=name,
                     _block=getattr(gm.StandardModule, name), **kwargs):
            built.append(_name)
            return _block(self, *args, **kwargs)

        monkeypatch.setattr(gm.StandardModule, name, counting)
    grid = tmp_path / "v.txt"
    raw = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    grid.write_text("".join(" ".join(f"{z.real:.17g}{z.imag:+.17g}i" for z in row)
                            + "\n" for row in raw))
    cubic = tmp_path / "cubic.txt"
    cubic.write_text(gm.submodules.format_generator(
        random_generators(rng, 3, 1, 3, 1)[0]) + "\n")
    assert cli.main(["ev", "--d", "3", "--N", "16", "--V", str(grid),
                     "--out", str(tmp_path / "ev")]) == 0
    assert cli.main(["linearize", "--d", "3", "--N", "11", "--gens", str(cubic),
                     "--out", str(tmp_path / "linearize")]) == 0
    assert built == []


def test_package_has_one_pullback_path():
    # the M-side constructions live only in the test oracle
    assert not hasattr(gm, "pullback_span_residual")
    assert not hasattr(gm.GradedSubmodule, "_saturated_by_construction")
    assert list(inspect.signature(gm.QuotientModule).parameters) == ["submodule"]
    assert not hasattr(linalg, "preimage")
