"""Euler candidates on a superspace of C_n, against exact-rank candidates.

Where d dim(prev) >= dim(level n), ``euler_candidates`` returns the identity
of the level without a factorization.  ``candidates_oracle`` keeps C_n
itself, as an SVD of the candidate block finds it; generation, E_V^perp and
the gradient route must give the same dimensions, flags and spans on both.
Wide blocks arise at the low levels of cubics at d = 3, as the
rank-deficient square blocks of E_V with dim V = 2 (d dim E_V(1) = dim S_2
at d = 3, r = 1) and in modules of multiplicity 2.  The draws hold all three
kinds; ``test_each_kind_of_wide_block_occurs`` pins one instance of each.

A large block (``linalg._routed``) takes one reduced QR, and its Q is the
answer unless a pivot proves a drop.  Dimensions cannot tell Q from an exact
basis of C_n, so the route tests count the LAPACK calls.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gradmod as gm
from candidates_oracle import exact_candidates, exact_candidates_in
from gradmod import linalg, submodules
from gradmod.config import RANK_TOL_FACTOR, SPAN_TOL
from conftest import (DESK_SIZED, RANK_SIZED, complex_gaussian, counted_lapack,
                      random_generators, submodule_inputs)

EULER_CANDIDATES = submodules.euler_candidates


def wide_levels(monkeypatch, build, *args):
    """``build(*args)`` and the (module, prev, n) of every wide candidate block it met."""
    wide = []

    def recording(module, prev, n):
        if module.d * prev.shape[1] >= module.level_dim(n):
            wide.append((module, prev, n))
        return EULER_CANDIDATES(module, prev, n)

    with monkeypatch.context() as patch:
        for owner in (gm.submodules, gm.linearize):
            patch.setattr(owner, "euler_candidates", recording)
        return build(*args), wide


def assert_same_levels(got, want):
    assert sorted(got) == sorted(want)
    for n in want:
        assert got[n].shape == want[n].shape
        assert linalg.subspace_distance(got[n], want[n], SPAN_TOL) <= SPAN_TOL


@st.composite
def candidate_inputs(draw):
    """A drawn submodule input and a subspace V of d.E of drawn dimension 1..min(d r, 2)."""
    mod, gens = draw(submodule_inputs())
    dim = draw(st.integers(1, min(mod.d * mod.multiplicity, 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = rng.normal(size=(mod.d * mod.multiplicity, dim)) + 1j * rng.normal(
        size=(mod.d * mod.multiplicity, dim))
    return mod, gens, gm.SubspaceV.from_matrix(mod, raw)


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(candidate_inputs())
def test_wide_candidates_give_what_exact_candidates_give(case):
    mod, gens, v = case
    with pytest.MonkeyPatch.context() as patch:
        sub, wide_sub = wide_levels(patch, gm.GradedSubmodule.generate, mod, gens)
        ev_sub, wide_ev = wide_levels(patch, gm.ev_space, mod, v)
        gradient, wide_gradient = wide_levels(patch, gm.ev_gradient_levels, mod, v)
        with exact_candidates_in(patch):
            want_sub = gm.GradedSubmodule.generate(mod, gens)
            want_ev_sub = gm.ev_space(mod, v)
            want_gradient = gm.ev_gradient_levels(mod, v)
    for got, want in ((sub, want_sub), (ev_sub, want_ev_sub)):
        assert got.dims() == want.dims()
        assert got.saturation_flags() == want.saturation_flags()
        assert_same_levels(got.quotient_bases, want.quotient_bases)
    assert_same_levels(gradient, want_gradient)


def refuse(*args, **kwargs):
    raise AssertionError("a factorization was taken")


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(candidate_inputs())
def test_a_wide_candidate_block_is_the_level_with_no_factorization(case):
    mod, gens, v = case
    with pytest.MonkeyPatch.context() as patch:
        _, wide = wide_levels(patch, gm.GradedSubmodule.generate, mod, gens)
        wide += wide_levels(patch, gm.ev_space, mod, v)[1]
        wide += wide_levels(patch, gm.ev_gradient_levels, mod, v)[1]
        patch.setattr(np.linalg, "svd", refuse)
        patch.setattr(np.linalg, "qr", refuse)
        for module, prev, n in wide:
            got = EULER_CANDIDATES(module, prev, n)
            assert np.array_equal(got, np.eye(module.level_dim(n)))


def test_each_kind_of_wide_block_occurs(monkeypatch, rng):
    # a d = 3 cubic: Q_3 misses one monomial, and 3 dim Q_3 = 27 >= dim S_4 = 15
    mod = gm.StandardModule(gm.make_weights("bergman", 8, d=3), d=3)
    cubic = gm.monomial_generator((1, 1, 1))
    _, wide = wide_levels(monkeypatch, gm.GradedSubmodule.generate, mod, [cubic])
    assert [n for _, _, n in wide] == [4, 5, 6, 7, 8]
    # dim V = 2 at d = 3, r = 1: E_V(1) holds the linear forms l_1, l_2 of V,
    # and C_2 = span z_j l_i has dimension 5 (z l_1 l_2 twice) in a square
    # (6, 6) block
    v = gm.SubspaceV.from_matrix(mod, rng.normal(size=(3, 2)))
    _, wide = wide_levels(monkeypatch, gm.ev_gradient_levels, mod, v)
    square = [(module, prev, n) for module, prev, n in wide if n == 2]
    assert len(square) == 1
    module, prev, n = square[0]
    assert module.d * prev.shape[1] == module.level_dim(n) == 6
    assert exact_candidates(module, prev, n).shape[1] == 5
    # r = 2: two quadrics at d = 2 leave dim Q_2 = 4, and 2 dim Q_2 = dim S_3 = 8
    mod = gm.StandardModule(gm.make_weights("hardy", 8, d=2), d=2, multiplicity=2)
    sub, wide = wide_levels(monkeypatch, gm.GradedSubmodule.generate, mod,
                            random_generators(rng, 2, 2, 2, 2))
    assert sub.dims()[:4] == [0, 0, 2, 4]
    assert [(prev.shape[1], n) for _, prev, n in wide] == [(4, 3)]


# -- the QR route of a large candidate block ----------------------------------------


class BlockModule:
    """A stand-in module of one variable whose candidate block into every level is ``block``."""

    d = 1

    def __init__(self, block):
        self.block = block

    def level_dim(self, n):
        return self.block.shape[0]

    def shift(self, k, n, prev):
        return self.block


def candidates_of(block):
    """``euler_candidates`` of a block, through ``BlockModule``."""
    prev = np.zeros((block.shape[0], block.shape[1]), dtype=complex)
    return EULER_CANDIDATES(BlockModule(block), prev, 1)


def kahan(n, sine):
    """Kahan's triangle: pivots sine^i, no small one, yet sigma_min far below them."""
    cosine = np.sqrt(1.0 - sine**2)
    return np.diag(sine ** np.arange(n)) @ (np.eye(n) - cosine * np.triu(np.ones((n, n)), 1))


def test_a_full_rank_routed_block_is_its_q(rng, monkeypatch):
    a = complex_gaussian(rng, *RANK_SIZED)
    assert linalg._routed(a)
    q = np.linalg.qr(a)[0]
    calls = counted_lapack(monkeypatch)
    got = candidates_of(a)
    assert calls == [("qr", "reduced")]
    assert np.array_equal(got, q)


def test_a_pivot_under_the_cut_goes_straight_to_the_svd_of_r(rng, monkeypatch):
    a = complex_gaussian(rng, *RANK_SIZED)
    a[:, 5] = a[:, 0] - 2j * a[:, 3]
    want = linalg.orthonormal_columns(a)
    calls = counted_lapack(monkeypatch)
    got = candidates_of(a)
    assert calls == [("qr", "reduced"), ("svd", True)]
    assert got.shape == want.shape == (RANK_SIZED[0], RANK_SIZED[1] - 1)
    assert linalg.subspace_distance(got, want, 0.0) <= 1e-12


def test_a_pivot_at_the_cut_proves_a_drop(monkeypatch):
    # an upper-triangular block with real pivots is its own R, every
    # Householder reflection the identity: one pivot is exactly the cut
    n = RANK_SIZED[1]
    a = np.zeros(RANK_SIZED, dtype=complex)
    a[:n] = np.eye(n)
    a[3, 3] = RANK_TOL_FACTOR
    a[0, 1:] = 0.5
    r = np.linalg.qr(a, mode="r")
    assert np.abs(np.diagonal(r)).min() == RANK_TOL_FACTOR * np.abs(np.diagonal(r)).max()
    calls = counted_lapack(monkeypatch)
    got = candidates_of(a)
    assert calls == [("qr", "reduced"), ("svd", True)]
    assert got.shape[1] == n - 1


def test_a_kahan_block_is_its_q(rng, monkeypatch):
    # no pivot under the cut, so no SVD decides the rank: Q spans the block,
    # and one value under the cut stays in its span
    n = RANK_SIZED[1]
    triangle = kahan(n, 0.6)
    pivots = np.abs(np.diagonal(triangle))
    values = np.linalg.svd(triangle, compute_uv=False)
    assert pivots.min() > 1e3 * RANK_TOL_FACTOR * pivots.max()
    assert values[-1] < 1e-2 * RANK_TOL_FACTOR * values[0] < values[-2]
    a = np.linalg.qr(complex_gaussian(rng, *RANK_SIZED))[0] @ triangle
    q = np.linalg.qr(a)[0]
    assert linalg.orthonormal_columns(a).shape[1] == n - 1
    calls = counted_lapack(monkeypatch)
    got = candidates_of(a)
    assert calls == [("qr", "reduced")]
    assert np.array_equal(got, q)


def test_a_desk_sized_block_keeps_the_plain_svd(rng, monkeypatch):
    a = complex_gaussian(rng, *DESK_SIZED)
    assert not linalg._routed(a)
    want = linalg.orthonormal_columns(a)
    calls = counted_lapack(monkeypatch)
    assert np.array_equal(candidates_of(a), want)
    assert calls == [("svd", True)]


def kahan_candidates(patch, module, n, answer):
    """Make the candidate block into level n a Kahan block on a superspace of C_n.

    The block is X G K: X is an orthonormal basis of C_n and of directions
    orthogonal to it, K is ``kahan(width, 0.7)``, and G is unitary with
    X G u = w, up to a phase, for K's least left singular vector u and a
    unit w in span X orthogonal to ``answer``.  X G u is the block's least
    left singular vector, the one direction that a plain SVD of the block
    cuts and that its Q holds only to roundoff over sigma_min; ``answer``
    does not need it.
    Each block is built once per level n-1 basis.  Returns the bases the
    blocks were built from.
    """
    shift = module.shift
    built, blocks = [], {}

    def kahan_block(prev):
        block = np.hstack([shift(j, n - 1, prev) for j in range(1, module.d + 1)])
        width = block.shape[1]
        span = linalg.orthonormal_columns(block)
        x = np.hstack([span, linalg.complement_basis(span)[:, :width - span.shape[1]]])
        w = linalg.nullspace(answer.conj().T @ x)[:, 0]
        triangle = kahan(width, 0.7)
        least = np.linalg.svd(triangle)[0][:, -1]
        rng = np.random.default_rng(width)
        first = [np.linalg.qr(np.column_stack([u, complex_gaussian(rng, width, width - 1)]))[0]
                 for u in (least, w)]
        built.append(prev)
        return x @ (first[1] @ first[0].conj().T) @ triangle

    def kahan_shift(k, m, prev):
        if m != n - 1:
            return shift(k, m, prev)
        if prev.tobytes() not in blocks:
            blocks[prev.tobytes()] = kahan_block(prev)
        return blocks[prev.tobytes()][:, (k - 1) * prev.shape[1]:k * prev.shape[1]]

    patch.setattr(module, "shift", kahan_shift)
    return built


def assert_kahan_level_is_its_q(patch, module, prev, n):
    assert linalg._routed(np.hstack([module.shift(k, n - 1, prev)
                                     for k in range(1, module.d + 1)]))
    calls = counted_lapack(patch)
    got = EULER_CANDIDATES(module, prev, n)
    assert calls == [("qr", "reduced")]
    assert got.shape[1] == module.d * prev.shape[1]
    assert exact_candidates(module, prev, n).shape[1] < got.shape[1]


def test_a_kahan_block_in_the_recursions_gives_the_oracle_levels(rng):
    # level 9 at d = 3: two generic cubics leave dim Q_8 = 9, and
    # dim V = 2 leaves dim E_V(8) = 9, so both blocks are (55, 27)
    n = 9
    mod = gm.StandardModule(gm.make_weights("hardy", 10, d=3), d=3)
    gens = random_generators(rng, 3, 1, 3, 2)
    v = gm.SubspaceV.from_matrix(mod, complex_gaussian(rng, 3, 2))
    sub = gm.GradedSubmodule.generate(mod, gens)
    gradient = gm.ev_gradient_levels(mod, v)
    cases = ((lambda: gm.GradedSubmodule.generate(mod, gens), sub.quotient_basis(n)),
             (lambda: gm.ev_gradient_levels(mod, v), gradient[n]))
    for build, answer in cases:
        with pytest.MonkeyPatch.context() as patch:
            prev = kahan_candidates(patch, mod, n, answer)
            got = build()
            with exact_candidates_in(patch):
                want = build()
            with patch.context() as counting:
                assert_kahan_level_is_its_q(counting, mod, prev[0], n)
        if isinstance(got, dict):
            got_dims = {m: q.shape[1] for m, q in got.items()}
            assert got_dims == {m: q.shape[1] for m, q in want.items()}
            assert got_dims == {m: q.shape[1] for m, q in gradient.items()}
            assert_same_levels(got, want)
        else:
            assert got.dims() == want.dims() == sub.dims()
            assert got.saturation_flags() == want.saturation_flags() == sub.saturation_flags()
            assert_same_levels(got.quotient_bases, want.quotient_bases)
