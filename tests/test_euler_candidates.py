"""Wide candidate blocks: the whole level stands in for C_n, against exact-rank candidates.

Where d dim(prev) >= dim(level n), ``euler_candidates`` returns the identity
of the level without a factorization.  ``candidates_oracle`` keeps C_n
itself, as an SVD of the candidate block finds it; generation, E_V^perp and
the gradient route must give the same dimensions, flags and spans on both.
Wide blocks arise at the low levels of cubics at d = 3, as the
rank-deficient square blocks of E_V with dim V = 2 (d dim E_V(1) = dim S_2
at d = 3, r = 1) and in modules of multiplicity 2.  The draws hold all three
kinds; ``test_each_kind_of_wide_block_occurs`` pins one instance of each.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gradmod as gm
from candidates_oracle import exact_candidates, exact_candidates_in
from gradmod import linalg, submodules
from gradmod.config import SPAN_TOL
from conftest import random_generators, submodule_inputs

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
