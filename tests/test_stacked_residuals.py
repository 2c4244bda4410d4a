"""Stacked residual norms against their per-block forms, bit for bit.

``GradedSubmodule.invariance_residual`` takes one gather and one stacked
norm per level, and ``linalg.subspace_distance`` one stacked norm for both
containment residuals.  The oracles below are the per-k and per-side forms
they replace; the results must be ``==``, not close.  ``_triangle`` routes a
stack through R only when every block is in range, so a stack in which one
block is exactly zero takes the plain SVD for every block: that case is
checked against blocks that do take the route on their own.
"""

import numpy as np
import pytest

import gradmod as gm
from gradmod import linalg
from conftest import FAMILIES, random_generators

TOP = {1: 8, 2: 8, 3: 6, 4: 5}


def module(family, d, r, top=None):
    top = TOP[d] if top is None else top
    return gm.StandardModule(gm.make_weights(family, top, d=d, r1=1.0, r2=4.0),
                             d=d, multiplicity=r)


def complex_gaussian(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def orthonormal(rng, rows, cols):
    if cols == 0:
        return np.zeros((rows, 0), dtype=complex)
    return np.linalg.qr(complex_gaussian(rng, rows, cols))[0]


# -- the per-block oracles ---------------------------------------------------------


def containment_oracle(inner, outer):
    """||(I - P_outer) inner||_2 of one matrix, as ``containment_residual`` took it."""
    inner = np.asarray(inner, dtype=complex)
    outer = np.asarray(outer, dtype=complex)
    if inner.shape[1] == 0:
        return 0.0
    return linalg.opnorm(inner - outer @ (outer.conj().T @ inner))


def invariance_oracle(sub):
    """One norm per (n, k)."""
    worst = 0.0
    for n in range(min(sub.window, sub.module.top_level - 1)):
        inner = sub.quotient_basis(n)
        for img in sub.module.adjoint_stack(n, sub.quotient_basis(n + 1)):
            worst = max(worst, containment_oracle(img, inner))
    return worst


def distance_oracle(a, b):
    """The larger of the two one-sided containment residuals, one norm each."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape[1] != b.shape[1]:
        return 1.0
    return max(containment_oracle(a, b), containment_oracle(b, a))


def random_quotient(rng, mod, empty=()):
    """Random (non-invariant) quotient bases of drawn dimensions; levels in ``empty`` get none."""
    bases = {}
    for n in range(mod.top_level + 1):
        dim = mod.level_dim(n)
        cols = 0 if n in empty else int(rng.integers(0, dim + 1))
        bases[n] = orthonormal(rng, dim, cols)
    return gm.GradedSubmodule(mod, bases, flags={})


def submodules(family, d, r):
    rng = np.random.default_rng([d, r, FAMILIES.index(family)])
    mod = module(family, d, r)
    gens = random_generators(rng, d, r, 2, 1) + random_generators(rng, d, r, 3, 1)
    top = mod.top_level
    return mod, {
        "generated": gm.GradedSubmodule.generate(mod, gens),
        "monomial": gm.GradedSubmodule.generate(
            mod, [gm.monomial_generator((1,) + (0,) * (d - 1), comp=r - 1)]),
        "random": random_quotient(rng, mod),
        "empty-even": random_quotient(rng, mod, empty=range(0, top + 1, 2)),
        "empty-odd": random_quotient(rng, mod, empty=range(1, top + 1, 2)),
        "whole": gm.GradedSubmodule(
            mod, {n: np.zeros((mod.level_dim(n), 0)) for n in range(top + 1)}, flags={}),
        "zero": gm.GradedSubmodule(
            mod, {n: np.eye(mod.level_dim(n)) for n in range(top + 1)}, flags={}),
    }


# -- invariance_residual -----------------------------------------------------------


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_invariance_residual_is_the_per_k_residual_bitwise(family, d, r):
    _, subs = submodules(family, d, r)
    for name, sub in subs.items():
        got = sub.invariance_residual()
        assert got == invariance_oracle(sub), name
        assert isinstance(got, float)
    assert subs["generated"].invariance_residual() <= 1e-12
    assert subs["random"].invariance_residual() > 1e-3 or d == 1


def test_invariance_stack_with_an_exact_zero_block_beside_routed_blocks():
    # d = 3, r = 3, level 14 -> 15: Q_15 spans the coordinates of the monomials
    # free of z_1, so Z_1* Q_15 is exactly 0, while Z_2* Q_15 and Z_3* Q_15 are
    # (360, 51) residual blocks past the triangle route's size gate
    rng = np.random.default_rng(19)
    mod = module("hardy", 3, 3, top=16)
    bases = {n: np.zeros((mod.level_dim(n), 0)) for n in range(17)}
    bases[14] = orthonormal(rng, mod.level_dim(14), 100)
    labels = mod.level_basis(15)
    free = [i for i, (alpha, _) in enumerate(labels) if alpha[0] == 0]
    bases[15] = np.eye(len(labels))[:, free]
    sub = gm.GradedSubmodule(mod, bases, flags={}, window=15)
    blocks = mod.adjoint_stack(14, bases[15])
    residuals = [b - bases[14] @ (bases[14].conj().T @ b) for b in blocks]
    assert not residuals[0].any()
    assert all(linalg._triangle(res) is not res for res in residuals[1:])
    stack = np.stack(residuals)
    assert linalg._triangle(stack) is stack
    assert sub.invariance_residual() == invariance_oracle(sub) > 0.1


# -- subspace_distance -------------------------------------------------------------


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_subspace_distance_is_the_two_sided_residual_bitwise(family, d, r):
    rng = np.random.default_rng([19, d, r, FAMILIES.index(family)])
    mod, subs = submodules(family, d, r)
    for n in range(mod.top_level + 1):
        q = subs["generated"].quotient_basis(n)
        cols = q.shape[1]
        pairs = [
            (q, q),
            (q, q @ orthonormal(rng, cols, cols)),                 # same span, new basis
            (q, subs["random"].quotient_basis(n)),                 # dims may differ
            (q, orthonormal(rng, q.shape[0], cols)),               # generic pair
            (subs["generated"].basis(n), subs["generated"].basis(n)),
            (q[:, :0], q[:, :0]),
        ]
        for a, b in pairs:
            got = linalg.subspace_distance(a, b)
            assert got == distance_oracle(a, b)
            assert isinstance(got, float)
    assert linalg.subspace_distance(np.zeros((4, 0)), np.zeros((4, 0))) == 0.0
    assert linalg.subspace_distance(np.eye(4)[:, :1], np.eye(4)[:, :2]) == 1.0


def test_subspace_distance_with_an_exact_zero_side_beside_a_routed_side():
    # a = [U; 0] lies in b = [I; 0] exactly, so (I - P_b) a is exactly 0, while
    # (I - P_a) b = [I - U U*; 0] is roundoff in a block past the size gate
    rng = np.random.default_rng(23)
    rows, cols = 300, 12
    b = np.eye(rows, cols, dtype=complex)
    a = np.zeros((rows, cols), dtype=complex)
    a[:cols] = orthonormal(rng, cols, cols)
    one_side = a - b @ (b.conj().T @ a)
    other = b - a @ (a.conj().T @ b)
    assert not one_side.any() and other.any()
    assert linalg._triangle(other) is not other
    assert linalg.subspace_distance(a, b) == distance_oracle(a, b)
    assert linalg.subspace_distance(b, a) == distance_oracle(b, a)


@pytest.mark.parametrize("seed", range(6))
def test_stacked_containment_matches_per_block_around_the_route_gate(seed):
    rng = np.random.default_rng(seed)
    rows, cols = [(300, 10), (200, 12), (40, 8), (128, 12)][seed % 4]
    outer = orthonormal(rng, rows, cols)
    stack = complex_gaussian(rng, 4, rows, cols)
    if seed % 2:
        stack[seed % 4] = 0.0
    stack[1] = outer @ (outer.conj().T @ stack[1])     # roundoff-sized residual
    want = max(containment_oracle(block, outer) for block in stack)
    assert linalg.containment_residual(stack, outer) == want
