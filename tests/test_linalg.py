"""The rank cut and the spectral norm that ``linalg`` owns."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gradmod import linalg
from gradmod.config import RANK_TOL_FACTOR


def complex_gaussian(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def with_singular_values(rng, rows, cols, sigma):
    """A rows x cols matrix with the given singular values, in generic directions."""
    u = np.linalg.qr(complex_gaussian(rng, rows, rows))[0][:, :len(sigma)]
    v = np.linalg.qr(complex_gaussian(rng, cols, cols))[0][:, :len(sigma)]
    return (u * np.asarray(sigma)) @ v.conj().T


# -- opnorm --------------------------------------------------------------------


@pytest.mark.parametrize("shape", [(5, 4, 3), (3, 2, 6), (1, 7, 7), (2, 3, 4, 5)])
def test_opnorm_of_a_stack_is_the_largest_block_norm_bitwise(rng, shape):
    stack = complex_gaussian(rng, *shape)
    blocks = stack.reshape(-1, *shape[-2:])
    want = [float(np.linalg.norm(block, 2)) for block in blocks]
    assert linalg.opnorm(stack) == max(want)
    assert linalg.opnorms(stack).shape == shape[:-2]
    assert linalg.opnorms(stack).ravel().tolist() == want
    for block, norm in zip(blocks, want):
        assert linalg.opnorm(block) == norm


@pytest.mark.parametrize("shape", [(0, 3, 4), (3, 0, 4), (3, 4, 0), (0, 0), (5, 0)])
def test_opnorm_of_empty_blocks_is_zero(shape):
    assert linalg.opnorm(np.zeros(shape, dtype=complex)) == 0.0
    norms = linalg.opnorms(np.zeros(shape, dtype=complex))
    assert norms.shape == shape[:-2] and not norms.any()


# -- the rank cut --------------------------------------------------------------


def test_nullspace_scale_drops_a_value_the_relative_cut_keeps(rng):
    # sigma_max = 1, so the relative cut is RANK_TOL_FACTOR; 5 RANK_TOL_FACTOR
    # lies above it but below the cut RANK_TOL_FACTOR * 10 of scale = 10
    small = 5 * RANK_TOL_FACTOR
    a = with_singular_values(rng, 6, 3, [1.0, 1e-3, small])
    assert linalg.nullspace(a).shape == (3, 0)
    kernel = linalg.nullspace(a, scale=10.0)
    assert kernel.shape == (3, 1)
    assert linalg.opnorm(a @ kernel) == pytest.approx(small, rel=1e-4)
    # a scale below sigma_max leaves the relative cut in force
    assert linalg.nullspace(a, scale=0.5).shape == (3, 0)


@st.composite
def low_rank_matrices(draw):
    """(a, rank): a complex matrix of drawn shape and scale, and its drawn rank."""
    rows = draw(st.integers(1, 9))
    cols = draw(st.integers(1, 9))
    rank = draw(st.integers(0, min(rows, cols)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-6, 1.0, 1e6]))
    return (scale * complex_gaussian(rng, rows, rank) @ complex_gaussian(rng, rank, cols),
            rank)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(low_rank_matrices())
@example((np.zeros((3, 2), dtype=complex), 0))
def test_rank_helpers_agree_on_one_cut(case):
    a, rank = case
    assert linalg.numerical_rank(a) == rank
    assert linalg.orthonormal_columns(a).shape == (a.shape[0], rank)
    assert linalg.nullspace(a).shape == (a.shape[1], a.shape[1] - rank)
    assert linalg.numerical_rank(a[None]) == rank
