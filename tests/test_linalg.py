"""The rank cut and the spectral norm that ``linalg`` owns."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gradmod import linalg
from gradmod.config import RANK_TOL_FACTOR
from conftest import DESK_SIZED, RANK_SIZED, complex_gaussian, counted_lapack


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


# -- the fold of per-level values ------------------------------------------------


@pytest.mark.parametrize("at", [0, 2, 4])
def test_largest_keeps_a_nan_at_any_position(at):
    values = [1e-13, 3e-13, 2e-13, 5e-14, 4e-13]
    values[at] = float("nan")
    assert np.isnan(linalg.largest(values, 1e-13))
    blocks = np.zeros((5, 2, 2))
    blocks[at, 1, 0] = np.nan
    assert np.isnan(linalg.largest(list(blocks), 0.0))


def test_largest_of_nothing_is_its_floor():
    assert linalg.largest([], 1e-13) == 1e-13
    assert linalg.largest(np.zeros((0, 3)), 0.0) == 0.0


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=1e300), min_size=1, max_size=12),
       st.sampled_from([0.0, 1e-13, 1e-150, 0.5]))
def test_largest_of_finite_values_is_the_builtin_max_bitwise(values, floor):
    got = linalg.largest(values, floor)
    assert type(got) is float
    assert got.hex() == max(values + [floor]).hex()
    assert linalg.largest(values[::-1], floor).hex() == got.hex()


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


# -- the triangle route --------------------------------------------------------


def reference_nullspace(a, scale=0.0):
    """``nullspace`` by numpy's SVD of the whole operand."""
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] <= a.shape[1])
    return vh[linalg._kept(s, scale):, :].conj().T


def signed_zeros(rng, a):
    """``a`` with about half of its real and imaginary parts set to -0.0."""
    out = a.copy()
    out.real = np.where(rng.random(a.shape) < 0.5, -0.0, a.real)
    out.imag = np.where(rng.random(a.shape) < 0.5, -0.0, a.imag)
    return out


@st.composite
def tall_operands(draw):
    """A tall complex matrix or (count, m, n) stack of drawn kind and scale.

    Shapes straddle the route's gates; the kinds are generic, rank-deficient,
    laden with signed zeros, and with a zero block in a stack.  The scales
    include values outside the range where LAPACK leaves the operand unscaled.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.integers(0, 3)):
        # at and just below the smallest routed row count
        n = draw(st.integers(1, 30))
        least = max(2 * n, -(-linalg.TRIANGLE_MIN_WORK // n**2))
        m = draw(st.integers(max(n, least - 8), least + 60))
    else:
        # square up to twice as tall, past the size gate: below M = int(17 N / 9)
        # the SVD of R is not the same bits
        n = draw(st.integers(26, 30))
        m = draw(st.integers(n, 2 * n))
    count = draw(st.sampled_from([None, 1, 3]))
    shape = (m, n) if count is None else (count, m, n)
    kind = draw(st.sampled_from(["generic", "deficient", "signed-zeros", "zero-block"]))
    if kind == "deficient":
        rank = draw(st.integers(0, n - 1))
        a = complex_gaussian(rng, *shape[:-1], rank) @ complex_gaussian(
            rng, *shape[:-2], rank, n)
    else:
        a = complex_gaussian(rng, *shape)
    if kind == "signed-zeros":
        a = signed_zeros(rng, a)
    if kind == "zero-block" and count is not None:
        a[0] = 0.0
    return a * draw(st.sampled_from([1.0, 1.0, 1e-120, 1e120, 1e-200, 1e-139, 1e138, 1e200]))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(tall_operands())
@example(np.full(RANK_SIZED, 1e-200 + 0j))
@example(np.full(RANK_SIZED, 1e200 + 0j))
def test_routed_helpers_equal_svds_of_the_whole_operand(a):
    values = np.linalg.svd(a, compute_uv=False)
    assert np.array_equal(linalg.opnorms(a), values[..., 0])
    assert linalg.numerical_rank(a) == linalg._kept(values)
    for block, s in zip(a.reshape(-1, *a.shape[-2:]), values.reshape(-1, values.shape[-1])):
        # the second scale cuts the spectrum at its median, so that about half
        # of the right singular vectors are compared even at full rank
        for scale in (0.0, float(np.median(s)) / RANK_TOL_FACTOR):
            assert np.array_equal(linalg.nullspace(block, scale=scale),
                                  reference_nullspace(block, scale))


def counted_qr(monkeypatch):
    calls = []
    qr = np.linalg.qr

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return qr(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "qr", counting)
    return calls


def test_rank_sized_operands_take_the_triangle_route(rng, monkeypatch):
    calls = counted_qr(monkeypatch)
    a = complex_gaussian(rng, *RANK_SIZED)
    linalg.nullspace(a)
    linalg.numerical_rank(a)
    linalg.opnorms(np.stack([a, a]))
    assert calls == [RANK_SIZED, RANK_SIZED, (2, *RANK_SIZED)]


def test_desk_sized_wide_and_out_of_range_operands_do_not(rng, monkeypatch):
    calls = counted_qr(monkeypatch)
    linalg.nullspace(complex_gaussian(rng, *DESK_SIZED))
    linalg.opnorms(complex_gaussian(rng, *RANK_SIZED[::-1]))
    for scale in (1e-200, 1e200):
        linalg.opnorm(scale * complex_gaussian(rng, *RANK_SIZED))
    nan = np.full(RANK_SIZED, np.nan + 0j)
    assert linalg._triangle(nan) is nan
    assert calls == []


# -- orthonormal columns by one plain SVD ------------------------------------------


def plain_orthonormal_columns(a):
    """``orthonormal_columns`` by the U of numpy's SVD of the whole operand."""
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return u[:, :linalg._kept(s)]


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(tall_operands())
@example(np.full(RANK_SIZED, 1e-200 + 0j))
@example(np.full(RANK_SIZED, 1e200 + 0j))
def test_orthonormal_columns_span_what_the_plain_svd_spans(a):
    # every operand, routed or not, takes the plain SVD: the same bits
    for block in a.reshape(-1, *a.shape[-2:]):
        assert np.array_equal(linalg.orthonormal_columns(block),
                              plain_orthonormal_columns(block))


def test_a_desk_sized_operand_keeps_the_plain_svd(rng, monkeypatch):
    a = complex_gaussian(rng, *DESK_SIZED)
    want = plain_orthonormal_columns(a)
    calls = counted_lapack(monkeypatch)
    assert np.array_equal(linalg.orthonormal_columns(a), want)
    assert calls == [("svd", True)]


# -- residuals of exact identities -------------------------------------------------


def no_svd(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an SVD was taken")
    monkeypatch.setattr(np.linalg, "svd", refuse)


@st.composite
def residual_operands(draw):
    """A complex matrix or (count, m, p) stack, possibly empty, of drawn scale."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, cols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    count = draw(st.sampled_from([None, 1, 3]))
    shape = (rows, cols) if count is None else (count, rows, cols)
    a = complex_gaussian(rng, *shape)
    if count is not None and draw(st.booleans()):
        a[0] = 0.0
    return a * draw(st.sampled_from([1.0, 1e-15, 1e-8, 1e6, 1e-170, 1e-300]))


def frobenius(a):
    """The largest per-block Frobenius norm, by numpy's own norm."""
    return float(np.linalg.norm(a, axis=(-2, -1)).max(initial=0.0))


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(residual_operands(), st.sampled_from([1.0 + 1e-12, 1.5, 4.0]))
def test_residual_is_its_bound_without_an_svd_when_the_frobenius_norm_is_below(
        a, headroom):
    bound = max(frobenius(a) * headroom, linalg.FROBENIUS_MIN_BOUND)
    with pytest.MonkeyPatch.context() as patch:
        no_svd(patch)
        got = linalg.residual(a, bound)
        per_block = linalg.residuals(a, bound)
    assert got == bound
    assert per_block.shape == a.shape[:-2] and np.all(per_block == bound)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(residual_operands(), st.sampled_from([0.0, 1e-200, 0.5, 0.9]))
def test_residual_is_the_clamped_spectral_norm_bitwise_otherwise(a, fraction):
    # a bound below the Frobenius norm (or none) leaves the exact path, bit for bit
    bound = fraction * frobenius(a)
    assert linalg.residual(a, bound) == max(linalg.opnorm(a), bound)
    assert np.array_equal(linalg.residuals(a, bound),
                          np.maximum(linalg.opnorms(a), bound))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(residual_operands())
@example(np.zeros((0, 4), dtype=complex))
@example(np.zeros((3, 4, 0), dtype=complex))
@example(np.zeros((2, 5, 5), dtype=complex))
@example(np.full((4, 3), 1e-170 + 1e-170j))
def test_a_zero_bound_gives_the_exact_spectral_norm(a):
    assert linalg.residual(a, 0.0) == linalg.opnorm(a)
    assert np.array_equal(linalg.residuals(a, 0.0), linalg.opnorms(a))


def test_tiny_bounds_certify_nothing_a_sum_of_squares_may_have_lost():
    # every square underflows to zero, so the computed Frobenius norm is 0
    a = np.full((4, 3), 1e-170 + 0j)
    assert not (a.real**2).any()
    assert linalg.residual(a, 1e-320) == linalg.opnorm(a) > 1e-320


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_operands_are_never_certified(bad, monkeypatch):
    a = np.zeros((2, 3, 3), dtype=complex)
    a[1, 0, 0] = bad
    try:
        want = linalg.opnorm(a)
    except np.linalg.LinAlgError:
        with pytest.raises(np.linalg.LinAlgError):
            linalg.residual(a, 1e300)
    else:
        assert np.isnan(want) and np.isnan(linalg.residual(a, 1e300))
    no_svd(monkeypatch)
    with pytest.raises(AssertionError, match="an SVD was taken"):
        linalg.residual(a, 1e300)


def test_span_residuals_of_empty_operands_read_their_bound():
    outer = np.eye(4, dtype=complex)[:, :2]
    assert linalg.containment_residual(np.zeros((3, 4, 0)), outer, 1e-13) == 1e-13
    assert linalg.orthonormality_residual(np.zeros((5, 0)), 1e-13) == 1e-13
    assert linalg.subspace_distance(np.zeros((4, 0)), np.zeros((4, 0)), 1e-13) == 1e-13
    for fn, args in [(linalg.containment_residual, (np.zeros((4, 0)), outer)),
                     (linalg.orthonormality_residual, (np.zeros((5, 0)),))]:
        assert fn(*args, 0.0) == 0.0
