"""Weight families, Fock weights, exact blocks, and scalar diagnostics.

The Fock monomial weights produced by the projection-identity recursion are
checked against the factorial closed form; Bergman weights against exact
normalized volume integrals over the ball (both via rational arithmetic).
"""

from fractions import Fraction
from math import factorial

import numpy as np
import pytest

import gradmod as gm
import structure_oracle as oracle
from koszul_oracle import commutation_residual
from gradmod.completion import fock_level_weights
from gradmod.config import RESIDUAL_FLOOR
from gradmod.linalg import opnorm


# -- weight families -------------------------------------------------------


def test_dshift_weights():
    w = gm.make_weights("dshift", 5)
    np.testing.assert_array_equal(w.values, np.ones(5))
    assert w.bounds == (1.0, 1.0)


def test_hardy_weights():
    w = gm.make_weights("hardy", 6, d=2)
    assert w.values[0] == pytest.approx(np.sqrt(0.5), abs=1e-15)
    k = np.arange(6)
    np.testing.assert_allclose(w.values, np.sqrt((k + 1) / (k + 2)), atol=1e-15)


def test_sinsqrt_weights():
    w = gm.make_weights("sinsqrt", 4, r1=1.0, r2=4.0)
    # sin 0 = 0, so rho_0^2 = r1 + (r2 - r1)/2
    assert w.values[0] ** 2 == pytest.approx(2.5, abs=1e-15)


def ball_monomial_integral(d, alpha):
    """Exact normalized volume integral of |z^alpha|^2 over the unit ball."""
    n = sum(alpha)
    num = Fraction(factorial(d))
    for a in alpha:
        num *= factorial(a)
    return num / factorial(d + n)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_bergman_weights_match_ball_integrals(d):
    # derived oracle: c_n = ||z^alpha||_ball^2 / nu_alpha is constant on the
    # level, and rho_k = sqrt(c_{k+1} / c_k)
    w = gm.make_weights("bergman", 10, d=d)
    for k in range(9):
        c_k = ball_monomial_integral(d, (k,) + (0,) * (d - 1)) \
            / Fraction(factorial(k), factorial(k))
        c_k1 = ball_monomial_integral(d, (k + 1,) + (0,) * (d - 1))
        assert w.values[k] ** 2 == pytest.approx(float(c_k1 / c_k), rel=1e-14)
        assert w.values[k] ** 2 == pytest.approx((k + 1) / (k + d + 1), rel=1e-14)


def test_weight_validation():
    with pytest.raises(ValueError):
        gm.make_weights("sinsqrt", 5, r1=4.0, r2=1.0)
    with pytest.raises(ValueError):
        gm.make_weights("sinsqrt", 5, r1=-1.0, r2=2.0)
    with pytest.raises(ValueError):
        gm.make_weights("hardy", 5)
    with pytest.raises(ValueError):
        gm.make_weights("nosuch", 5)


@pytest.mark.parametrize("values", [[1.0, -1.0, 2.0], [1.0, 0.0], [1.0, np.nan],
                                    [np.inf, 1.0], [], [[1.0]]])
def test_weight_sequence_refuses_bad_values(values):
    with pytest.raises(ValueError):
        gm.WeightSequence(values)


# -- Fock weights and monomial norms ----------------------------------------


@pytest.mark.parametrize("d", [1, 2, 3])
def test_fock_weights_match_factorial_closed_form(d):
    levels = fock_level_weights(d, 8)
    for n in range(9):
        basis = gm.monomial_basis(d, n)
        for i, alpha in enumerate(basis.monomials):
            closed = Fraction(1, factorial(n))
            for a in alpha:
                closed *= factorial(a)
            assert levels[n][i] == pytest.approx(float(closed), rel=1e-13)


@pytest.mark.parametrize("d,top", [(1, 10), (2, 14), (3, 24), (3, 40), (4, 12), (9, 5)])
def test_fock_weights_equal_the_monomial_loop(d, top):
    # same divisions and the same ascending-k sums, so equal bit for bit
    levels = fock_level_weights(d, top)
    assert fock_level_weights(d, top) is levels
    for got, want in zip(levels, oracle.fock_level_weights(d, top), strict=True):
        assert not got.flags.writeable
        assert np.array_equal(got, want)


def test_monomial_norms():
    w = gm.make_weights("hardy", 8, d=2)
    mod = gm.StandardModule(w, d=2)
    assert mod.monomial_norms(0)[0] == pytest.approx(1.0)          # ||1||^2 = 1
    assert mod.monomial_norms(1)[0] == pytest.approx(0.5)          # rho_0^2
    h2 = gm.StandardModule(gm.make_weights("dshift", 8), d=2)
    idx = gm.monomial_basis(2, 2).index((1, 1))
    assert h2.monomial_norms(2)[idx] == pytest.approx(0.5)         # ||z1 z2||^2


# -- blocks ------------------------------------------------------------------


def test_one_variable_dshift_blocks_are_unit():
    ops = gm.StandardModule(gm.make_weights("dshift", 6), d=1).coordinate_tuple()
    for n in range(5):
        np.testing.assert_allclose(ops[n][0], [[1.0]], atol=1e-15)


def all_test_modules(n_levels=8):
    yield gm.StandardModule(gm.make_weights("dshift", n_levels), d=2)
    yield gm.StandardModule(gm.make_weights("hardy", n_levels, d=2), d=2)
    yield gm.StandardModule(gm.make_weights("bergman", n_levels, d=3), d=3, multiplicity=2)
    yield gm.StandardModule(gm.make_weights("sinsqrt", n_levels, r1=1.0, r2=4.0), d=2)


def test_row_sum_identity_all_families():
    for mod in all_test_modules():
        ops = mod.coordinate_tuple()
        for n in range(mod.top_level):
            assert gm.row_sum_residual(ops, mod.rho, n, 0.0) <= 1e-12


@pytest.mark.parametrize("eps", [0.0, 1e-3])
def test_ambient_residuals_match_kronecker_oracle(eps):
    # eps = 0: both identities hold on the package's blocks and on the
    # oracle's.  eps > 0: the weights the identities are checked against are
    # off by a level-dependent factor, and the residuals, now far above
    # roundoff, must equal the oracle's values.
    for mod in all_test_modules():
        rho = mod.rho * (1.0 + eps * np.arange(1, mod.rho.size + 1))
        ops, fock_ops = mod.coordinate_tuple(), mod.fock_tuple()
        pairs = [(gm.row_sum_residual(ops, rho, n, 0.0),
                  oracle.row_sum_residual(mod, n, rho))
                 for n in range(mod.top_level)]
        for n in range(1, mod.top_level):
            levelwise = gm.commutator_decomposition_residual(ops, fock_ops, rho, n, 0.0)
            assert levelwise.shape == (mod.d, mod.d)
            pairs += [(levelwise[j - 1, k - 1],
                       oracle.commutator_decomposition_residual(mod, j, k, n, rho))
                      for j in range(1, mod.d + 1) for k in range(1, mod.d + 1)]
        for got, want in pairs:
            if eps == 0.0:
                assert max(got, want) <= 1e-12
            else:
                assert want >= 1e-6
                assert abs(got - want) <= 1e-10 * want
        if eps:
            # residuals far above the printed floor keep their exact bits
            assert [gm.row_sum_residual(ops, rho, n, RESIDUAL_FLOOR)
                    for n in range(mod.top_level)] == [got for got, _ in pairs[:mod.top_level]]
            for n in range(1, mod.top_level):
                assert np.array_equal(
                    gm.commutator_decomposition_residual(ops, fock_ops, rho, n, RESIDUAL_FLOOR),
                    gm.commutator_decomposition_residual(ops, fock_ops, rho, n, 0.0))


def test_coordinate_blocks_commute():
    for mod in all_test_modules():
        assert commutation_residual(mod.coordinate_tuple()) <= 1e-13


def test_coordinate_tuple_stacks_the_coordinate_blocks_bitwise():
    # each level's stack holds Z_1(n), ..., Z_d(n) as ``shift`` applied to an
    # identity builds them, signs of zeros included, and Z_k(n) = rho_n S_k(n)
    # entry for entry; every call builds anew
    for mod in all_test_modules():
        ops, fock_ops = mod.coordinate_tuple(), mod.fock_tuple()
        assert sorted(ops) == sorted(fock_ops) == list(range(mod.top_level))
        for n, stack in ops.items():
            shape = (mod.d, mod.level_dim(n + 1), mod.level_dim(n))
            assert stack.dtype == complex and stack.shape == shape
            assert fock_ops[n].dtype == float and fock_ops[n].shape == shape
            assert np.array_equal(stack, mod.rho[n] * fock_ops[n])
            eye = np.eye(mod.level_dim(n), dtype=complex)
            for k in range(1, mod.d + 1):
                assert stack[k - 1].tobytes() == mod.shift(k, n, eye).tobytes()
                assert np.array_equal(fock_ops[n][k - 1], oracle.fock_block(mod, k, n))
        again, fock_again = mod.coordinate_tuple(), mod.fock_tuple()
        assert all(again[n] is not ops[n] and fock_again[n] is not fock_ops[n]
                   for n in ops)


def test_level_zero_column_is_scaled_unit_vector():
    # Z_k 1 = z_k has norm rho_0; after the coordinate normalization (divide
    # by rho_0) it is the k-th level-1 basis vector.
    w = gm.make_weights("hardy", 6, d=2)
    level_0 = gm.StandardModule(w, d=2).coordinate_tuple()[0]
    for k in (1, 2):
        col = level_0[k - 1][:, 0]
        assert np.linalg.norm(col) == pytest.approx(w.values[0], abs=1e-15)
        unit = col / w.values[0]
        expected = np.zeros(2, complex)
        expected[k - 1] = 1.0
        np.testing.assert_allclose(unit, expected, atol=1e-15)


def test_adjoint_proportional_to_derivative():
    """Z_k*|_{level n} = u(n) * (d/dz_k in orthonormal coordinates).

    Oracle built from scratch: factorial Fock weights, cumulative level
    scales, and the raw derivative structure map.
    """
    for mod in all_test_modules():
        rho = mod.rho
        ops = mod.coordinate_tuple()
        c = np.concatenate(([1.0], np.cumprod(rho**2)))
        for n in range(1, mod.top_level):
            nu_hi = np.array([
                np.prod([factorial(a) for a in alpha]) / factorial(n)
                for alpha in gm.monomial_basis(mod.d, n).monomials])
            nu_lo = np.array([
                np.prod([factorial(a) for a in alpha]) / factorial(n - 1)
                for alpha in gm.monomial_basis(mod.d, n - 1).monomials])
            w_hi = np.sqrt(c[n] * nu_hi)
            w_lo = np.sqrt(c[n - 1] * nu_lo)
            u = rho[n - 1] ** 2 / n
            for k in range(1, mod.d + 1):
                raw = oracle.derivative_structure_map(k, mod.d, n)
                normalized = w_lo[:, None] * raw / w_hi[None, :]
                expected = u * np.kron(normalized, np.eye(mod.multiplicity))
                adjoint = ops[n - 1][k - 1].conj().T
                assert opnorm(adjoint - expected) <= 1e-12
                assert opnorm(adjoint - mod.adjoint_scalar(n)
                              * oracle.gradient_block(mod, k, n)) <= 1e-12
            # the stacked gather: L_{n-1}* = u(n) (d/dz_1, ..., d/dz_d)
            eye = np.eye(mod.level_dim(n), dtype=complex)
            assert opnorm(mod.row_adjoint(n - 1, eye)
                          - mod.adjoint_scalar(n) * mod.gradient(n, eye)) <= 1e-12


def test_adjoint_h2_scalars():
    # Z_1*(z_1) = 1 on the d-shift module; the level-2 scalar is 1/2.
    mod = gm.StandardModule(gm.make_weights("dshift", 6), d=2)
    adj = mod.coordinate_tuple()[0][0].conj().T
    np.testing.assert_allclose(adj, [[1.0, 0.0]], atol=1e-15)
    assert mod.adjoint_scalar(1) == pytest.approx(1.0)
    assert mod.adjoint_scalar(2) == pytest.approx(0.5)


def shift_inputs(rng, rows):
    """Complex columns, real columns with signed zero imaginary parts, and sparse ones."""
    for cols in (0, 1, 3, 8):
        yield rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    real = rng.normal(size=(rows, 5)) + 0j
    real.imag[::3] = -0.0
    yield real
    yield np.eye(rows, dtype=complex)[:, ::2]
    yield -np.eye(rows, dtype=complex).T.copy().T   # Fortran order, -0 entries


@pytest.mark.parametrize("family", ["dshift", "hardy", "bergman", "sinsqrt"])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_shift_helpers_equal_dense_blocks_exactly(family, d, r):
    # one product per entry, so the scalar-block application is exact (the
    # sign of a zero is the BLAS kernel's, and array_equal does not read it)
    rng = np.random.default_rng([d, r, len(family)])
    mod = gm.StandardModule(gm.make_weights(family, 6, d=d, r1=1.0, r2=4.0),
                            d=d, multiplicity=r)
    ops = mod.coordinate_tuple()
    for n in range(mod.top_level):
        blocks = [oracle.coordinate_block(mod, k, n) for k in range(1, d + 1)]
        for k, block in enumerate(blocks, start=1):
            assert np.array_equal(ops[n][k - 1], block)
            for x in shift_inputs(rng, mod.level_dim(n)):
                got = mod.shift(k, n, x)
                assert got.shape == (mod.level_dim(n + 1), x.shape[1])
                assert np.array_equal(got, block @ x)
        for x in shift_inputs(rng, mod.level_dim(n + 1)):
            got = mod.adjoint_stack(n, x)
            assert got.shape == (d, mod.level_dim(n), x.shape[1])
            for k, block in enumerate(blocks, start=1):
                assert np.array_equal(got[k - 1], block.conj().T @ x)
    for n in range(1, mod.top_level + 1):
        stacked = oracle.gradient_stack(mod, n)
        for x in shift_inputs(rng, mod.level_dim(n)):
            got = mod.gradient(n, x)
            assert got.shape == (d * mod.level_dim(n - 1), x.shape[1])
            assert np.array_equal(got, stacked @ x)


@pytest.mark.parametrize("family", ["dshift", "hardy", "bergman", "sinsqrt"])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("r", [1, 2])
def test_row_helpers_equal_the_dense_row_block(family, d, r):
    # L_n* x: one product per entry, so exact; L_n x sums up to d products,
    # in another order than the dense product, so equal to roundoff
    rng = np.random.default_rng([d, r, len(family), 1])
    mod = gm.StandardModule(gm.make_weights(family, 6, d=d, r1=1.0, r2=4.0),
                            d=d, multiplicity=r)
    for n in range(mod.top_level):
        block = oracle.row_block(mod, n)
        assert np.array_equal(mod.row_block(n), block)
        for x in shift_inputs(rng, block.shape[0]):
            got = mod.row_adjoint(n, x)
            assert got.shape == (block.shape[1], x.shape[1])
            assert np.array_equal(got, block.conj().T @ x)
        for x in shift_inputs(rng, block.shape[1]):
            got = mod.row(n, x)
            assert got.shape == (block.shape[0], x.shape[1])
            np.testing.assert_allclose(got, block @ x, rtol=0, atol=1e-14 * max(
                1.0, float(np.abs(x).max(initial=0.0))))


def test_out_of_window_blocks_raise():
    # a negative or out-of-range index must not wrap around a table
    mod = gm.StandardModule(gm.make_weights("dshift", 4), d=2, multiplicity=2)
    with pytest.raises(ValueError):
        mod.level_dim(5)
    top = mod.top_level

    def cols(n, copies=1):
        # columns of the right height, so only the index check can raise
        return np.ones((copies * mod.level_dim(n), 1), dtype=complex)

    for k in (0, mod.d + 1, -1):
        with pytest.raises(ValueError):
            mod.shift(k, 1, cols(1))
    for n in (top, -1):
        with pytest.raises(ValueError):
            mod.shift(1, n, cols(max(n, 0)))
        with pytest.raises(ValueError):
            mod.adjoint_stack(n, cols(max(n, 0)))
    with pytest.raises(ValueError):
        mod.row(top, cols(top, mod.d))
    with pytest.raises(ValueError):
        mod.row_adjoint(top, cols(top))
    for n in (top, -1):
        with pytest.raises(ValueError):
            mod.row_block(n)
    for n in (0, top + 1, -1):
        with pytest.raises(ValueError):
            mod.gradient(n, cols(min(max(n, 0), top)))


# -- appendix commutator decomposition --------------------------------------


def test_decomposition_dshift_reduces_to_fock_commutator():
    # Dt^2 - D^2 = 0 on levels >= 1 when all weights are 1
    mod = gm.StandardModule(gm.make_weights("dshift", 8), d=2)
    ops, fock_ops = mod.coordinate_tuple(), mod.fock_tuple()
    for n in range(1, 7):
        assert gm.commutator_decomposition_residual(
            ops, fock_ops, mod.rho, n, 0.0)[0, 1] <= 1e-14


def test_decomposition_hardy():
    mod = gm.StandardModule(gm.make_weights("hardy", 12, d=2), d=2)
    ops, fock_ops = mod.coordinate_tuple(), mod.fock_tuple()
    for n in range(1, 11):
        assert gm.commutator_decomposition_residual(
            ops, fock_ops, mod.rho, n, 0.0).max() <= 1e-12
    for n in (0, 12):
        with pytest.raises(ValueError):
            gm.commutator_decomposition_residual(ops, fock_ops, mod.rho, n, 0.0)


def test_unilateral_shift_self_commutator():
    # d = 1 shift: [Z*, Z] is the rank-one projection onto the constants
    mod = gm.StandardModule(gm.make_weights("dshift", 6), d=1)
    comms = gm.self_commutators(mod.coordinate_tuple())
    np.testing.assert_allclose(comms[0][0, 0], [[1.0]], atol=1e-15)
    for n in range(1, 6):
        assert np.linalg.norm(comms[n][0, 0], 2) <= 1e-15


# -- scalar diagnostics ------------------------------------------------------


def test_oscillation_dshift():
    rep = gm.oscillation_report(gm.make_weights("dshift", 100), 50)
    assert rep.tail_max == 0.0
    assert rep.slope is None


def test_oscillation_tail_window_is_bounded_by_the_differences():
    w = gm.make_weights("hardy", 10, d=2)
    assert gm.oscillation_report(w, 9).tail_window == 9
    for tail in (0, 10):
        with pytest.raises(ValueError, match="tail window"):
            gm.oscillation_report(w, tail)
    with pytest.raises(ValueError):
        gm.oscillation_report(gm.make_weights("dshift", 1), 1)


def test_oscillation_hardy_decay():
    rep = gm.oscillation_report(gm.make_weights("hardy", 400, d=2), 200)
    assert rep.slope is not None and rep.slope <= -1.5
    assert rep.tail_max < 1e-4


def test_oscillation_sinsqrt_decay():
    w = gm.make_weights("sinsqrt", 2000, r1=1.0, r2=4.0)
    rep = gm.oscillation_report(w, 1000)
    assert -0.7 < rep.slope < -0.3


def test_summability_dshift_is_zero():
    for p in (1.0, 2.0, 5.0):
        rep = gm.summability_report(gm.make_weights("dshift", 50), 2, p)
        assert np.all(rep.partial_sums == 0.0)
        assert rep.trend.trend == "converging"


def test_summability_sinsqrt_threshold():
    # p-essential normality threshold p > 2d at d = 2
    w = gm.make_weights("sinsqrt", 2000, r1=1.0, r2=4.0)
    assert gm.summability_report(w, 2, 5).trend.trend == "converging"
    assert gm.summability_report(w, 2, 3).trend.trend == "diverging"


def test_number_trace_threshold():
    # (N+1)^{-1} is p-summable exactly when p > d
    for d in (1, 2, 3):
        assert gm.number_trace_report(d, d + 1, 500).trend.trend == "converging"
        assert gm.number_trace_report(d, d, 500).trend.trend == "diverging"
