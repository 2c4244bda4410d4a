"""Submodule generation, degree, reducing structure, and quotients.

The dimension oracles here multiply polynomials symbolically (dict
arithmetic over monomial exponents) and take ranks of raw coefficient
matrices, independently of the levelwise coordinate-block generation used by
the package.
"""

from itertools import product

import numpy as np
import pytest

import gradmod as gm
from gradmod import linalg
from gradmod.submodules import (embed_polynomials, format_generator,
                                parse_complex, parse_generator_line)
from conftest import random_generators


def poly_mult(p, q, d):
    out = {}
    for (a, ca), (b, cb) in product(p.items(), q.items()):
        key = tuple(x + y for x, y in zip(a, b))
        out[key] = out.get(key, 0.0) + ca * cb
    return out


def ideal_level_dim(gens, d, n):
    """Brute-force dim of the degree-n slice of the ideal generated by ``gens``.

    gens: list of dicts {alpha: coeff}; multiplies by all monomials of the
    complementary degree and ranks the raw coefficient matrix.
    """
    cols = []
    basis = gm.monomial_basis(d, n)
    index = {a: i for i, a in enumerate(basis.monomials)}
    for g in gens:
        gdeg = sum(next(iter(g)))
        if gdeg > n:
            continue
        for beta in gm.monomial_basis(d, n - gdeg).monomials:
            prod_poly = poly_mult(g, {beta: 1.0}, d)
            col = np.zeros(len(basis), dtype=complex)
            for alpha, c in prod_poly.items():
                col[index[alpha]] = c
            cols.append(col)
    if not cols:
        return 0
    return np.linalg.matrix_rank(np.column_stack(cols))


# -- text format -------------------------------------------------------------


def test_parse_complex_forms():
    assert parse_complex("1") == 1.0
    assert parse_complex("-2.5") == -2.5
    assert parse_complex("1+2i") == 1 + 2j
    assert parse_complex("0.5-2i") == 0.5 - 2j
    assert parse_complex("2i") == 2j
    with pytest.raises(ValueError):
        parse_complex("one")
    with pytest.raises(ValueError):
        parse_complex("")


def test_parse_generator_line_roundtrip():
    line = "2 1+0i (2 0)@e1 + -1-2i (0 2)@e1"
    poly = parse_generator_line(line, 2)
    assert poly.degree == 2
    assert poly.terms == (((2, 0), 0, 1 + 0j), ((0, 2), 0, -1 - 2j))
    again = parse_generator_line(format_generator(poly), 2)
    assert again == poly


def test_parse_generator_errors():
    with pytest.raises(ValueError):
        parse_generator_line("2 1+0i (1 0)@e1", 2)      # inhomogeneous
    with pytest.raises(ValueError):
        parse_generator_line("1 1+0i (1 0 0)@e1", 2)    # wrong exponent count
    with pytest.raises(ValueError):
        parse_generator_line("1 huh (1 0)@e1", 2)       # bad coefficient
    with pytest.raises(ValueError):
        parse_generator_line("1 1+0i (1 0)@e0", 2)      # 1-based components
    with pytest.raises(ValueError):
        parse_generator_line("nodegree", 2)


def test_embedding_multiplicity_bounds():
    mod = gm.StandardModule(gm.make_weights("dshift", 4), d=2, multiplicity=1)
    bad = gm.VectorPolynomial(1, (((1, 0), 1, 1.0),))
    with pytest.raises(ValueError):
        embed_polynomials(mod, [bad])


# -- generation oracles -------------------------------------------------------


@pytest.fixture
def h2():
    return gm.StandardModule(gm.make_weights("dshift", 10), d=2)


def test_principal_ideal_z1(h2):
    sub = gm.GradedSubmodule.generate(h2, [gm.monomial_generator((1, 0))])
    gens = [{(1, 0): 1.0}]
    for n in range(11):
        assert sub.dim(n) == ideal_level_dim(gens, 2, n)
    assert sub.dims() == [0] + list(range(1, 11))   # dim M_n = n


def test_unit_generator_gives_everything(h2):
    sub = gm.GradedSubmodule.generate(h2, [gm.monomial_generator((0, 0))])
    assert sub.dims() == [h2.level_dim(n) for n in range(11)]
    assert sub.degree_report().degree == 0


def test_fermat_quadric_dims(h2):
    g = gm.VectorPolynomial(2, (((2, 0), 0, 1.0), ((0, 2), 0, 1.0)))
    sub = gm.GradedSubmodule.generate(h2, [g])
    oracle = [{(2, 0): 1.0, (0, 2): 1.0}]
    for n in range(11):
        assert sub.dim(n) == ideal_level_dim(oracle, 2, n)
    assert sub.dims()[:6] == [0, 0, 1, 2, 3, 4]


def test_random_ideal_dims_match_bruteforce(rng, h2):
    for trial in range(3):
        deg = int(rng.integers(1, 4))
        basis = gm.monomial_basis(2, deg)
        coeffs = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
        terms = tuple((a, 0, complex(c)) for a, c in zip(basis.monomials, coeffs))
        sub = gm.GradedSubmodule.generate(h2, [gm.VectorPolynomial(deg, terms)])
        oracle = [{a: c for a, c in zip(basis.monomials, coeffs)}]
        for n in range(9):
            assert sub.dim(n) == ideal_level_dim(oracle, 2, n)


def test_generation_is_order_independent(rng, h2):
    gens = random_generators(rng, 2, 1, 2, 2) + random_generators(rng, 2, 1, 3, 1)
    sub1 = gm.GradedSubmodule.generate(h2, gens)
    sub2 = gm.GradedSubmodule.generate(h2, gens[::-1])
    for n in range(11):
        assert linalg.subspace_distance(sub1.basis(n), sub2.basis(n)) <= 1e-10


def test_generator_above_window_rejected(h2):
    with pytest.raises(ValueError):
        gm.GradedSubmodule.generate(h2, [gm.monomial_generator((11, 0))])


@pytest.mark.parametrize("level", [-1, 6])
def test_seed_outside_window_rejected(level):
    # a seed the window cannot hold would otherwise be dropped, leaving the
    # zero submodule reported as generated in degree `level`
    mod = gm.StandardModule(gm.make_weights("hardy", 5, d=2), d=2)
    seed = np.ones((7, 1))     # the shape of a level-6 column at d = 2
    with pytest.raises(ValueError, match=f"seed level {level} "):
        gm.GradedSubmodule.from_level_seeds(mod, {level: seed})


# -- degree --------------------------------------------------------------------


def test_degree_values(h2):
    assert gm.GradedSubmodule.generate(
        h2, [gm.monomial_generator((1, 0))]).degree_report().degree == 1
    g = gm.VectorPolynomial(2, (((2, 0), 0, 1.0), ((0, 2), 0, 1.0)))
    rep = gm.GradedSubmodule.generate(h2, [g]).degree_report()
    assert rep.degree == 2 and rep.determined
    assert not rep.flags[1] and all(rep.flags[k] for k in range(2, 10))


def test_degree_of_zero_module_is_degenerate(h2):
    rep = gm.GradedSubmodule.zero(h2).degree_report()
    assert rep.degree == 0 and rep.determined and rep.degenerate_zero


def test_generating_from_nothing_is_the_zero_submodule(h2):
    # the same construction: equal quotient bases, flags and degree report,
    # with 0 as the largest generator degree
    empty, zero = gm.GradedSubmodule.generate(h2, []), gm.GradedSubmodule.zero(h2)
    assert sorted(empty.quotient_bases) == sorted(zero.quotient_bases)
    for n, q in zero.quotient_bases.items():
        assert np.array_equal(empty.quotient_bases[n], q)
    assert empty.saturation_flags() == zero.saturation_flags()
    assert empty.degree_report() == zero.degree_report()
    assert zero.degree_report().max_generator_degree == 0


def test_degree_undetermined_when_window_too_small(h2):
    sub = gm.GradedSubmodule.generate(h2, [gm.monomial_generator((9, 0))])
    rep = sub.degree_report()
    assert not rep.determined and rep.degree is None


def test_saturation_rank_identity(rng, h2):
    # beyond the top generator degree, dim M_{k+1} equals the rank of the
    # stacked coordinate images
    gens = random_generators(rng, 2, 1, 3, 1)
    sub = gm.GradedSubmodule.generate(h2, gens)
    ops = h2.coordinate_tuple()
    for k in range(3, 10):
        stacked = np.hstack([ops[k][j - 1] @ sub.basis(k) for j in (1, 2)])
        assert linalg.numerical_rank(stacked) == sub.dim(k + 1)


# -- reducing -------------------------------------------------------------------


def test_reducing_summand():
    mod = gm.StandardModule(gm.make_weights("hardy", 8, d=2), d=2, multiplicity=2)
    gen = gm.VectorPolynomial(0, (((0, 0), 0, 1.0),))    # the vector e_1
    sub = gm.GradedSubmodule.generate(mod, [gen])
    flag, v = sub.is_reducing()
    assert flag
    assert v.shape == (2, 1)
    np.testing.assert_allclose(np.abs(v[:, 0]), [1.0, 0.0], atol=1e-12)


def test_nonreducing(h2):
    sub = gm.GradedSubmodule.generate(h2, [gm.monomial_generator((1, 0))])
    assert sub.is_reducing() == (False, None)


def test_zero_module_reduces(h2):
    flag, v = gm.GradedSubmodule.zero(h2).is_reducing()
    assert flag and v.shape == (1, 0)


# -- projections and invariance ---------------------------------------------------


def test_projection_extremes(h2):
    full = gm.GradedSubmodule.full(h2)
    zero = gm.GradedSubmodule.zero(h2)
    for n in (0, 2, 5):
        np.testing.assert_allclose(full.projection_block(n),
                                   np.eye(h2.level_dim(n)), atol=1e-14)
        np.testing.assert_allclose(zero.projection_block(n),
                                   np.zeros((h2.level_dim(n),) * 2), atol=1e-14)


def test_projection_properties_random(rng, h2):
    for trial in range(5):
        gens = random_generators(rng, 2, 1, int(rng.integers(1, 4)), 1)
        sub = gm.GradedSubmodule.generate(h2, gens)
        for n in (1, 3, 6):
            p = sub.projection_block(n)
            assert linalg.opnorm(p - p.conj().T) <= 1e-12
            assert linalg.opnorm(p @ p - p) <= 1e-12
        assert sub.orthonormality_residual() <= 1e-12
        assert sub.invariance_residual() <= 1e-10


def test_invariance_as_operator_identity(rng, h2):
    # P_{M_{n+1}} Z_k P_{M_n} = Z_k P_{M_n}
    gens = random_generators(rng, 2, 1, 2, 1)
    sub = gm.GradedSubmodule.generate(h2, gens)
    ops = h2.coordinate_tuple()
    for n in range(9):
        for z in ops[n]:
            lhs = sub.projection_block(n + 1) @ z @ sub.projection_block(n)
            rhs = z @ sub.projection_block(n)
            assert linalg.opnorm(lhs - rhs) <= 1e-10


# -- quotients -----------------------------------------------------------------


def test_quotient_of_zero_is_ambient(h2):
    q = gm.QuotientModule(gm.GradedSubmodule.zero(h2))
    assert q.dims() == [h2.level_dim(n) for n in range(11)]
    # the complement basis of {0} is the identity, so blocks agree exactly
    compressed, ambient = q.coordinate_tuple(), h2.coordinate_tuple()
    for n in range(5):
        np.testing.assert_array_equal(compressed[n], ambient[n])


def test_quotient_tuple_stacks_its_blocks(rng, h2):
    # one (d, dim Q_{n+1}, dim Q_n) stack per level, built once, whose
    # slice k - 1 is Q_{n+1}* Z_k(n) Q_n
    q = gm.QuotientModule(gm.GradedSubmodule.generate(h2, random_generators(rng, 2, 1, 2, 1)))
    ops = q.coordinate_tuple()
    assert sorted(ops) == list(range(q.window))
    for n, stack in ops.items():
        assert stack.dtype == complex
        assert stack.shape == (2, q.dim(n + 1), q.dim(n))
        adjoints = h2.adjoint_stack(n, q.basis(n + 1))
        for k in (1, 2):
            np.testing.assert_array_equal(
                stack[k - 1], adjoints[k - 1].conj().T @ q.basis(n))
    assert all(q.coordinate_tuple()[n] is ops[n] for n in ops)


def test_quotient_of_full_is_zero(h2):
    q = gm.QuotientModule(gm.GradedSubmodule.full(h2))
    assert q.dims() == [0] * 11
    assert q.coordinate_tuple()[2].shape == (2, 0, 0)


def test_dimension_count(rng, h2):
    gens = random_generators(rng, 2, 1, 2, 1)
    sub = gm.GradedSubmodule.generate(h2, gens)
    q = gm.QuotientModule(sub)
    for n in range(11):
        assert sub.dim(n) + q.dim(n) == h2.level_dim(n)


@pytest.mark.parametrize("family,d_arg", [("dshift", None), ("hardy", 2)])
def test_quotient_by_z2_is_weighted_one_variable_shift(family, d_arg):
    w = gm.make_weights(family, 9, d=d_arg)
    mod = gm.StandardModule(w, d=2)
    sub = gm.GradedSubmodule.generate(mod, [gm.monomial_generator((0, 1))])
    q = gm.QuotientModule(sub)
    assert q.dims() == [1] * 10
    blocks = q.coordinate_tuple()
    z1_idx = [gm.monomial_basis(2, n).index((n, 0)) for n in range(10)]
    for n in range(9):
        # quotient level basis is the span of z_1^n
        vec = q.basis(n)[:, 0]
        assert abs(abs(vec[z1_idx[n]]) - 1.0) <= 1e-12
        # compressed Z_2 vanishes, compressed Z_1 is the weighted shift rho_n
        assert linalg.opnorm(blocks[n][1]) <= 1e-13
        assert abs(blocks[n][0][0, 0]) == pytest.approx(w.values[n], abs=1e-13)
