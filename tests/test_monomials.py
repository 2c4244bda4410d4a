"""Combinatorial layer: bases, successor tables, and the structure maps' relations.

Derived expectations are recomputed here by brute-force enumeration,
independently of the recursive generator inside the package.  The dense
structure maps live in the test oracle (``structure_oracle``).
"""

from itertools import product
from math import comb

import numpy as np
import pytest

from gradmod import monomial_basis, monomials
from gradmod.monomials import level_dimension
from structure_oracle import derivative_structure_map, mult_structure_map


def brute_force_level(d, n):
    """All exponent tuples with |alpha| = n, in descending lexicographic order."""
    alphas = [a for a in product(range(n + 1), repeat=d) if sum(a) == n]
    return sorted(alphas, reverse=True)


def test_level_dimension_values():
    assert level_dimension(1, 5) == 1
    assert level_dimension(2, 0) == 1
    # derived: brute-force enumeration
    assert level_dimension(3, 2) == len(brute_force_level(3, 2)) == 6


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 5])
def test_level_dimension_matches_enumeration(d, n):
    assert level_dimension(d, n) == len(brute_force_level(d, n))
    assert level_dimension(d, n) == comb(n + d - 1, d - 1)


def test_basis_small_cases():
    assert monomial_basis(2, 1).monomials == ((1, 0), (0, 1))
    assert monomial_basis(2, 2).monomials == ((2, 0), (1, 1), (0, 2))
    assert len(monomial_basis(3, 2)) == 6


@pytest.mark.parametrize("d,n", [(1, 4), (2, 5), (3, 4), (4, 3)])
def test_basis_order_and_uniqueness(d, n):
    basis = monomial_basis(d, n)
    assert list(basis.monomials) == brute_force_level(d, n)
    assert len(set(basis.monomials)) == len(basis)
    for alpha in basis.monomials:
        assert sum(alpha) == n
    # strictly decreasing in the lexicographic order
    assert all(a > b for a, b in zip(basis.monomials, basis.monomials[1:]))


def test_bad_arguments():
    with pytest.raises(ValueError):
        level_dimension(0, 1)
    with pytest.raises(ValueError):
        monomial_basis(2, -1)
    with pytest.raises(ValueError):
        mult_structure_map(3, 2, 1)
    with pytest.raises(ValueError):
        derivative_structure_map(1, 2, 0)


def test_mult_map_examples():
    m = mult_structure_map(1, 2, 0)
    assert m.shape == (2, 1)
    np.testing.assert_array_equal(m, [[1.0], [0.0]])
    # z_2 * z_1 = z_1 z_2, the middle monomial of level 2
    m = mult_structure_map(2, 2, 1)
    col = m[:, monomial_basis(2, 1).index((1, 0))]
    np.testing.assert_array_equal(col, [0.0, 1.0, 0.0])
    # columns are injective 0/1 maps
    assert np.all(m.sum(axis=0) == 1.0)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_mult_maps_commute(d):
    for n in range(7):
        for j in range(1, d + 1):
            for k in range(1, d + 1):
                lhs = mult_structure_map(k, d, n + 1) @ mult_structure_map(j, d, n)
                rhs = mult_structure_map(j, d, n + 1) @ mult_structure_map(k, d, n)
                np.testing.assert_array_equal(lhs, rhs)


def test_derivative_examples():
    # d/dz_1 z_1^2 = 2 z_1 ; d/dz_2 z_1^2 = 0
    dmap = derivative_structure_map(1, 2, 2)
    col = dmap[:, monomial_basis(2, 2).index((2, 0))]
    np.testing.assert_array_equal(col, [2.0, 0.0])
    dmap = derivative_structure_map(2, 2, 2)
    col = dmap[:, monomial_basis(2, 2).index((2, 0))]
    np.testing.assert_array_equal(col, [0.0, 0.0])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_euler_identity(d):
    for n in range(1, 7):
        acc = sum(mult_structure_map(k, d, n - 1) @ derivative_structure_map(k, d, n)
                  for k in range(1, d + 1))
        np.testing.assert_array_equal(acc, n * np.eye(level_dimension(d, n)))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_heisenberg_relation(d):
    for n in range(0, 6):
        for k in range(1, d + 1):
            comm = derivative_structure_map(k, d, n + 1) @ mult_structure_map(k, d, n)
            if n >= 1:
                comm = comm - mult_structure_map(k, d, n - 1) \
                    @ derivative_structure_map(k, d, n)
            np.testing.assert_array_equal(comm, np.eye(level_dimension(d, n)))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_mult_columns_span_next_level(d):
    for n in range(0, 9 - d):
        stacked = np.hstack([mult_structure_map(k, d, n) for k in range(1, d + 1)])
        assert np.linalg.matrix_rank(stacked) == level_dimension(d, n + 1)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_successors_index_the_mult_structure_maps(d):
    for n in range(0, 9 - d):
        succ = monomials.successors(d, n)
        assert succ.shape == (level_dimension(d, n), d)
        assert not succ.flags.writeable
        for k in range(1, d + 1):
            expected = np.zeros((level_dimension(d, n + 1), level_dimension(d, n)))
            expected[succ[:, k - 1], np.arange(succ.shape[0])] = 1.0
            np.testing.assert_array_equal(expected, mult_structure_map(k, d, n))
