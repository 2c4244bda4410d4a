"""Multi-index combinatorics on homogeneous polynomial levels.

A multi-index is a plain tuple of d nonnegative integers.  Level n in d
variables is spanned by the monomials z^alpha with |alpha| = n, ordered
graded-lexicographically with z_1 > z_2 > ... > z_d; that order is fixed once
so every block matrix in the toolkit is reproducible entry for entry.

The successor tables built here are pure index maps between levels: no
inner product enters at this layer.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np


def level_dimension(d, n):
    """Number of monomials of degree n in d variables: C(n+d-1, d-1)."""
    if d < 1:
        raise ValueError("need at least one variable")
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return comb(n + d - 1, d - 1)


def _descending_lex(d, n):
    if d == 1:
        yield (n,)
        return
    for first in range(n, -1, -1):
        for rest in _descending_lex(d - 1, n - first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _basis_cached(d, n):
    return tuple(_descending_lex(d, n))


@dataclass(frozen=True)
class LevelBasis:
    """Ordered monomial basis of one homogeneous level."""

    d: int
    n: int
    monomials: tuple

    def index(self, alpha):
        return self.monomials.index(tuple(alpha))

    def __len__(self):
        return len(self.monomials)


def monomial_basis(d, n):
    """LevelBasis for degree n in d variables, in descending lexicographic order."""
    if d < 1:
        raise ValueError("need at least one variable")
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return LevelBasis(d, n, _basis_cached(d, n))


@lru_cache(maxsize=None)
def _index_map(d, n):
    return {alpha: i for i, alpha in enumerate(_basis_cached(d, n))}


@lru_cache(maxsize=None)
def successors(d, n):
    """Index table of the coordinate multiplications from level n to level n+1.

    Entry (i, k) is the index in level n+1 of alpha + e_{k+1}, alpha being the
    i-th monomial of level n (k is 0-based here).  Shape (dim level n, d),
    read-only, cached per (d, n).
    """
    dst_index = _index_map(d, n + 1)
    src = _basis_cached(d, n)
    table = np.empty((len(src), d), dtype=np.intp)
    for i, alpha in enumerate(src):
        for k in range(d):
            table[i, k] = dst_index[alpha[:k] + (alpha[k] + 1,) + alpha[k + 1:]]
    table.flags.writeable = False
    return table
