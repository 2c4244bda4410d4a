"""The Koszul complex assembled densely: the test oracle for the gamma-blocks.

The package holds B_k(n) on its gamma-blocks.  This module builds each
B_k(n) as the dense sum of Kronecker products T_i(n) (x) C_i, takes ranks
by SVDs of whole blocks, and evaluates B^2 and the Dirac square on the
dense blocks, with a right-hand side built from Kronecker products of the
dense level terms (``level_terms``), and checks that the tuple commutes
with whole-block products (``commutation_residual``).  It shares only the
tuple's blocks, ``creation_matrix`` and ``linalg.numerical_rank`` with the
package.  A tuple is a dict {n: (d, h_{n+1}, h_n) stack of the T_i(n)}.

``gathered_right_sides`` is the oracle of the right-hand sides of
``koszul._dirac_sides``.
It reads the same level terms and classes of a built complex, but gathers
every level term whose form factor is nonzero anywhere on Lambda^k, exact
zero products included, where the package reads only the terms linked to
each pair of subsets.
"""

from math import comb

import numpy as np

from gradmod import linalg
from gradmod.koszul import _form_terms, _level_terms, creation_matrix


def commutation_residual(ops):
    """max_n || T_j(n+1) T_k(n) - T_k(n+1) T_j(n) || over all pairs: 0 for a commuting tuple."""
    worst = 0.0
    for n, low in ops.items():
        high = ops.get(n + 1)
        if high is None:
            continue
        for j in range(low.shape[0]):
            for k in range(j + 1, low.shape[0]):
                delta = high[j] @ low[k] - high[k] @ low[j]
                if delta.size:
                    worst = max(worst, float(np.linalg.norm(delta, 2)))
    return worst


def level_terms(ops, n):
    """F(n) and the starred commutators [T_k*, T_j](n) on level n, as dense matrices.

    F = T_1 T_1* + ... + T_d T_d* is taken on level n - 1 blocks; entry
    (k - 1) d + (j - 1) of the (d^2, h, h) commutator stack is
    T_k(n)* T_j(n) - T_j(n-1) T_k(n-1)*.
    """
    up = ops[n]
    d, _, h = up.shape
    comm = up.conj().transpose(0, 2, 1)[:, None] @ up[None, :]
    f_level = np.zeros((h, h), dtype=complex)
    if n >= 1:
        down = ops[n - 1]
        for j, below_j in enumerate(down):
            for k, below_k in enumerate(down):
                outer = below_j @ below_k.conj().T
                comm[k, j] -= outer
                if j == k:
                    f_level += outer
    return f_level, comm.reshape(d * d, h, h)


class DenseKoszul:
    """Dense boundary blocks {(k, n): B_k(n)} of a commuting degree-1 tuple."""

    def __init__(self, ops):
        self.ops = ops
        self.d = d = ops[min(ops)].shape[0]
        self.dims = {n: stack.shape[2] for n, stack in ops.items()}
        self.dims.update({n + 1: stack.shape[1] for n, stack in ops.items()})
        self.top = max(self.dims)
        self.creation = {(k, i): creation_matrix(d, k, i)
                         for k in range(d) for i in range(1, d + 1)}
        self.boundary = {}
        for k in range(d):
            for n, blocks in ops.items():
                self.boundary[(k, n)] = sum(
                    np.kron(blocks[i - 1], self.creation[(k, i)])
                    for i in range(1, d + 1)).astype(complex)

    def interior(self, k, n):
        return 0 <= n and n + k <= self.top - 1

    def rank(self, k, n):
        block = self.boundary.get((k, n))
        return 0 if block is None else linalg.numerical_rank(block)

    def betti_table(self):
        table = {}
        for n in range(self.top):
            for k in range(self.d + 1):
                if not self.interior(k, n):
                    continue
                dim_kn = self.dims[n] * comb(self.d, k)
                if k < self.d and (k, n) in self.boundary:
                    nullity = dim_kn - self.rank(k, n)
                elif k == self.d:
                    nullity = dim_kn
                else:
                    continue
                table[(k, n)] = int(nullity - self.rank(k - 1, n - 1))
        return table

    def bsquared_residual(self):
        worst = 0.0
        for (k, n), block in self.boundary.items():
            upper = self.boundary.get((k + 1, n + 1))
            if upper is None or not self.interior(k + 1, n + 1):
                continue
            prod = upper @ block
            if prod.size:
                worst = max(worst, float(np.linalg.norm(prod, 2)))
        return worst

    def dirac_square_residual(self, n):
        """max_k || B*B + BB* - F (x) 1 - sum [T_k*, T_j] (x) C_k* C_j || at level n."""
        d, h = self.d, self.dims[n]
        f_level, comm = level_terms(self.ops, n)
        worst = 0.0
        for k in range(d + 1):
            if not self.interior(k, n):
                continue
            lam = comb(d, k)
            lhs = np.zeros((h * lam, h * lam), dtype=complex)
            if (k, n) in self.boundary:
                b = self.boundary[(k, n)]
                lhs += b.conj().T @ b
            if (k - 1, n - 1) in self.boundary:
                b = self.boundary[(k - 1, n - 1)]
                lhs += b @ b.conj().T
            rhs = np.kron(f_level, np.eye(lam))
            if k < d:
                for kk in range(1, d + 1):
                    for jj in range(1, d + 1):
                        rhs += np.kron(comm[(kk - 1) * d + (jj - 1)],
                                       self.creation[(k, kk)].T @ self.creation[(k, jj)])
            if lhs.size:
                worst = max(worst, float(np.linalg.norm(lhs - rhs, 2)))
        return worst


def gathered_right_sides(complex_, n):
    """{k: right-hand side of D^2 on the classes of (k, n)}, a (terms, classes, W, W) gather per k."""
    d = complex_.d
    terms = _level_terms(complex_, [n])[0]
    level = complex_.classes[(0, n)].members
    width_n = level.shape[1]
    cls, slot = np.nonzero(level >= 0)
    offset = np.zeros((2, complex_.level_dims[n]), dtype=np.int64)
    offset[:, level[cls, slot]] = cls * width_n**2 + slot, slot * width_n
    sides = {}
    for k in range(d + 1):
        if not complex_.interior(k, n):
            continue
        members = complex_.classes[(k, n)].members
        vec, sub = np.divmod(members, comb(d, k))
        as_col, as_row = offset[:, vec]
        at = as_row[:, :, None] + as_col[:, None, :]
        index, forms = _form_terms(d, k)
        rhs = (terms[index[:, None, None, None], at]
               * forms[:, sub[:, :, None], sub[:, None, :]]).sum(axis=0)
        rhs[(members[:, :, None] < 0) | (members[:, None, :] < 0)] = 0
        sides[k] = rhs
    return sides
