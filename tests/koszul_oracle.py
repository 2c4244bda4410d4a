"""The Koszul complex assembled densely: the test oracle for the gamma-blocks.

The package holds B_k(n) on its gamma-blocks.  This module builds each
B_k(n) as the dense sum of Kronecker products T_i(n) (x) C_i, takes ranks
by SVDs of whole blocks, and evaluates B^2 and the Dirac square on the
dense blocks, with a right-hand side built from Kronecker products of the
dense level terms (``level_terms``).  It shares only the tuple's blocks,
``creation_matrix`` and ``linalg.numerical_rank`` with the package.
"""

from math import comb

import numpy as np

from gradmod import linalg
from gradmod.koszul import creation_matrix
from gradmod.operators import tuple_level_dims


def level_terms(ops, n):
    """F(n) and the starred commutators [T_k*, T_j](n) on level n, as dense matrices.

    F = T_1 T_1* + ... + T_d T_d* is taken on level n - 1 blocks; entry
    (k - 1) d + (j - 1) of the (d^2, h, h) commutator stack is
    T_k(n)* T_j(n) - T_j(n-1) T_k(n-1)*.
    """
    d = len(ops)
    up = np.stack([op.blocks[n] for op in ops])
    comm = up.conj().transpose(0, 2, 1)[:, None] @ up[None, :]
    h = up.shape[2]
    f_level = np.zeros((h, h), dtype=complex)
    if n >= 1:
        down = [op.blocks[n - 1] for op in ops]
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
        self.d = d = len(ops)
        self.dims = dims = tuple_level_dims(ops)
        self.top = max(dims)
        self.creation = {(k, i): creation_matrix(d, k, i)
                         for k in range(d) for i in range(1, d + 1)}
        self.boundary = {}
        for k in range(d):
            for n in range(self.top):
                if n not in dims or (n + 1) not in dims:
                    continue
                blocks = [op.blocks.get(n) for op in ops]
                if any(b is None for b in blocks):
                    continue
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
