"""Truncated Koszul complex, Dirac-square identity, Betti ranks, syzygies.

For a commuting degree-1 tuple T_1, ..., T_d the boundary operator is
B = T_1 (x) C_1 + ... + T_d (x) C_d on H (x) Lambda E, where the C_i are
creation operators on the exterior algebra of a d-dimensional space.  Form
degree k at level n is the block H_n (x) Lambda^k E with the basis ordered
(level vector) major, (sorted k-subset) minor; the creation sign convention
is (-1)^(number of subset members below the new index).

Every reported quantity is restricted to interior (level, form-degree) pairs
with n + k <= N - 1, so no block ever touches truncated data.
"""

from dataclasses import dataclass, field
from itertools import combinations
from math import comb

import numpy as np

from . import linalg
from .config import EXACT_TOL
from .operators import commutation_residual, tuple_level_dims


def form_subsets(d, k):
    """Sorted k-subsets of {1..d} in lexicographic order (the Lambda^k basis)."""
    return list(combinations(range(1, d + 1), k))


def creation_matrix(d, k, i):
    """Matrix of C_i : Lambda^k E -> Lambda^{k+1} E in the subset bases."""
    if not 1 <= i <= d:
        raise ValueError("variable index out of range")
    src = form_subsets(d, k)
    dst = {s: row for row, s in enumerate(form_subsets(d, k + 1))}
    out = np.zeros((comb(d, k + 1), comb(d, k)))
    for col, s in enumerate(src):
        if i in s:
            continue
        sign = (-1.0) ** sum(1 for j in s if j < i)
        out[dst[tuple(sorted(s + (i,)))], col] = sign
    return out


@dataclass(frozen=True)
class KoszulComplex:
    """Assembled boundary blocks of the Koszul complex of a graded tuple."""

    d: int
    level_dims: dict
    boundary: dict       # (form degree k, level n) -> block of B
    top_level: int
    creation: dict       # (form degree k, variable i) -> C_i on Lambda^k, k < d
    _ranks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def boundary_block(self, k, n):
        return self.boundary[(k, n)]

    def boundary_rank(self, k, n):
        """Numerical rank of B_k(n), computed once; 0 where no block is stored."""
        if (k, n) not in self._ranks:
            block = self.boundary.get((k, n))
            self._ranks[(k, n)] = 0 if block is None else linalg.numerical_rank(block)
        return self._ranks[(k, n)]

    def form_dim(self, k, n):
        return self.level_dims[n] * comb(self.d, k)

    def interior(self, k, n):
        return 0 <= n and n + k <= self.top_level - 1

    def bsquared_residual(self):
        """max || B_{k+1}(n+1) B_k(n) || over interior pairs; 0 by anticommutation."""
        worst = 0.0
        for (k, n), block in self.boundary.items():
            upper = self.boundary.get((k + 1, n + 1))
            if upper is None or not self.interior(k + 1, n + 1):
                continue
            prod = upper @ block
            if prod.size:
                worst = max(worst, float(np.linalg.norm(prod, 2)))
        return worst


def build_koszul(ops, commute_tol=EXACT_TOL):
    """Assemble the Koszul complex of a commuting degree-1 tuple.

    Raises ValueError when the supplied blocks fail to commute within
    ``commute_tol`` (relative to the largest block norm).
    """
    d = len(ops)
    if d < 1:
        raise ValueError("need at least one operator")
    dims = tuple_level_dims(ops)
    scale = max((op.sup_norm() for op in ops), default=1.0) or 1.0
    resid = commutation_residual(ops)
    if resid > commute_tol * max(scale**2, 1.0):
        raise ValueError(
            f"tuple does not commute: residual {resid:.3e}")
    top = max(dims)
    boundary = {}
    creation = {(k, i): creation_matrix(d, k, i)
                for k in range(d) for i in range(1, d + 1)}
    for k in range(d):
        for n in range(top):
            if n not in dims or (n + 1) not in dims:
                continue
            blocks = [op.blocks.get(n) for op in ops]
            if any(b is None for b in blocks):
                continue
            boundary[(k, n)] = sum(
                np.kron(blocks[i - 1], creation[(k, i)])
                for i in range(1, d + 1)).astype(complex)
    return KoszulComplex(d, dims, boundary, top, creation)


def betti_table(complex_, levels=None):
    """Cohomology dimensions per (form degree, level) at interior pairs.

    Entry (k, n) is dim ker B_k(n) - rank B_{k-1}(n-1); missing boundary
    blocks below level 0 (or at form degree d) are zero maps.  Raises when
    the window leaves no interior pair for some form degree.
    """
    if levels is None:
        levels = range(0, complex_.top_level)
    levels = list(levels)
    for k in range(complex_.d + 1):
        if not any(complex_.interior(k, n) for n in levels):
            raise ValueError(
                f"window too small: no interior level at form degree {k}")
    table = {}
    for n in levels:
        for k in range(complex_.d + 1):
            if not complex_.interior(k, n):
                continue
            dim_kn = complex_.form_dim(k, n)
            if k < complex_.d and (k, n) in complex_.boundary:
                nullity = dim_kn - complex_.boundary_rank(k, n)
            elif k == complex_.d:
                nullity = dim_kn
            else:
                continue
            table[(k, n)] = int(nullity - complex_.boundary_rank(k - 1, n - 1))
    return table


def betti_numbers(complex_, levels=None):
    """Aggregate Betti vector (beta_0, ..., beta_d) over the level window."""
    table = betti_table(complex_, levels=levels)
    beta = [0] * (complex_.d + 1)
    for (k, _), dim in table.items():
        beta[k] += dim
    return tuple(beta)


def dirac_square_residual(complex_, ops, level):
    """Residual of D^2 = F (x) 1 + sum_{k,j} [T_k*, T_j] (x) C_k* C_j at one level.

    D = B + B* preserves (form degree, level); both sides are evaluated
    blockwise at every interior form degree of the given level and the worst
    deviation is returned.  F is T_1 T_1* + ... + T_d T_d*.
    """
    d = complex_.d
    dims = complex_.level_dims
    n = int(level)
    if n not in dims or not complex_.interior(0, n):
        raise ValueError(f"level {n} is not interior to the stored window")
    h = dims[n]
    # level data of F and of the starred commutators
    f_level = np.zeros((h, h), dtype=complex)
    if n >= 1:
        for op in ops:
            blk = op.blocks.get(n - 1)
            f_level += blk @ blk.conj().T
    comm_level = {}
    for kk in range(1, d + 1):
        for jj in range(1, d + 1):
            term = ops[kk - 1].blocks[n].conj().T @ ops[jj - 1].blocks[n]
            if n >= 1:
                term = term - ops[jj - 1].blocks[n - 1] @ ops[kk - 1].blocks[n - 1].conj().T
            comm_level[(kk, jj)] = term

    worst = 0.0
    for k in range(d + 1):
        if not complex_.interior(k, n):
            continue
        lam = comb(d, k)
        lhs = np.zeros((h * lam, h * lam), dtype=complex)
        if (k, n) in complex_.boundary:
            b = complex_.boundary[(k, n)]
            lhs += b.conj().T @ b
        if (k - 1, n - 1) in complex_.boundary:
            b = complex_.boundary[(k - 1, n - 1)]
            lhs += b @ b.conj().T
        rhs = np.kron(f_level, np.eye(lam))
        if k < d:
            # C_k* C_j vanishes identically on Lambda^d
            for kk in range(1, d + 1):
                ck = complex_.creation[(k, kk)]
                for jj in range(1, d + 1):
                    cj = complex_.creation[(k, jj)]
                    rhs += np.kron(comm_level[(kk, jj)], ck.conj().T @ cj)
        worst = max(worst, float(np.linalg.norm(lhs - rhs, 2)) if lhs.size else 0.0)
    return worst


def solve_syzygy(ops, xi, level, kernel_tol=1e-10):
    """Antisymmetric eta with xi_k = sum_j T_j eta_{jk}, minimal norm.

    Parameters
    ----------
    ops : commuting degree-1 tuple
    xi : list of d level-``level`` coordinate vectors with sum_k T_k xi_k = 0
    level : homogeneous degree n of the input

    Returns (eta, residual): eta maps ordered pairs (j, k) to level n-1
    vectors with eta_{jk} = -eta_{kj} exactly by construction, and residual
    is the relative reconstruction error.  Degree-0 input must be zero and
    yields the zero certificate.
    """
    d = len(ops)
    n = int(level)
    xi = [np.asarray(x, dtype=complex).reshape(-1) for x in xi]
    if len(xi) != d:
        raise ValueError("need one component per operator")
    dims = tuple_level_dims(ops)
    h_n = dims[n]
    if any(x.size != h_n for x in xi):
        raise ValueError("components must live on the stated level")
    scale = max(max((float(np.linalg.norm(x)) for x in xi)), 1.0)
    if any(n not in op.blocks for op in ops):
        raise ValueError(
            f"level {n} has no exact blocks above it; cannot certify kernel membership")
    in_kernel = sum(ops[k].blocks[n] @ xi[k] for k in range(d))
    if float(np.linalg.norm(in_kernel)) > kernel_tol * scale:
        raise ValueError("input is not in the kernel of the row map")
    pairs = [(j, k) for j in range(1, d + 1) for k in range(j + 1, d + 1)]
    if n == 0:
        eta = {(j, k): np.zeros(0, dtype=complex)
               for j in range(1, d + 1) for k in range(1, d + 1)}
        return eta, 0.0

    h_prev = dims[n - 1]
    big = np.zeros((d * h_n, len(pairs) * h_prev), dtype=complex)
    for col, (a, b) in enumerate(pairs):
        sl = slice(col * h_prev, (col + 1) * h_prev)
        # eta_{ab} feeds +T_a into equation b and -T_b into equation a
        big[(b - 1) * h_n:b * h_n, sl] = ops[a - 1].blocks[n - 1]
        big[(a - 1) * h_n:a * h_n, sl] = -ops[b - 1].blocks[n - 1]
    target = np.concatenate(xi)
    sol = np.linalg.lstsq(big, target, rcond=None)[0]
    eta = {(j, j): np.zeros(h_prev, dtype=complex) for j in range(1, d + 1)}
    for col, (a, b) in enumerate(pairs):
        vec = sol[col * h_prev:(col + 1) * h_prev]
        eta[(a, b)] = vec
        eta[(b, a)] = -vec
    residual = float(np.linalg.norm(big @ sol - target)) / scale
    return eta, residual
