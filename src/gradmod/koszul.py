"""Truncated Koszul complex on its gamma-blocks: Betti ranks, Dirac square, syzygies.

For a commuting degree-1 tuple T_1, ..., T_d the boundary operator is
B = T_1 (x) C_1 + ... + T_d (x) C_d on H (x) Lambda E, where the C_i are
creation operators on the exterior algebra of a d-dimensional space.  Form
degree k at level n is the space H_n (x) Lambda^k E, with its flat basis
ordered (level vector) major, (sorted k-subset) minor; the creation sign
convention is (-1)^(number of subset members below the new index).

The complex is stored on its gamma-blocks, never as dense boundary blocks.
A standard tuple commutes with the torus action: Z_i sends z^beta to a
multiple of z^(beta + e_i), so B sends z^beta (x) e_S into
z^(beta + e_i) (x) e_(S + i) and keeps gamma = beta - 1_S fixed.  Every basis
vector of H_n (x) Lambda^k gets the class (root, gamma), where the label
(root, beta) of its level vector is read off the exact zero pattern of the
T blocks (``node_labels``): the labels hold when every nonzero entry of
every T_i(n) sends (root, beta) to (root, beta + e_i).  B_k(n), B^2 and
D^2 = (B + B*)^2 then join only basis vectors of one class, so each splits
into blocks of at most C(d, k+1) x C(d, k) where each label names one basis
vector, as on a standard module.  A tuple the labels do not fit, such as a
quotient by generic generators, puts each space in one class; its one
gamma-block per boundary block is the dense block.

The blocks of each B_k(n) are zero-padded to one shape and stacked, and
ranks, B^2 and D^2 residuals are taken by batched products and SVDs over the
stacks.  A rank counts the singular values of B_k(n) above RANK_TOL_FACTOR
times the largest over all of its blocks, so it is the rank of the assembled
block.  ``boundary_block`` assembles a dense B_k(n) only on request.

Every reported quantity is restricted to interior (level, form-degree) pairs
with n + k <= N - 1, so no block ever touches truncated data.
"""

from dataclasses import dataclass, field
from functools import lru_cache
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


@lru_cache(maxsize=None)
def _subset_rows(d, k):
    """(C(d, k), d) array whose rows are the indicators 1_S of the sorted k-subsets."""
    rows = np.zeros((comb(d, k), d), dtype=np.int64)
    for row, s in enumerate(form_subsets(d, k)):
        rows[row, [i - 1 for i in s]] = 1
    rows.setflags(write=False)
    return rows


@lru_cache(maxsize=None)
def _creation_links(d, k):
    """Sign and variable of B's entry between each Lambda^{k+1}, Lambda^k pair.

    Entry (S', S) of C_i is nonzero for at most one i, the one with
    S' = S + {i}: the sign is that entry (0 where no i links the pair) and
    the variable is i - 1 (0 where none does).
    """
    creation = np.stack([creation_matrix(d, k, i) for i in range(1, d + 1)])
    sign, var = creation.sum(axis=0), np.argmax(np.abs(creation), axis=0)
    sign.setflags(write=False)
    var.setflags(write=False)
    return sign, var


def node_labels(ops):
    """Torus labels of the level basis vectors, read off the exact zero pattern.

    Returns ``{n: (root, weight)}``: an (h_n,) int array naming the piece
    each basis vector hangs from and an (h_n, d) int array of weights, such
    that every nonzero entry of every T_i(n) sends (root, w) to
    (root, w + e_i).  Levels are labelled upwards: a basis vector that no
    nonzero entry reaches starts a new root at weight 0, any other takes the
    label its entries give it.  Returns None when two entries disagree.
    """
    d = len(ops)
    dims = tuple_level_dims(ops)
    labels = {}
    roots = 0
    for n in sorted(dims):
        root = np.full(dims[n], -1, dtype=np.int64)
        weight = np.zeros((dims[n], d), dtype=np.int64)
        if n - 1 in labels:
            below_root, below_weight = labels[n - 1]
            rows, got_root, got_weight = [], [], []
            for i, op in enumerate(ops):
                block = op.blocks.get(n - 1)
                if block is None:
                    continue
                a, b = np.nonzero(block)
                step = below_weight[b]
                step[:, i] += 1
                rows.append(a)
                got_root.append(below_root[b])
                got_weight.append(step)
            if rows:
                rows = np.concatenate(rows)
                got_root = np.concatenate(got_root)
                got_weight = np.concatenate(got_weight)
                root[rows] = got_root
                weight[rows] = got_weight
                if not (np.array_equal(root[rows], got_root)
                        and np.array_equal(weight[rows], got_weight)):
                    return None
        fresh = np.flatnonzero(root < 0)
        root[fresh] = roots + np.arange(fresh.size)
        roots += fresh.size
        labels[n] = (root, weight)
    return labels


def _class_ids(ops, d, dims):
    """Class id of every flat basis index of every space (k, n), one id space.

    The id of (root, gamma) is a number in base ``radix``; an unlabelled
    tuple, or one with too many classes to number in 62 bits, gets id 0
    everywhere.
    """
    labels = node_labels(ops)
    spaces = [(k, n) for n in sorted(dims) for k in range(d + 1)]
    if labels is not None:
        # weights are >= 0, so each entry of gamma + 1 is a digit in base ``radix``
        radix = 2 + max(int(weight.max(initial=0)) for _, weight in labels.values())
        roots = 1 + max(int(root.max(initial=0)) for root, _ in labels.values())
    if labels is None or roots * radix**d >= 2**62:
        return {(k, n): np.zeros(dims[n] * comb(d, k), dtype=np.int64)
                for k, n in spaces}
    ids = {}
    for k, n in spaces:
        root, weight = labels[n]
        digits = weight[:, None, :] - _subset_rows(d, k)[None, :, :] + 1
        ids[(k, n)] = (root[:, None] * radix**d
                       + digits @ radix ** np.arange(d, dtype=np.int64)).reshape(-1)
    return ids


@dataclass(frozen=True)
class GammaClasses:
    """The classes of one space H_n (x) Lambda^k, as a padded member table."""

    ids: np.ndarray       # (u,) class ids, ascending
    members: np.ndarray   # (u, width) flat indices of each class, ascending, -1 padded

    @classmethod
    def of(cls, class_id):
        order = np.argsort(class_id, kind="stable")
        ids, starts, sizes = np.unique(class_id[order], return_index=True,
                                       return_counts=True)
        pos = np.arange(sizes.max(initial=0))
        inside = pos < sizes[:, None]
        members = np.where(inside, order[starts[:, None] + np.where(inside, pos, 0)], -1)
        return cls(ids, members)


@dataclass(frozen=True)
class GammaBlocks:
    """B_k(n) on the classes its domain and codomain share, as one stack.

    Block j maps class ``col_class[j]`` of (k, n) to class ``row_class[j]``
    of (k + 1, n + 1); its rows and columns follow the padded member tables
    of those classes, and the padding rows and columns are zero, which
    leaves every rank, product and norm of the block as it is.
    """

    row_class: np.ndarray   # (c,) positions in the codomain's GammaClasses
    col_class: np.ndarray   # (c,) positions in the domain's GammaClasses
    values: np.ndarray      # (c, codomain width, domain width)


def _gamma_blocks(blocks, k, dom, cod):
    """B_k(n) = sum_i T_i(n) (x) C_i between the common classes of ``dom`` and ``cod``.

    ``blocks`` is the (d, h_{n+1}, h_n) stack of the T_i(n).  Each entry is
    gathered as sign * T_i(n)[a, b], with i the one variable (if any) whose
    creation matrix links the two subsets, so it equals the Kronecker entry
    exactly.
    """
    sign, var = _creation_links(blocks.shape[0], k)
    lam_hi, lam_lo = sign.shape
    _, at_cod, at_dom = np.intersect1d(cod.ids, dom.ids, assume_unique=True,
                                       return_indices=True)
    rows = cod.members[at_cod][:, :, None]
    cols = dom.members[at_dom][:, None, :]
    a, s_hi = np.divmod(rows, lam_hi)
    b, s_lo = np.divmod(cols, lam_lo)
    values = sign[s_hi, s_lo] * blocks[var[s_hi, s_lo], a, b]
    return GammaBlocks(at_cod, at_dom, np.where((rows >= 0) & (cols >= 0), values, 0))


def _top_singular(stack):
    """Largest spectral norm over a (c, m, p) stack of blocks; 0 when empty."""
    if stack.size == 0:
        return 0.0
    return float(np.linalg.svd(stack, compute_uv=False)[:, 0].max())


def _adjoint(stack):
    return stack.conj().transpose(0, 2, 1)


@dataclass(frozen=True)
class KoszulComplex:
    """The Koszul complex of a graded tuple, held on its gamma-blocks.

    ``classes[(k, n)]`` partitions the flat basis of H_n (x) Lambda^k into
    classes, and ``boundary[(k, n)]`` holds B_k(n) as the stack of its blocks
    between equal classes of (k, n) and (k + 1, n + 1); every entry outside
    those blocks is exactly zero.  A class present on one side only is a run
    of zero rows or columns and has no block.
    """

    d: int
    level_dims: dict
    boundary: dict       # (form degree k, level n) -> GammaBlocks of B_k(n)
    top_level: int
    classes: dict        # (form degree k, level n) -> GammaClasses
    _ranks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def boundary_block(self, k, n):
        """B_k(n) as a dense matrix, assembled from its gamma-blocks."""
        gamma = self.boundary[(k, n)]
        rows = self.classes[(k + 1, n + 1)].members[gamma.row_class][:, :, None]
        cols = self.classes[(k, n)].members[gamma.col_class][:, None, :]
        rows, cols = np.broadcast_arrays(rows, cols)
        keep = (rows >= 0) & (cols >= 0)
        out = np.zeros((self.form_dim(k + 1, n + 1), self.form_dim(k, n)),
                       dtype=complex)
        out[rows[keep], cols[keep]] = gamma.values[keep]
        return out

    def boundary_rank(self, k, n):
        """Numerical rank of B_k(n), computed once; 0 where no block is stored."""
        if (k, n) not in self._ranks:
            gamma = self.boundary.get((k, n))
            self._ranks[(k, n)] = 0 if gamma is None else linalg.numerical_rank(gamma.values)
        return self._ranks[(k, n)]

    def form_dim(self, k, n):
        return self.level_dims[n] * comb(self.d, k)

    def interior(self, k, n):
        return 0 <= n and n + k <= self.top_level - 1

    def bsquared_residual(self):
        """max || B_{k+1}(n+1) B_k(n) || over interior pairs; 0 by anticommutation.

        The product is the stack of products of the two maps' blocks on each
        class of (k + 1, n + 1) that both of them meet.
        """
        worst = 0.0
        for (k, n), lower in self.boundary.items():
            upper = self.boundary.get((k + 1, n + 1))
            if upper is None or not self.interior(k + 1, n + 1):
                continue
            _, at_lower, at_upper = np.intersect1d(
                lower.row_class, upper.col_class, assume_unique=True,
                return_indices=True)
            worst = max(worst, _top_singular(
                upper.values[at_upper] @ lower.values[at_lower]))
        return worst


def build_koszul(ops, commute_tol=EXACT_TOL):
    """Assemble the Koszul complex of a commuting degree-1 tuple on its gamma-blocks.

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
    classes = {space: GammaClasses.of(ids)
               for space, ids in _class_ids(ops, d, dims).items()}
    boundary = {}
    for n in range(top):
        if n not in dims or (n + 1) not in dims:
            continue
        blocks = [op.blocks.get(n) for op in ops]
        if any(b is None for b in blocks):
            continue
        blocks = np.stack(blocks)
        for k in range(d):
            boundary[(k, n)] = _gamma_blocks(blocks, k, classes[(k, n)],
                                             classes[(k + 1, n + 1)])
    return KoszulComplex(d, dims, boundary, top, classes)


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


def _level_terms(ops, n):
    """F(n) and the starred commutators [T_k*, T_j](n) on level n.

    F = T_1 T_1* + ... + T_d T_d* is taken on level n - 1 blocks; entry
    (k - 1) d + (j - 1) of the (d^2, h, h) commutator stack is
    T_k(n)* T_j(n) - T_j(n-1) T_k(n-1)*.
    """
    d = len(ops)
    up = np.stack([op.blocks[n] for op in ops])
    comm = _adjoint(up)[:, None] @ up[None, :]
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


@lru_cache(maxsize=None)
def _form_terms(d, k):
    """The nonzero C_k* C_j on Lambda^k, as (index into ``_level_terms``, matrix).

    C_k* C_j vanishes identically on Lambda^d, so form degree d has none.
    """
    if k == d:
        return ()
    terms = []
    for kk in range(1, d + 1):
        for jj in range(1, d + 1):
            product = creation_matrix(d, k, kk).T @ creation_matrix(d, k, jj)
            if product.any():
                product.setflags(write=False)
                terms.append(((kk - 1) * d + (jj - 1), product))
    return tuple(terms)


def dirac_square_residual(complex_, ops, level):
    """Residual of D^2 = F (x) 1 + sum_{k,j} [T_k*, T_j] (x) C_k* C_j at one level.

    D = B + B* preserves (form degree, level) and the classes, so at every
    interior form degree of the given level both sides are compared on each
    class: B*B + BB* from the gamma-blocks of the two boundary maps that
    meet there, the right-hand side gathered from the level and form terms
    by index arrays.  The worst spectral-norm deviation is returned.  F is
    T_1 T_1* + ... + T_d T_d*.
    """
    d = complex_.d
    dims = complex_.level_dims
    n = int(level)
    if n not in dims or not complex_.interior(0, n):
        raise ValueError(f"level {n} is not interior to the stored window")
    f_level, comm = _level_terms(ops, n)

    worst = 0.0
    for k in range(d + 1):
        if not complex_.interior(k, n):
            continue
        members = complex_.classes[(k, n)].members
        width = members.shape[1]
        lhs = np.zeros((members.shape[0], width, width), dtype=complex)
        if (k, n) in complex_.boundary:
            gamma = complex_.boundary[(k, n)]
            lhs[gamma.col_class] += _adjoint(gamma.values) @ gamma.values
        if (k - 1, n - 1) in complex_.boundary:
            gamma = complex_.boundary[(k - 1, n - 1)]
            lhs[gamma.row_class] += gamma.values @ _adjoint(gamma.values)
        vec, sub = np.divmod(members, comb(d, k))
        vr, vc = vec[:, :, None], vec[:, None, :]
        sr, sc = sub[:, :, None], sub[:, None, :]
        rhs = f_level[vr, vc] * (sr == sc)
        for t, form in _form_terms(d, k):
            rhs += comm[t][vr, vc] * form[sr, sc]
        rhs[(vr < 0) | (vc < 0)] = 0
        worst = max(worst, _top_singular(lhs - rhs))
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
