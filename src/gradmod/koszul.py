"""Truncated Koszul complex on its gamma-blocks: Betti ranks, Dirac square, syzygies.

For a commuting degree-1 tuple T_1, ..., T_d the boundary operator is
B = T_1 (x) C_1 + ... + T_d (x) C_d on H (x) Lambda E, where the C_i are
creation operators on the exterior algebra of a d-dimensional space.  The
tuple is a dict holding, for each level n, one (d, h_{n+1}, h_n) array whose
entry [i-1] is T_i(n), as ``coordinate_tuple`` returns it.  Form
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

The input checks and the right-hand side of D^2 run on the same labels.  The
classes of form degree 0 are the level classes, and each T_i(n) is held as
the zero-padded stack of its blocks from level class L to L + e_i
(``KoszulComplex.level_blocks``), 1 x 1 on a standard module.  Where the
labels hold, that stack is T_i(n) with its rows and columns permuted and
zeros added.  So the tuple's scale is the largest block norm, each
commutator T_j T_k - T_k T_j is checked block by block, and the entries of
F and of [T_k*, T_j] that D^2 reads are formed only between level classes
L and L + e_j - e_k.  A tuple without labels has one class per level, and
the same code runs on its dense blocks.

Every reported quantity is restricted to interior (level, form-degree) pairs
with n + k <= N - 1, so no block ever touches truncated data.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from . import linalg
from .config import EXACT_TOL, SPAN_TOL


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

    ``ops`` maps each level n to the (d, h_{n+1}, h_n) stack of the T_i(n).
    Returns ``{n: (root, weight)}``: an (h_n,) int array naming the piece
    each basis vector hangs from and an (h_n, d) int array of weights, such
    that every nonzero entry of every T_i(n) sends (root, w) to
    (root, w + e_i).  Levels are labelled upwards: a basis vector that no
    nonzero entry reaches starts a new root at weight 0, any other takes the
    label its entries give it.  Returns None when two entries disagree.
    """
    d = ops[min(ops)].shape[0]
    labels = {}
    roots = 0
    for n in sorted(set(ops) | {n + 1 for n in ops}):
        size = ops[n].shape[2] if n in ops else ops[n - 1].shape[1]
        root = np.full(size, -1, dtype=np.int64)
        weight = np.zeros((size, d), dtype=np.int64)
        if n - 1 in ops:
            below_root, below_weight = labels[n - 1]
            var, rows, cols = np.nonzero(ops[n - 1])
            got_root = below_root[cols]
            got_weight = below_weight[cols]
            got_weight[np.arange(var.size), var] += 1
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


def _class_ids(labels, d, dims):
    """Class id of every flat basis index of every space (k, n), one id space.

    The id of (root, gamma) is a number in base ``radix`` with one digit
    gamma_i + 1 per variable, so adding e_i to gamma adds ``steps[i]`` to the
    id.  A tuple without labels, or one with too many classes to number in
    62 bits, gets id 0 everywhere and steps 0.  Returns (ids, steps).
    """
    spaces = [(k, n) for n in sorted(dims) for k in range(d + 1)]
    if labels is not None:
        # weights are >= 0, so each entry of gamma + 1 is a digit in base ``radix``
        radix = 2 + max(int(weight.max(initial=0)) for _, weight in labels.values())
        roots = 1 + max(int(root.max(initial=0)) for root, _ in labels.values())
    if labels is None or roots * radix**d >= 2**62:
        return ({(k, n): np.zeros(dims[n] * comb(d, k), dtype=np.int64)
                 for k, n in spaces}, np.zeros(d, dtype=np.int64))
    steps = radix ** np.arange(d, dtype=np.int64)
    ids = {}
    for k, n in spaces:
        root, weight = labels[n]
        digits = weight[:, None, :] - _subset_rows(d, k)[None, :, :] + 1
        ids[(k, n)] = (root[:, None] * radix**d + digits @ steps).reshape(-1)
    return ids, steps


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


def _locate(classes, ids):
    """Position of each of ``ids`` among the classes; -1 where no class has it.

    Every digit of a level class's id is at least 1, so an id shifted by a
    step off the range of weights has a digit 0 and matches no level class.
    """
    known = classes.ids
    if known.size == 0:
        return np.full(np.shape(ids), -1)
    at = np.minimum(np.searchsorted(known, ids), known.size - 1)
    return np.where(known[at] == ids, at, -1)


def _level_blocks(blocks, steps, dom, cod):
    """The T_i(n) between level classes, as one zero-padded (d, u + 1, w', w) stack.

    ``blocks`` is the (d, h_{n+1}, h_n) stack of the T_i(n), ``dom`` and
    ``cod`` are the level classes of n and n + 1 (the classes of form
    degree 0).  Entry [i, p] is the block of T_i(n) from class p to class
    p + e_i, rows and columns following the padded member tables; it is zero
    where level n + 1 has no class p + e_i.  The extra last block is zero,
    so position -1, an absent class, reads zeros.  Where the labels hold,
    every nonzero entry of T_i(n) lies in one of its blocks, so they form a
    permutation of T_i(n) padded with zeros: the same norms and products.
    """
    d = blocks.shape[0]
    target = _locate(cod, dom.ids + steps[:, None])
    members = np.vstack([cod.members, np.full((1, cod.members.shape[1]), -1)])
    rows = members[target][:, :, :, None]
    cols = dom.members[None, :, None, :]
    values = np.where((rows >= 0) & (cols >= 0),
                      blocks[np.arange(d)[:, None, None, None], rows, cols], 0)
    pad = np.zeros((d, 1) + values.shape[2:], dtype=values.dtype)
    return np.concatenate([values, pad], axis=1)


def _adjoint(stack):
    return np.swapaxes(stack.conj(), -1, -2)


@dataclass(frozen=True)
class KoszulComplex:
    """The Koszul complex of a graded tuple, held on its gamma-blocks.

    ``classes[(k, n)]`` partitions the flat basis of H_n (x) Lambda^k into
    classes, and ``boundary[(k, n)]`` holds B_k(n) as the stack of its blocks
    between equal classes of (k, n) and (k + 1, n + 1); every entry outside
    those blocks is exactly zero.  A class present on one side only is a run
    of zero rows or columns and has no block.  The classes of form degree 0
    are the level classes, and ``level_blocks[n]`` holds every T_i(n) on
    them (``_level_blocks``); ``steps[i]`` is the id shift of e_i.
    """

    d: int
    level_dims: dict
    boundary: dict       # (form degree k, level n) -> GammaBlocks of B_k(n)
    top_level: int
    classes: dict        # (form degree k, level n) -> GammaClasses
    level_blocks: dict   # level n -> (d, u_n + 1, w_{n+1}, w_n) stack of the T_i(n)
    steps: np.ndarray    # (d,) class id shift of e_i; 0 for a tuple without labels
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
            worst = max(worst, linalg.opnorm(
                upper.values[at_upper] @ lower.values[at_lower]))
        return worst

    def tuple_norm(self):
        """max ||T_i(n)|| over the stored levels: the largest norm of a level-class block."""
        return max((linalg.opnorm(stack[:, :-1])
                    for stack in self.level_blocks.values()), default=0.0)

    def commutation_residual(self):
        """max || T_j(n+1) T_k(n) - T_k(n+1) T_j(n) || over j < k: 0 for a commuting tuple.

        The commutator sends level class p to p + e_j + e_k through
        T_j(n+1)[p + e_k] T_k(n)[p] - T_k(n+1)[p + e_j] T_j(n)[p], so its
        norm is the largest over those blocks.
        """
        j, k = np.triu_indices(self.d, 1)
        worst = 0.0
        for n, low in self.level_blocks.items():
            high = self.level_blocks.get(n + 1)
            if high is None:
                continue
            target = _locate(self.classes[(0, n + 1)],
                             self.classes[(0, n)].ids + self.steps[:, None])
            low = low[:, :-1]
            delta = (high[j[:, None], target[k]] @ low[k]
                     - high[k[:, None], target[j]] @ low[j])
            worst = max(worst, linalg.opnorm(delta))
        return worst

    def _level_terms(self, n):
        """F(n) and the starred commutators [T_k*, T_j](n), as one stack by level class.

        Entry 0 is F = T_1 T_1* + ... + T_d T_d* (taken on level n - 1
        blocks), entry 1 + (k - 1) d + (j - 1) is [T_k*, T_j].  Each is
        indexed by the level class p of its columns.  F(n)[p] is its block
        on class p, and the commutator holds at p the block from class p to
        class p + e_j - e_k,
        T_k(n)[p + e_j - e_k]* T_j(n)[p] - T_j(n-1)[p - e_k] T_k(n-1)[p - e_k]*;
        it has no other nonzero blocks, and none are formed.
        """
        d, var = self.d, np.arange(self.d)
        level = self.classes[(0, n)]
        up = self.level_blocks[n]
        across = _locate(level, level.ids + (self.steps - self.steps[:, None])[:, :, None])
        comm = _adjoint(up[var[:, None, None], across]) @ up[None, :, :-1]
        f_level = np.zeros(comm.shape[2:], dtype=complex)
        if n >= 1:
            # [i, k, p] = T_i(n-1)[p - e_k]
            below = self.level_blocks[n - 1][
                :, _locate(self.classes[(0, n - 1)], level.ids - self.steps[:, None])]
            outer = below.swapaxes(0, 1) @ _adjoint(below[var, var])[:, None]
            comm -= outer
            f_level = outer[var, var].sum(axis=0)
        return np.concatenate([f_level[None], comm.reshape(d * d, *comm.shape[2:])])


def build_koszul(ops):
    """Assemble the Koszul complex of a commuting degree-1 tuple on its gamma-blocks.

    ``ops`` maps each level n to the (d, h_{n+1}, h_n) stack of the T_i(n)
    (``StandardModule.coordinate_tuple``, ``QuotientModule.coordinate_tuple``).
    The labels are read once (``node_labels``).  The T_i(n) are gathered
    onto the level classes, and the input checks run there: the tuple's
    scale is ``tuple_norm`` and its commutators are checked block by block
    (``KoszulComplex.commutation_residual``).  Raises ValueError when the
    levels are not exactly 0..N-1, when two stacks disagree on the shape of
    a level they share, or when the blocks fail to commute within EXACT_TOL
    (relative to the largest block norm).
    """
    if not ops:
        raise ValueError("need at least one level")
    if sorted(ops) != list(range(len(ops))):
        raise ValueError(f"levels must be 0..{len(ops) - 1}, got {sorted(ops)}")
    d = ops[0].shape[0]
    if d < 1:
        raise ValueError("need at least one operator")
    dims = {n: stack.shape[2] for n, stack in ops.items()}
    for n, stack in ops.items():
        rows = dims.setdefault(n + 1, stack.shape[1])
        if stack.shape[0] != d or stack.shape[1] != rows:
            raise ValueError(
                f"inconsistent stack shapes: level {n} is {stack.shape}, "
                f"level {n + 1} has dimension {dims[n + 1]}")
    top = max(dims)
    ids, steps = _class_ids(node_labels(ops), d, dims)
    classes = {space: GammaClasses.of(space_ids) for space, space_ids in ids.items()}
    level_blocks, boundary = {}, {}
    for n in sorted(ops):
        level_blocks[n] = _level_blocks(ops[n], steps, classes[(0, n)],
                                        classes[(0, n + 1)])
        for k in range(d):
            boundary[(k, n)] = _gamma_blocks(ops[n], k, classes[(k, n)],
                                             classes[(k + 1, n + 1)])
    complex_ = KoszulComplex(d, dims, boundary, top, classes, level_blocks, steps)
    scale = complex_.tuple_norm() or 1.0
    resid = complex_.commutation_residual()
    if resid > EXACT_TOL * max(scale**2, 1.0):
        raise ValueError(
            f"tuple does not commute: residual {resid:.3e}")
    return complex_


def betti_table(complex_):
    """Cohomology dimensions per (form degree, level) at interior pairs.

    Entry (k, n) is dim ker B_k(n) - rank B_{k-1}(n-1); the boundary maps
    below level 0, below form degree 0 and from form degree d are zero
    (``boundary_rank`` reads 0 where no block is stored).  Raises when
    the window leaves no interior pair for some form degree.
    """
    levels = range(complex_.top_level)
    for k in range(complex_.d + 1):
        if not any(complex_.interior(k, n) for n in levels):
            raise ValueError(
                f"window too small: no interior level at form degree {k}")
    table = {}
    for n in levels:
        for k in range(complex_.d + 1):
            if not complex_.interior(k, n):
                continue
            table[(k, n)] = int(complex_.form_dim(k, n)
                                - complex_.boundary_rank(k, n)
                                - complex_.boundary_rank(k - 1, n - 1))
    return table


def betti_numbers(complex_):
    """Aggregate Betti vector (beta_0, ..., beta_d) over the level window."""
    table = betti_table(complex_)
    beta = [0] * (complex_.d + 1)
    for (k, _), dim in table.items():
        beta[k] += dim
    return tuple(beta)


@lru_cache(maxsize=None)
def _form_terms(d, k):
    """The form factors on Lambda^k of the level terms, and which are nonzero.

    Factor 0 is the identity (for F), factor 1 + (k - 1) d + (j - 1) is
    C_k* C_j.  Returns the indices of the nonzero factors and their stack;
    C_k* C_j vanishes identically on Lambda^d, which keeps only F.
    """
    products = np.stack([np.eye(comb(d, k))]
                        + [creation_matrix(d, k, kk).T @ creation_matrix(d, k, jj)
                           for kk in range(1, d + 1) for jj in range(1, d + 1)])
    index = np.flatnonzero(products.any(axis=(1, 2)))
    forms = products[index]
    index.setflags(write=False)
    forms.setflags(write=False)
    return index, forms


def dirac_square_residual(complex_, level):
    """Residual of D^2 = F (x) 1 + sum_{k,j} [T_k*, T_j] (x) C_k* C_j at one level.

    D = B + B* preserves (form degree, level) and the classes, so at every
    interior form degree of the given level both sides are compared on each
    class: B*B + BB* from the gamma-blocks of the two boundary maps that
    meet there, the right-hand side gathered by index arrays from the level
    terms (``KoszulComplex._level_terms``, formed block by level class) and
    the form terms.  A member (v, S) of class gamma has v in the level class
    gamma + 1_S, so the entries read join level classes p and
    p + e_j - e_k, the blocks the level terms hold.  The worst
    spectral-norm deviation is returned.  F is T_1 T_1* + ... + T_d T_d*.
    """
    d = complex_.d
    n = int(level)
    if n not in complex_.level_dims or not complex_.interior(0, n):
        raise ValueError(f"level {n} is not interior to the stored window")
    terms = complex_._level_terms(n)
    terms = terms.reshape(terms.shape[0], -1)
    # where each level-n basis vector sits in a flat (level class, row slot,
    # column slot) stack of the level terms: as a column and as a row
    level = complex_.classes[(0, n)].members
    width_n = level.shape[1]
    cls, slot = np.nonzero(level >= 0)
    offset = np.zeros((2, complex_.level_dims[n]), dtype=np.int64)
    offset[:, level[cls, slot]] = cls * width_n**2 + slot, slot * width_n

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
        as_col, as_row = offset[:, vec]
        at = as_row[:, :, None] + as_col[:, None, :]
        index, forms = _form_terms(d, k)
        rhs = (terms[index[:, None, None, None], at]
               * forms[:, sub[:, :, None], sub[:, None, :]]).sum(axis=0)
        rhs[(members[:, :, None] < 0) | (members[:, None, :] < 0)] = 0
        worst = max(worst, linalg.opnorm(lhs - rhs))
    return worst


def solve_syzygy(ops, xi, level):
    """Antisymmetric eta with xi_k = sum_j T_j eta_{jk}, minimal norm.

    Parameters
    ----------
    ops : commuting degree-1 tuple, {n: (d, h_{n+1}, h_n) stack}
    xi : list of d level-``level`` coordinate vectors with sum_k T_k xi_k = 0
    level : homogeneous degree n of the input

    Returns (eta, residual): eta maps ordered pairs (j, k) to level n-1
    vectors with eta_{jk} = -eta_{kj} exactly by construction, and residual
    is the relative reconstruction error.  Degree-0 input must be zero and
    yields the zero certificate.
    """
    n = int(level)
    if n not in ops:
        raise ValueError(
            f"level {n} has no exact blocks above it; cannot certify kernel membership")
    d, _, h_n = ops[n].shape
    xi = [np.asarray(x, dtype=complex).reshape(-1) for x in xi]
    if len(xi) != d:
        raise ValueError("need one component per operator")
    if any(x.size != h_n for x in xi):
        raise ValueError("components must live on the stated level")
    scale = max(max((float(np.linalg.norm(x)) for x in xi)), 1.0)
    in_kernel = sum(ops[n][k] @ xi[k] for k in range(d))
    if float(np.linalg.norm(in_kernel)) > SPAN_TOL * scale:
        raise ValueError("input is not in the kernel of the row map")
    pairs = [(j, k) for j in range(1, d + 1) for k in range(j + 1, d + 1)]
    if n == 0:
        eta = {(j, k): np.zeros(0, dtype=complex)
               for j in range(1, d + 1) for k in range(1, d + 1)}
        return eta, 0.0

    below = ops[n - 1]
    h_prev = below.shape[2]
    big = np.zeros((d * h_n, len(pairs) * h_prev), dtype=complex)
    for col, (a, b) in enumerate(pairs):
        sl = slice(col * h_prev, (col + 1) * h_prev)
        # eta_{ab} feeds +T_a into equation b and -T_b into equation a
        big[(b - 1) * h_n:b * h_n, sl] = below[a - 1]
        big[(a - 1) * h_n:a * h_n, sl] = -below[b - 1]
    target = np.concatenate(xi)
    sol = np.linalg.lstsq(big, target, rcond=None)[0]
    eta = {(j, j): np.zeros(h_prev, dtype=complex) for j in range(1, d + 1)}
    for col, (a, b) in enumerate(pairs):
        vec = sol[col * h_prev:(col + 1) * h_prev]
        eta[(a, b)] = vec
        eta[(b, a)] = -vec
    residual = float(np.linalg.norm(big @ sol - target)) / scale
    return eta, residual
