"""Truncated Koszul complex on its gamma-blocks: Betti ranks, Dirac square, syzygies.

For a commuting degree-1 tuple T_1, ..., T_d the boundary operator is
B = T_1 (x) C_1 + ... + T_d (x) C_d on H (x) Lambda E, where the C_i are
creation operators on the exterior algebra of a d-dimensional space.  The
tuple is a dict holding, for each level n, the nonzero entries of the
(d, h_{n+1}, h_n) stack whose entry [i-1] is T_i(n): their flat indices in
C order and their values (``operators.LevelEntries``, as
``StandardModule.coordinate_entries`` fills them from its index tables).  A
dense stack, as ``coordinate_tuple`` or ``quotient_tuple`` returns it, is
read into its entries once, when the complex is built; no code after that
sees a dense stack.  Form degree k at level n is the space
H_n (x) Lambda^k E, with its flat basis ordered (level vector) major,
(sorted k-subset) minor; the creation sign convention is
(-1)^(number of subset members below the new index).

The complex is stored on its gamma-blocks, never as dense boundary blocks.
A standard tuple commutes with the torus action: Z_i sends z^beta to a
multiple of z^(beta + e_i), so B sends z^beta (x) e_S into
z^(beta + e_i) (x) e_(S + i) and keeps gamma = beta - 1_S fixed.  Every basis
vector of H_n (x) Lambda^k gets the class (root, gamma), where the label
(root, beta) of its level vector is read off the positions of the entries
(``node_labels``): the labels hold when every nonzero entry of every T_i(n)
sends (root, beta) to (root, beta + e_i).  B_k(n), B^2 and
D^2 = (B + B*)^2 then join only basis vectors of one class, so each splits
into blocks of at most C(d, k+1) x C(d, k) where each label names one basis
vector, as on a standard module.  A tuple the labels do not fit, such as a
quotient by generic generators, puts each space in one class; its one
gamma-block per boundary block is the dense block.

The classes of every space are rows of one table ordered by key
(``_class_table``).  The blocks of each B_k(n) are zero-padded to one
shape, the largest class of each side, and the maps whose blocks have one
shape share one stack over all levels (``KoszulComplex.blocks``).  Ranks,
B^2 and D^2 residuals are taken by batched products and SVDs, one pass per
stack or per group of equally shaped blocks, never per (k, n).  Blocks of
different shapes never share a stack, and padding is never added to fit
one: a zero-padded SVD, product or sum can differ in its last bits, so
every block keeps the shape, values and bits it has on its own.  For the
same reason a level or space of one 1 x 1 class is never stacked with
others: numpy adds the terms of a lone entry pairwise, and those of several
entries one after the other.  A rank
counts the singular values of B_k(n) above RANK_TOL_FACTOR times the
largest over all of its blocks, so it is the rank of the assembled block;
the cut and the triangle route (``linalg.numerical_rank``) are still taken
per map, as is each residual's Frobenius certificate (``linalg.residual``).
``boundary_block`` assembles a dense B_k(n) only on request.  A pass takes
at most CHUNK_ENTRIES entries at once, so its temporaries stay near those
of one level on large inputs.

The gamma-blocks and the level blocks below are filled by looking their
entries up among the stored ones of all levels at once
(``LevelEntries.join``, ``LevelEntries.read``): each is one stored value or
0, the bits of the dense entry (an exact zero reads as +0), and the padding
is not looked up.  The input checks and the right-hand side of D^2 run on
the same labels.  The classes of form degree 0 are the level classes, and
each T_i(n) is held as the zero-padded stack of its blocks from level class
L to L + e_i (``KoszulComplex.level_blocks``), 1 x 1 on a standard module.
Where the labels hold, that stack is T_i(n) with its rows and columns
permuted and zeros added.  So the tuple's scale is the largest block norm,
each commutator T_j T_k - T_k T_j is checked block by block, and the
entries of F and of [T_k*, T_j] that D^2 reads are formed only between
level classes L and L + e_j - e_k.  A tuple without labels has one class
per level, and the same code runs on its dense blocks.  The right-hand side
of D^2 reads, for each pair of Lambda^k subsets, only the at most 1 + d - k
level terms whose form factor is nonzero there (``_form_links``).

Every reported quantity is restricted to interior (level, form-degree) pairs
with n + k <= N - 1, so no block ever touches truncated data, and only the
boundary maps those pairs read are built: B_k(n) for k < d and
n + k <= N - 1, about half of the domain of the whole truncated boundary at
d = 4.  ``boundary_rank`` and ``boundary_block`` refuse any other nonzero map.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from . import linalg
from .config import EXACT_TOL, SPAN_TOL
from .linalg import _starts
from .operators import LevelEntries

# A grouped pass takes as many whole maps, levels or spaces at once as keep
# its stack within this many entries, and one at least.  At 2^16 the stacks
# of ``koszul --d 4 --N 12`` and of a d = 3 quotient at N = 16 take one pass
# each, and the traced peak of ``koszul --d 4 --N 18`` stays within 2% of
# that of one pass per (k, n).
CHUNK_ENTRIES = 1 << 16


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


@lru_cache(maxsize=None)
def _link_table(d):
    """``_creation_links`` of every form degree k < d, flattened end to end.

    Returns (start, sign, var): the link of form degree k between subsets
    S' and S sits at start[k] + S' C(d, k) + S.
    """
    links = [_creation_links(d, k) for k in range(d)]
    start = np.cumsum([0] + [sign.size for sign, _ in links[:-1]])
    sign = np.concatenate([sign.ravel() for sign, _ in links])
    var = np.concatenate([var.ravel() for _, var in links])
    for table in (start, sign, var):
        table.setflags(write=False)
    return start, sign, var


def _as_entries(ops):
    """{n: LevelEntries} of a tuple: each dense stack read once, entries kept as they are."""
    return {n: level if isinstance(level, LevelEntries) else LevelEntries.of(level)
            for n, level in ops.items()}


def node_labels(ops):
    """Torus labels of the level basis vectors, read off the nonzero entries.

    ``ops`` maps each level n to the entries of the T_i(n) (``LevelEntries``)
    or to their dense (d, h_{n+1}, h_n) stack.  Returns
    ``{n: (root, weight)}``: an (h_n,) int array naming the piece each basis
    vector hangs from and an (h_n, d) int array of weights, such that every
    nonzero entry of every T_i(n) sends (root, w) to (root, w + e_i).
    Levels are labelled upwards: a basis vector that no nonzero entry
    reaches starts a new root at weight 0, any other takes the label its
    entries give it.  Returns None when two entries disagree.
    """
    ops = _as_entries(ops)
    d = ops[min(ops)].shape[0]
    labels = {}
    roots = 0
    for n in sorted(set(ops) | {n + 1 for n in ops}):
        size = ops[n].shape[2] if n in ops else ops[n - 1].shape[1]
        root = np.full(size, -1, dtype=np.int64)
        weight = np.zeros((size, d), dtype=np.int64)
        if n - 1 in ops:
            below_root, below_weight = labels[n - 1]
            var, rows, cols = np.unravel_index(ops[n - 1].flat, ops[n - 1].shape)
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


def _ranges(starts, counts):
    """The ranges starts[i], ..., starts[i] + counts[i] - 1, end to end."""
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    return np.repeat(starts - _starts(counts), counts) + np.arange(counts.sum())


def _chunks(runs, size):
    """Consecutive runs, as many at a time as hold at most CHUNK_ENTRIES entries, one at least.

    ``runs`` counts the blocks of each run and ``size`` the entries of one
    block.  Returns a list of (runs slice, blocks slice).
    """
    edges = [0] + np.cumsum(runs, dtype=np.int64).tolist()
    cuts = [0]
    for i in range(1, len(edges) - 1):
        if (edges[i + 1] - edges[cuts[-1]]) * size > CHUNK_ENTRIES:
            cuts.append(i)
    cuts.append(len(edges) - 1)
    return [(slice(lo, hi), slice(edges[lo], edges[hi]))
            for lo, hi in zip(cuts, cuts[1:]) if hi > lo]


@dataclass(frozen=True)
class GammaClasses:
    """The classes of one space H_n (x) Lambda^k: rows start, start + 1, ... of the class table."""

    start: int            # position of its first class in the table
    ids: np.ndarray       # (u,) class keys, ascending
    members: np.ndarray   # (u, width) flat indices of each class, ascending, -1 padded


def _class_table(labels, d, dims, spaces):
    """Every class of every space of ``spaces`` (sorted), in one table of ascending keys.

    Space (k, n) owns the keys from (k (N + 2) + n) span on, N the top
    level.  A basis vector's key adds the id of its class (root, gamma):
    root radix^d plus one digit gamma_i + 1 in base ``radix`` per variable.
    So an id is below span = roots radix^d, adding e_i to gamma adds
    steps[i] = radix^i, the class of the same id one level up is span
    further, and the class B_k(n) maps it into is (N + 3) span further.  A
    tuple without labels, or one with too many classes to number in 62
    bits, gets one class per space: span 1 and steps 0.  The keys of each
    chunk of spaces are sorted at once, stably, so a class lists its
    members in ascending order.

    Returns (keys, members, classes, steps, span): keys (C,) ascending;
    members (C + 1, width) the flat indices of each class in its space, -1
    padded to the widest class, and a last row of -1 that no class owns;
    classes {space: GammaClasses}.
    """
    top = max(dims)
    steps, span = np.zeros(d, dtype=np.int64), 1
    if labels is not None:
        # weights are >= 0, so each entry of gamma + 1 is a digit in base ``radix``
        radix = 2 + max(int(weight.max(initial=0)) for _, weight in labels.values())
        roots = 1 + max(int(root.max(initial=0)) for root, _ in labels.values())
        if (d + 1) * (top + 2) * roots * radix**d < 2**62:
            steps, span = radix ** np.arange(d, dtype=np.int64), roots * radix**d
        else:
            labels = None
    lam = np.array([comb(d, k) for k in range(d + 1)], dtype=np.int64)
    first_vec = _starts([dims[n] for n in range(top + 1)])
    first_sub = _starts(lam)
    if labels is None:
        vec_id = np.zeros(sum(dims.values()), dtype=np.int64)
        sub_id = np.zeros(lam.sum(), dtype=np.int64)
    else:
        # the id of (root, beta - 1_S) is that of (root, beta) less that of 1_S
        vec_id = np.concatenate([labels[n][0] * radix**d + (labels[n][1] + 1) @ steps
                                 for n in range(top + 1)])
        sub_id = np.concatenate([_subset_rows(d, k) @ steps for k in range(d + 1)])
    space_k, space_n = np.array(spaces, dtype=np.int64).reshape(-1, 2).T
    sizes = np.array([dims[n] for n in space_n.tolist()], dtype=np.int64) * lam[space_k]
    base = (space_k * (top + 2) + space_n) * span
    keys, counts, members = [], [], []
    for part, _ in _chunks(sizes, 1):
        if not sizes[part].any():
            continue
        space = np.repeat(np.arange(part.start, part.stop), sizes[part])
        flat = np.arange(space.size) - np.repeat(_starts(sizes[part]), sizes[part])
        vec, sub = np.divmod(flat, lam[space_k[space]])
        key = (base[space] + vec_id[first_vec[space_n[space]] + vec]
               - sub_id[first_sub[space_k[space]] + sub])
        order = np.argsort(key, kind="stable")
        key = key[order]
        head = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1]]))
        count = np.diff(np.append(head, key.size))
        pos = np.arange(count.max())
        inside = pos < count[:, None]
        keys.append(key[head])
        counts.append(count)
        members.append(np.where(inside, flat[order][head[:, None] + np.where(inside, pos, 0)],
                                -1).astype(np.int32))
    width = max((table.shape[1] for table in members), default=0)
    members = np.concatenate(
        [np.pad(table, ((0, 0), (0, width - table.shape[1])), constant_values=-1)
         for table in members] + [np.full((1, width), -1, dtype=np.int32)])
    keys = np.concatenate(keys) if keys else np.zeros(0, dtype=np.int64)
    counts = np.concatenate(counts) if counts else np.zeros(0, dtype=np.int64)
    start, stop = np.searchsorted(keys, np.stack([base, base + span]))
    widths = np.zeros(len(spaces), dtype=np.int64)
    filled = stop > start
    if filled.any():
        widths[filled] = np.maximum.reduceat(counts, start[filled])
    classes = {space: GammaClasses(lo, keys[lo:hi], members[lo:hi, :w])
               for space, lo, hi, w in zip(spaces, start.tolist(), stop.tolist(),
                                           widths.tolist())}
    return keys, members, classes, steps, span


def _take(stack, at):
    """stack[at] for ascending positions ``at``: a view when they are consecutive."""
    if at.size and at[-1] - at[0] == at.size - 1:
        return stack[at[0]:at[-1] + 1]
    return stack[at]


def _filled(rows, cols):
    """Where blocks with the member lists ``rows`` and ``cols`` have entries.

    A boolean mask of their broadcast shape, or ``...`` (every position)
    when no member is padding; the padding reads zero.
    """
    filled = (rows >= 0) & (cols >= 0)
    return Ellipsis if filled.all() else filled


def _locate(keys, query):
    """Position of each of ``query`` among the class keys; -1 where no class has it.

    Every digit of a level class's id is at least 1, so a key shifted by a
    step off the range of weights has a digit 0 and matches no level class.
    """
    if keys.size == 0:
        return np.full(np.shape(query), -1)
    at = np.minimum(np.searchsorted(keys, query), keys.size - 1)
    return np.where(keys[at] == query, at, -1)


@dataclass(frozen=True)
class BlockGroup:
    """Equally shaped blocks of several maps, in one stack.

    Map maps[i] holds the next runs[i] blocks.  ``cols`` names the class (a
    row of the class table) whose members index each block's columns and,
    for a boundary group, ``rows`` the class of its rows.
    """

    values: np.ndarray
    maps: tuple
    runs: np.ndarray
    cols: np.ndarray
    rows: np.ndarray = None


def _stack_of(groups):
    """{map: index of the stack of ``groups`` that holds it}."""
    return {key: i for i, group in enumerate(groups) for key in group.maps}


@dataclass(frozen=True)
class GammaBlocks:
    """B_k(n) on the classes its domain and codomain share: views into its ``BlockGroup``.

    Block j maps class ``col_class[j]`` of (k, n) to class ``row_class[j]``
    of (k + 1, n + 1), both rows of the class table; its rows and columns
    follow the padded member tables of those classes, and the padding rows
    and columns are zero, which leaves every rank, product and norm of the
    block as it is.
    """

    row_class: np.ndarray   # (c,) codomain classes
    col_class: np.ndarray   # (c,) domain classes
    values: np.ndarray      # (c, codomain width, domain width)


def _level_blocks(entries, offsets, dims, keys, members, classes, steps, span):
    """The T_i(n) between level classes, one zero-padded stack per block shape.

    ``entries`` holds every level's T_i(n) end to end, level n from
    offsets[n] on, and ``dims`` the level dimensions.  The level classes are
    the classes of form degree 0.  The block of T_i(n) from class p to
    class p + e_i (key span + steps[i] further), rows and columns following
    the member tables, is zero where level n + 1 has no class p + e_i.  The
    levels whose blocks have one shape (w_{n+1}, w_n) share one
    (d, classes + 1, w_{n+1}, w_n) stack, their classes in level order; its
    last block is zero, so the position past the classes reads zeros.
    Where the labels hold, every nonzero entry of T_i(n) lies in one of its
    blocks, so they form a permutation of T_i(n) padded with zeros: the
    same norms and products.

    Returns (groups, at): the BlockGroups, and at[g] the position of level
    class g in its group's stack.
    """
    d = steps.size
    shapes = {}
    for n in range(len(offsets)):
        shape = (classes[(0, n + 1)].members.shape[1], classes[(0, n)].members.shape[1])
        shapes.setdefault(shape, []).append(n)
    top = classes[(0, len(offsets))]
    at = np.zeros(top.start + top.ids.size, dtype=np.int64)
    var = np.arange(d)[:, None, None, None]
    groups = []
    for (w_up, w), levels in shapes.items():
        runs = np.array([classes[(0, n)].ids.size for n in levels], dtype=np.int64)
        cols = _ranges([classes[(0, n)].start for n in levels], runs)
        level = np.repeat(levels, runs)
        at[cols] = np.arange(cols.size)
        values = np.zeros((d, cols.size + 1, w_up, w), dtype=entries.values.dtype)
        for _, part in _chunks(runs, d * w_up * w):
            target = _locate(keys, keys[cols[part]] + span + steps[:, None])
            rows = members[target, :w_up][:, :, :, None]
            col = members[cols[part], :w][None, :, None, :]
            n = level[part][None, :, None, None]
            key = offsets[n] + (var * dims[n + 1] + rows) * dims[n] + col
            filled = _filled(rows, col)
            values[:, part][filled] = entries.read(key[filled])
        groups.append(BlockGroup(values, tuple(levels), runs, cols))
    return tuple(groups), at


def _gamma_blocks(entries, offsets, dims, keys, members, classes, stored, shift, d):
    """B_k(n) = sum_i T_i(n) (x) C_i for every (k, n) of ``stored``, one stack per block shape.

    ``entries``, ``offsets`` and ``dims`` are as in ``_level_blocks``.  A
    class of (k, n) meets the class of (k + 1, n + 1) whose key is ``shift``
    further, if there is one, and B_k(n) has one block per such pair, in
    the order of its domain classes.  Each entry is read as
    sign * T_i(n)[a, b], with i the one variable (if any) whose creation
    matrix links the two subsets, so it equals the Kronecker entry exactly.
    The maps whose blocks have one shape share one stack, in the order of
    ``stored``.

    Returns (groups, boundary): the BlockGroups, and {(k, n): GammaBlocks}
    in the order of ``stored``, views into them.
    """
    link_start, link_sign, link_var = _link_table(d)
    lam = np.array([comb(d, k) for k in range(d + 1)], dtype=np.int64)
    degree, level = np.array(stored, dtype=np.int64).reshape(-1, 2).T
    count = np.array([classes[space].ids.size for space in stored], dtype=np.int64)
    dom = _ranges([classes[space].start for space in stored], count)
    cod = _locate(keys, keys[dom] + shift)
    matched = cod >= 0
    owner = np.repeat(np.arange(len(stored)), count)[matched]
    dom, cod = dom[matched], cod[matched]
    runs = np.bincount(owner, minlength=len(stored))
    shapes = {}
    for i, (k, n) in enumerate(stored):
        shape = (classes[(k + 1, n + 1)].members.shape[1], classes[(k, n)].members.shape[1])
        shapes.setdefault(shape, []).append(i)
    groups, boundary = [], {}
    for (w_up, w), maps in shapes.items():
        blocks = _ranges(_starts(runs)[maps], runs[maps])
        rows, cols = cod[blocks], dom[blocks]
        values = np.zeros((blocks.size, w_up, w),
                          dtype=np.result_type(link_sign, entries.values))
        for _, part in _chunks(runs[maps], w_up * w):
            row = members[rows[part], :w_up][:, :, None]
            col = members[cols[part], :w][:, None, :]
            k = degree[owner[blocks[part]]][:, None, None]
            n = level[owner[blocks[part]]][:, None, None]
            a, s_hi = np.divmod(row, lam[k + 1])
            b, s_lo = np.divmod(col, lam[k])
            link = link_start[k] + s_hi * lam[k] + s_lo
            key = offsets[n] + (link_var[link] * dims[n + 1] + a) * dims[n] + b
            filled = _filled(row, col)
            link, key = link[filled], key[filled]
            values[part][filled] = link_sign[link] * entries.read(key)
        group = BlockGroup(values, tuple(stored[i] for i in maps), runs[maps], cols, rows)
        groups.append(group)
        for space, lo, hi in zip(group.maps, _starts(group.runs).tolist(),
                                 np.cumsum(group.runs).tolist()):
            boundary[space] = GammaBlocks(rows[lo:hi], cols[lo:hi], values[lo:hi])
    return tuple(groups), {space: boundary[space] for space in stored}


@dataclass(frozen=True)
class KoszulComplex:
    """The Koszul complex of a graded tuple, held on its gamma-blocks.

    The classes of every space the complex touches are rows of one table
    (``_class_table``): ``keys`` ascending, ``members`` their member lists,
    ``classes[(k, n)]`` the slice of H_n (x) Lambda^k, for the spaces the
    stored blocks touch, every interior space and every level.
    ``boundary[(k, n)]`` holds B_k(n) as its blocks between equal classes of
    (k, n) and (k + 1, n + 1), for the pairs the reports read: 0 <= k < d
    and n + k <= N - 1 (``build_koszul``); every entry outside those blocks
    is exactly zero.  A class present on one side only is a run of zero
    rows or columns and has no block.  The blocks of all maps of one shape
    are one stack of ``blocks``, and the T_i(n) between level classes, the
    classes of form degree 0, are the stacks of ``level_blocks``
    (``_level_blocks``).
    """

    d: int
    level_dims: dict
    top_level: int
    keys: np.ndarray         # (C,) class keys, ascending
    members: np.ndarray      # (C + 1, width) member lists; the last row, all -1, is no class
    classes: dict            # (form degree k, level n) -> GammaClasses
    steps: np.ndarray        # (d,) key shift of e_i; 0 for a tuple without labels
    span: int                # key shift from a class to the class one level up
    blocks: tuple            # BlockGroup of the stored B_k(n), one per block shape
    boundary: dict           # (k, n) -> GammaBlocks of B_k(n), views into ``blocks``
    level_blocks: tuple      # BlockGroup of the T_i(n), one per block shape
    level_at: np.ndarray     # position of each level class in its ``level_blocks`` stack
    _ranks: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _stored(self, k, n):
        """The gamma-blocks of B_k(n); None for the zero maps at k < 0, n < 0 and k = d.

        Raises ValueError for a nonzero map the complex does not store.
        """
        if k < 0 or n < 0 or k == self.d:
            return None
        if (k, n) not in self.boundary:
            raise ValueError(f"B_{k}({n}) is not stored: only 0 <= k < {self.d} "
                             f"with n + k <= {self.top_level - 1} are")
        return self.boundary[(k, n)]

    def boundary_block(self, k, n):
        """B_k(n) as a dense matrix, assembled from its gamma-blocks (``_stored``)."""
        gamma = self._stored(k, n)
        out = np.zeros((self.form_dim(k + 1, n + 1), self.form_dim(k, n)),
                       dtype=complex)
        if gamma is None:
            return out
        rows = self.members[gamma.row_class, :gamma.values.shape[1]][:, :, None]
        cols = self.members[gamma.col_class, :gamma.values.shape[2]][:, None, :]
        rows, cols = np.broadcast_arrays(rows, cols)
        keep = (rows >= 0) & (cols >= 0)
        out[rows[keep], cols[keep]] = gamma.values[keep]
        return out

    def boundary_rank(self, k, n):
        """Numerical rank of B_k(n).

        0 for the zero maps at k < 0, n < 0 and k = d; ValueError for a
        nonzero map the complex does not store (``_stored``).  The first
        call ranks every stored map, one ``linalg.numerical_rank`` per stack
        of ``blocks``, each map cut at its own largest singular value.
        """
        if self._stored(k, n) is None:
            return 0
        if not self._ranks:
            for group in self.blocks:
                ranks = linalg.numerical_rank(group.values, group.runs)
                self._ranks.update(zip(group.maps, ranks.tolist()))
        return self._ranks[(k, n)]

    def form_dim(self, k, n):
        """dim H_n (x) Lambda^k: 0 outside form degrees 0..d and the stored levels."""
        return self.level_dims.get(n, 0) * comb(self.d, k) if 0 <= k <= self.d else 0

    def interior(self, k, n):
        return 0 <= n and n + k <= self.top_level - 1

    def _ranged(self, spaces):
        """The classes of ``spaces``, end to end, and how many each space has."""
        counts = np.array([self.classes[space].ids.size for space in spaces], dtype=np.int64)
        return _ranges([self.classes[space].start for space in spaces], counts), counts

    def _blocks_at(self, side):
        """(stack, position) of the block whose ``side`` ("rows" or "cols") follows each class.

        -1 where no stored block does.
        """
        stack = np.full(self.keys.size, -1, dtype=np.int32)
        at = np.full(self.keys.size, -1, dtype=np.int32)
        for i, group in enumerate(self.blocks):
            classes = getattr(group, side)
            stack[classes] = i
            at[classes] = np.arange(classes.size)
        return stack, at

    def bsquared_residual(self, bound):
        """max || B_{k+1}(n+1) B_k(n) || over interior pairs, and ``bound``; 0 by anticommutation.

        A stored B_{k+1}(n+1) is interior.  On each class of (k + 1, n + 1)
        that both maps meet, the product is the upper block times the lower
        one.  The products of every pair of stacks are one stack, and each
        pair of maps is one run of its ``linalg.residual``.
        """
        stack_of, at = self._blocks_at("cols")
        stacks = _stack_of(self.blocks)
        values = []
        for lower in self.blocks:
            upper_stack = stack_of[lower.rows]
            owner = np.repeat(np.arange(len(lower.maps)), lower.runs)
            for i in sorted({stacks[(k + 1, n + 1)] for k, n in lower.maps
                             if (k + 1, n + 1) in stacks}):
                upper = self.blocks[i].values
                pick = np.flatnonzero(upper_stack == i)
                runs = np.bincount(owner[pick], minlength=len(lower.maps))
                for part, blocks in _chunks(runs, upper.shape[1] * lower.values.shape[2]):
                    prod = upper[at[lower.rows[pick[blocks]]]] @ lower.values[pick[blocks]]
                    values.append(linalg.residual(prod, bound, runs[part]))
        return linalg.largest(np.concatenate(values) if values else [], bound)

    def tuple_norm(self):
        """max ||T_i(n)|| over the stored levels: the largest norm of a level-class block."""
        return linalg.largest([linalg.opnorm(group.values[:, :-1].swapaxes(0, 1), group.runs)
                               for group in self.level_blocks], 0.0)

    def commutation_residual(self, bound):
        """max || T_j(n+1) T_k(n) - T_k(n+1) T_j(n) || over j < k, and ``bound``: 0 if commuting.

        The commutator sends level class p to p + e_j + e_k through
        T_j(n+1)[p + e_k] T_k(n)[p] - T_k(n+1)[p + e_j] T_j(n)[p], so its
        norm is the largest over those blocks.  The levels whose blocks and
        those one level up share their stacks are one stack of commutator
        blocks, each level one run of its ``linalg.residual``.
        """
        j, k = np.triu_indices(self.d, 1)
        stack_of = _stack_of(self.level_blocks)
        pairs = {}
        for n in sorted(stack_of):
            if n + 1 in stack_of:
                pairs.setdefault((stack_of[n], stack_of[n + 1]), []).append(n)
        values = []
        for (lo, hi), levels in pairs.items():
            low, high = self.level_blocks[lo].values, self.level_blocks[hi].values
            level, runs = self._ranged([(0, n) for n in levels])
            for part, blocks in _chunks(runs, j.size * high.shape[2] * low.shape[3]):
                cls = level[blocks]
                target = _locate(self.keys, self.keys[cls] + self.span + self.steps[:, None])
                target = np.where(target >= 0, self.level_at[target], high.shape[1] - 1).T
                at = self.level_at[cls][:, None]
                delta = (high[j, target[:, k]] @ low[k, at]
                         - high[k, target[:, j]] @ low[j, at])
                values.append(linalg.residual(delta, bound, runs[part]))
        return linalg.largest(np.concatenate(values) if values else [], bound)


def build_koszul(ops):
    """Assemble the Koszul complex of a commuting degree-1 tuple on its gamma-blocks.

    ``ops`` maps each level n to the nonzero entries of the T_i(n)
    (``LevelEntries``, as ``StandardModule.coordinate_entries`` gives them)
    or to their dense (d, h_{n+1}, h_n) stack (``coordinate_tuple``,
    ``GradedSubmodule.quotient_tuple``), which is read into its entries here
    once; nothing below sees a dense stack.  The labels are read once
    (``node_labels``) and the classes of every space sorted into one table
    (``_class_table``).  The T_i(n) are gathered onto the level classes, and
    the input checks run there: the tuple's scale is ``tuple_norm`` and its
    commutators are checked block by block
    (``KoszulComplex.commutation_residual``).  Gamma-blocks are built only
    for the pairs the reports read, 0 <= k < d with n + k <= N - 1
    (``betti_table``, ``dirac_square_residuals``, ``bsquared_residual``),
    and class tables only for the spaces those blocks touch, every interior
    space (the D^2 right-hand sides) and every level (the input checks).
    Raises ValueError when the levels are not exactly 0..N-1, when two
    levels disagree on the shape of a level they share, when an entry is NaN
    or infinite, or when the blocks fail to commute within EXACT_TOL
    (relative to the largest block norm).
    """
    if not ops:
        raise ValueError("need at least one level")
    if sorted(ops) != list(range(len(ops))):
        raise ValueError(f"levels must be 0..{len(ops) - 1}, got {sorted(ops)}")
    ops = _as_entries(ops)
    d = ops[0].shape[0]
    if d < 1:
        raise ValueError("need at least one operator")
    dims = {n: level.shape[2] for n, level in ops.items()}
    for n, level in ops.items():
        rows = dims.setdefault(n + 1, level.shape[1])
        if level.shape[0] != d or level.shape[1] != rows:
            raise ValueError(
                f"inconsistent stack shapes: level {n} is {level.shape}, "
                f"level {n + 1} has dimension {dims[n + 1]}")
        if not np.isfinite(level.values).all():
            raise ValueError(f"non-finite entry in the level {n} blocks")
    top = max(dims)
    interior = [(k, n) for n in sorted(ops) for k in range(d + 1) if n + k <= top - 1]
    stored = [(k, n) for k, n in interior if k < d]
    spaces = sorted({(0, n) for n in dims} | set(interior)
                    | {(k + 1, n + 1) for k, n in stored})
    keys, members, classes, steps, span = _class_table(node_labels(ops), d, dims, spaces)
    # popped, so that the levels' own entries are let go once joined
    entries, offsets = LevelEntries.join([ops.pop(n) for n in range(len(ops))])
    level_dims = np.array([dims[n] for n in range(top + 1)], dtype=np.int64)
    level_blocks, level_at = _level_blocks(entries, offsets, level_dims, keys, members,
                                           classes, steps, span)
    blocks, boundary = _gamma_blocks(entries, offsets, level_dims, keys, members, classes,
                                     stored, (top + 3) * span, d)
    complex_ = KoszulComplex(d, dims, top, keys, members, classes, steps, span, blocks,
                             boundary, level_blocks, level_at)
    scale = complex_.tuple_norm() or 1.0
    tol = EXACT_TOL * max(scale**2, 1.0)
    resid = complex_.commutation_residual(tol)
    if resid > tol:
        raise ValueError(
            f"tuple does not commute: residual {resid:.3e}")
    return complex_


def betti_table(complex_):
    """Cohomology dimensions per (form degree, level) at interior pairs.

    Entry (k, n) is dim ker B_k(n) - rank B_{k-1}(n-1); the boundary maps
    below level 0, below form degree 0 and from form degree d are zero
    (``boundary_rank`` reads 0 there), and every other map it reads is
    stored.  Raises when the window leaves no interior pair for some form
    degree.
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


def betti_numbers(table):
    """Aggregate Betti vector (beta_0, ..., beta_d) of a ``betti_table``.

    A ``betti_table`` has an entry at every form degree 0..d, so d is its
    largest form degree.
    """
    beta = [0] * (max(k for k, _ in table) + 1)
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


@lru_cache(maxsize=None)
def _form_links(d, k):
    """The level terms whose form factor on Lambda^k is nonzero, per pair of subsets.

    Returns (terms, factors), two (1 + d - k, C(d, k)^2) arrays that hold at
    [:, S' C(d, k) + S] the indices of the level terms whose factor
    (``_form_terms``) is nonzero at (S', S), in ascending order, and those
    factors, each +-1.  The diagonal links F and the d - k terms C_j* C_j
    with j not in S; an off-diagonal pair links at most the one C_k* C_j
    with S' = S + j - k.  Shorter lists are padded with term 0 and factor 0.
    """
    index, forms = _form_terms(d, k)
    forms = forms.reshape(len(forms), -1)
    linked = forms != 0
    slot = np.cumsum(linked, axis=0) - 1
    at, pair = np.nonzero(linked)
    terms = np.zeros((1 + d - k, forms.shape[1]), dtype=np.int64)
    factors = np.zeros(terms.shape)
    terms[slot[at, pair], pair] = index[at]
    factors[slot[at, pair], pair] = forms[at, pair]
    terms.setflags(write=False)
    factors.setflags(write=False)
    return terms, factors


def _level_terms(complex_, levels):
    """F(n) and the starred commutators [T_k*, T_j](n) of ``levels``, block by level class.

    Entry 0 is F = T_1 T_1* + ... + T_d T_d* (taken on level n - 1
    blocks), entry 1 + (k - 1) d + (j - 1) is [T_k*, T_j].  Each is indexed
    by the level class p of its columns.  F(n)[p] is its block on class p,
    and the commutator holds at p the block from class p to class
    p + e_j - e_k,
    T_k(n)[p + e_j - e_k]* T_j(n)[p] - T_j(n-1)[p - e_k] T_k(n-1)[p - e_k]*;
    it has no other nonzero blocks, and none are formed.  The levels whose
    blocks, and blocks one level down, share their stacks are formed as one
    stack.

    Returns (terms, offset, first): terms (1 + d^2, entries) holds every
    block flattened, class after class; a basis vector v of level n is
    vector first[n] + v of offset (2, vectors), and entry (a, b) of a term
    on the class of b sits at offset[0, b] + offset[1, a].
    """
    d, var = complex_.d, np.arange(complex_.d)
    keys, at, span, steps = complex_.keys, complex_.level_at, complex_.span, complex_.steps
    stack_of = _stack_of(complex_.level_blocks)
    kinds = {}
    for n in levels:
        # a level of one 1 x 1 class is formed alone: numpy sums the d terms of
        # F pairwise for a lone entry, and one after the other for several
        level = complex_.classes[(0, n)]
        lone = level.ids.size * level.members.shape[1] ** 2 == 1
        kinds.setdefault((stack_of[n], stack_of[n - 1] if n else None, n if lone else None),
                         []).append(n)
    first = np.zeros(complex_.top_level + 1, dtype=np.int64)
    first[levels] = _starts([complex_.level_dims[n] for n in levels])
    offset = np.zeros((2, sum(complex_.level_dims[n] for n in levels)), dtype=np.int64)
    terms, filled = [], 0
    for (here, down, _), group in kinds.items():
        up = complex_.level_blocks[here].values
        cls, counts = complex_._ranged([(0, n) for n in group])
        # [k, j, p]: the class p + e_j - e_k
        across = _locate(keys, keys[cls] + (steps - steps[:, None])[:, :, None])
        across = np.where(across >= 0, at[across], up.shape[1] - 1)
        comm = linalg.adjoint(up[var[:, None, None], across]) @ up[:, at[cls]][None]
        if down is None:
            f_level = np.zeros(comm.shape[2:], dtype=complex)
        else:
            below = complex_.level_blocks[down].values
            # [i, k, p] = T_i(n-1)[p - e_k]
            below_at = _locate(keys, keys[cls] - span - steps[:, None])
            below = below[:, np.where(below_at >= 0, at[below_at], below.shape[1] - 1)]
            outer = below.swapaxes(0, 1) @ linalg.adjoint(below[var, var])[:, None]
            comm -= outer
            f_level = outer[var, var].sum(axis=0)
        block = np.concatenate([f_level[None], comm.reshape(d * d, *comm.shape[2:])])
        terms.append(block.reshape(len(block), -1))
        # where each basis vector sits in the flat blocks: as a column, at its
        # class's block plus its slot; as a row, at its slot times the width
        width = up.shape[3]
        row, slot = np.nonzero(complex_.members[cls, :width] >= 0)
        vec = (first[np.repeat(group, counts)[row]]
               + complex_.members[cls[row], slot])
        offset[:, vec] = filled + row * width**2 + slot, slot * width
        filled += terms[-1].shape[1]
    return (terms[0] if len(terms) == 1 else np.concatenate(terms, axis=1)), offset, first


def _right_side(terms, offset, first, members, d, k):
    """The right-hand side of D^2 on classes of form degree k with member lists ``members``.

    ``terms`` and ``offset`` are as ``_level_terms`` returns them, and
    first[c] is where the basis vectors of the level of class c begin in
    ``offset``.  Each entry is gathered by index arrays from the level terms
    whose form factor links the two subsets (``_form_links``), summed in
    ascending term order; a term with a zero form factor would add an exact
    zero, so it is not read.  Returns a (classes, width, width) stack, rows
    and columns following the member lists, padding zero.
    """
    vec, sub = np.divmod(members, comb(d, k))
    as_col, as_row = offset[:, first[:, None] + vec]
    filled = _filled(members[:, :, None], members[:, None, :])
    at = (as_row[:, :, None] + as_col[:, None, :])[filled]
    pair = (sub[:, :, None] * comb(d, k) + sub[:, None, :])[filled]
    links, factors = _form_links(d, k)
    # (links, entries), C-contiguous, so the sum adds the links one after the
    # other, as on the whole blocks of one space; an index mixing a slice with
    # arrays would put the links innermost, and numpy would sum them pairwise,
    # as it does for a lone entry
    rhs = (terms[np.take(links, pair, axis=1), at]
           * np.take(factors, pair, axis=1)).sum(axis=0)
    if filled is Ellipsis:
        return rhs
    out = np.zeros(filled.shape, dtype=rhs.dtype)
    out[filled] = rhs
    return out


def _dirac_sides(complex_):
    """Both sides of D^2 on the classes of every interior space, one pair of stacks per group.

    D = B + B* preserves (form degree, level) and the classes.  The left
    side on a class is B*B + BB* from the blocks of the two boundary maps
    that meet there, each product taken on a stack of ``blocks`` at once;
    the right side is gathered from the level terms (``_right_side``).  A
    member (v, S) of class gamma has v in the level class gamma + 1_S, so
    the entries read join level classes p and p + e_j - e_k, the blocks the
    level terms hold.  The levels are taken in chunks whose two sides hold
    at most CHUNK_ENTRIES entries, and the spaces of one chunk with one form
    degree and class width are one group.

    Yields (spaces, lhs, rhs): the group's spaces (k, n), and two
    (classes, width, width) stacks over their classes, space after space,
    rows and columns following the member lists, padding zero.
    """
    d = complex_.d
    levels = [n for n in range(complex_.top_level) if complex_.interior(0, n)]
    spaces = {n: [(k, n) for k in range(d + 1) if complex_.interior(k, n)] for n in levels}
    width = {space: complex_.classes[space].members.shape[1]
             for n in levels for space in spaces[n]}
    # the entries of both sides of each level's spaces
    sizes = [sum(2 * complex_.classes[space].ids.size * width[space] ** 2 for space in spaces[n])
             for n in levels]
    stacks = _stack_of(complex_.blocks)
    # B*B on the classes B_k(n) leaves, then BB* on those B_{k-1}(n-1)
    # enters: in this order, 0 + B*B + BB* has the per-level bits
    sides = ((0, lambda x: linalg.adjoint(x) @ x, complex_._blocks_at("cols")),
             (1, lambda x: x @ linalg.adjoint(x), complex_._blocks_at("rows")))
    for part, _ in _chunks(sizes, 1):
        terms, offset, first = _level_terms(complex_, levels[part])
        groups = {}
        for n in levels[part]:
            for k, _ in spaces[n]:
                # a space of one 1 x 1 class is a group of its own: numpy sums
                # the terms of a lone entry pairwise, of several one by one
                w = width[(k, n)]
                lone = complex_.classes[(k, n)].ids.size * w * w == 1
                groups.setdefault((k, w, n if lone else None), []).append((k, n))
        for (k, w, _), group in groups.items():
            cls, counts = complex_._ranged(group)
            rhs = _right_side(terms, offset, first[np.repeat([n for _, n in group], counts)],
                              complex_.members[cls, :w], d, k)
            lhs = np.zeros(rhs.shape, dtype=complex)
            for down, square, (stack_of, block_at) in sides:
                maps = [(k - down, n - down) for _, n in group]
                stack = stack_of[cls]
                for i in sorted({stacks[space] for space in maps if space in stacks}):
                    pick = np.flatnonzero(stack == i)
                    lhs[pick] += square(_take(complex_.blocks[i].values, block_at[cls[pick]]))
            yield group, lhs, rhs


def dirac_square_residuals(complex_, bound):
    """Residual of D^2 = F (x) 1 + sum_{k,j} [T_k*, T_j] (x) C_k* C_j at every interior level.

    Both sides are compared on every class of every interior space
    (``_dirac_sides``), and the worst spectral-norm deviation over the
    form degrees of a level is its residual, as a ``linalg.residual``
    against ``bound``: each space is one run of its group's residual.  F is
    T_1 T_1* + ... + T_d T_d*.  Returns {n: residual} over the levels n
    with (0, n) interior, ascending.
    """
    levels, values = [], []
    for spaces, lhs, rhs in _dirac_sides(complex_):
        runs = [complex_.classes[space].ids.size for space in spaces]
        levels += [n for _, n in spaces]
        values.append(linalg.residual(np.subtract(lhs, rhs, out=lhs), bound, runs))
    levels, values = np.array(levels), np.concatenate(values)
    return {n: linalg.largest(values[levels == n], bound) for n in sorted(set(levels.tolist()))}


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
    yields the zero certificate.  A NaN or infinite entry of ``xi`` raises
    ValueError.
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
    if not all(np.isfinite(x).all() for x in xi):
        raise ValueError("non-finite entry in xi")
    scale = max(max((float(np.linalg.norm(x)) for x in xi)), 1.0)
    in_kernel = sum(ops[n][k] @ xi[k] for k in range(d))
    if not float(np.linalg.norm(in_kernel)) <= SPAN_TOL * scale:
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
