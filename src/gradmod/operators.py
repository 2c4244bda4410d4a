"""The layout of a degree-1 operator tuple, dense or as level entries.

A tuple T_1, ..., T_d of degree-1 graded operators is a plain dict that maps
each stored level n to one array of shape (d, dim level n+1, dim level n),
complex (real for a Fock tuple), whose entry [k-1] is the block T_k(n).  The
producers are ``StandardModule.coordinate_tuple``,
``StandardModule.fock_tuple`` and ``GradedSubmodule.quotient_tuple``; the
consumers (``koszul.solve_syzygy``, and in ``normality``
``self_commutators``, ``schatten_report`` and the identity checks
``row_sum_residual``, ``commutator_decomposition_residual`` and
``compression_identity_residuals``) read the stacks as they are.

``koszul.build_koszul`` reads each level as its nonzero entries instead
(``LevelEntries``): a Z_k(n) block has one nonzero per column, so
``StandardModule.coordinate_entries`` fills them straight from its tables
and no dense stack is built; a dense stack is read by ``LevelEntries.of``.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LevelEntries:
    """The nonzero entries of one level's (d, h_{n+1}, h_n) stack of the T_i(n).

    ``flat`` holds their flat indices into the stack in C order, ascending
    (the order of ``np.nonzero``), and ``values`` the entries themselves.
    """

    shape: tuple
    flat: np.ndarray     # (m,) int64, ascending
    values: np.ndarray   # (m,)

    @classmethod
    def of(cls, stack):
        """The entries of a dense stack, found by ``np.flatnonzero``."""
        stack = np.asarray(stack)
        flat = np.flatnonzero(stack)
        return cls(stack.shape, flat, stack.reshape(-1)[flat])

    def read(self, *index):
        """Entries at the index arrays ``index``, one per axis, broadcast; 0 where none is stored.

        A negative index counts from the end, as in numpy indexing.  Each
        result is one stored value or 0, so it has the dense entry's bits
        (an exact zero reads as +0).
        """
        key = np.ravel_multi_index(index, self.shape, mode="wrap")
        if self.flat.size == 0:
            return np.zeros(key.shape, dtype=self.values.dtype)
        at = np.searchsorted(self.flat, key)
        return np.where(self.flat.take(at, mode="clip") == key,
                        self.values.take(at, mode="clip"), 0)

    @classmethod
    def join(cls, levels):
        """The entries of several stacks as one flat stack, laid end to end.

        Returns (entries, offsets): ``entries`` has shape (total size,), and
        the entry at flat index f of ``levels[i]`` sits at offsets[i] + f.
        """
        sizes = [int(np.prod(level.shape)) for level in levels]
        offsets = np.cumsum([0] + sizes[:-1], dtype=np.int64)
        flat = np.concatenate([level.flat + offset for level, offset in zip(levels, offsets)])
        values = np.concatenate([level.values for level in levels])
        return cls((sum(sizes),), flat, values), offsets
