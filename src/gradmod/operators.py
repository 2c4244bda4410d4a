"""Graded block operators stored level by level.

A degree-s graded operator is stored as a map ``level n -> dense block`` of
shape (dim level n+s) x (dim level n), for the levels where the block is
known exactly.  ``GradedOperator`` is only that container: every identity
the toolkit checks is formed from the stored blocks as plain level matrices,
on levels where each factor is truncation-free.
"""

import numpy as np


class GradedOperator:
    """Block operator of fixed degree between graded Hilbert spaces.

    Parameters
    ----------
    shift : int
        Degree: blocks map level n into level n + shift.
    blocks : dict
        ``{n: ndarray}`` with consistent shapes; only stored levels are exact.
    """

    __slots__ = ("shift", "blocks")

    def __init__(self, shift, blocks):
        self.shift = int(shift)
        self.blocks = {int(n): np.asarray(b, dtype=complex)
                       for n, b in blocks.items()}

    def levels(self):
        return sorted(self.blocks)

    def block(self, n):
        try:
            return self.blocks[n]
        except KeyError:
            raise KeyError(f"no exact block at level {n}") from None

    def level_norm(self, n):
        b = self.block(n)
        return 0.0 if b.size == 0 else float(np.linalg.norm(b, 2))

    def sup_norm(self, levels=None):
        """Largest block spectral norm over the given (default: all stored) levels."""
        if levels is None:
            levels = self.levels()
        norms = [self.level_norm(n) for n in levels]
        return max(norms) if norms else 0.0


def tuple_level_dims(ops):
    """Level dimensions implied by a tuple of degree-1 operators with equal windows."""
    dims = {}
    for op in ops:
        if op.shift != 1:
            raise ValueError("expected degree-1 operators")
        for n, b in op.blocks.items():
            for level, size in ((n, b.shape[1]), (n + 1, b.shape[0])):
                if dims.setdefault(level, size) != size:
                    raise ValueError("inconsistent block shapes across the tuple")
    return dims


def commutation_residual(ops):
    """max_n || T_j(n+1) T_k(n) - T_k(n+1) T_j(n) || over all pairs: 0 for a commuting tuple."""
    worst = 0.0
    for j in range(len(ops)):
        for k in range(j + 1, len(ops)):
            for n in ops[k].levels():
                if n + 1 not in ops[j].blocks:
                    continue
                delta = ops[j].block(n + 1) @ ops[k].block(n) \
                    - ops[k].block(n + 1) @ ops[j].block(n)
                if delta.size:
                    worst = max(worst, float(np.linalg.norm(delta, 2)))
    return worst
