"""Euler candidates of exact rank: the test oracle for the wide-block rule.

``submodules.euler_candidates`` returns the whole level wherever the
d dim(prev) candidate columns could fill it, and the recursions solve their
nullspaces on that superspace of C_n = sum_k Z_k span(prev).  This oracle
keeps C_n itself: the U of numpy's SVD of the stacked Z_k prev, cut at its
own numerical rank, and the identity only where C_n fills the level.
``exact_candidates_in`` runs the package's recursions on it.
"""

import contextlib

import numpy as np

from gradmod import linalg, linearize, submodules


def exact_candidates(module, prev, n):
    """Orthonormal basis of C_n by the plain SVD; the identity when C_n fills level n."""
    dim = module.level_dim(n)
    block = np.hstack([module.shift(k, n - 1, prev) for k in range(1, module.d + 1)])
    if block.shape[1] == 0:
        return np.zeros((dim, 0), dtype=complex)
    u, s, _ = np.linalg.svd(block, full_matrices=False)
    cand = u[:, :linalg._kept(s)]
    return np.eye(dim, dtype=complex) if cand.shape[1] == dim else cand


@contextlib.contextmanager
def exact_candidates_in(monkeypatch):
    """Within the block, ``cosaturation`` and ``ev_gradient_levels`` read ``exact_candidates``."""
    with monkeypatch.context() as patch:
        for owner in (submodules, linearize):
            patch.setattr(owner, "euler_candidates", exact_candidates)
        yield
