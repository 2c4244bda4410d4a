"""Dense block matrices over a few levels: the test oracle for the level identities.

The package evaluates the compression identities and the self-commutators
one level at a time, on the blocks that feed level n.  This module builds
T_j, P = P_M and P' = 1 - P as dense block matrices on the direct sum of
levels n-1..n+1 (T_j's block out of level n+1 is dropped), forms every
product of the whole matrices, and reads block (n, n).  Block (n, n) of each
product below only passes through levels n-1..n+1, so it is the exact level-n
value.  The T_j are the Kronecker blocks of ``structure_oracle``, and P is
formed from the quotient bases Q_m as I - Q_m Q_m*; nothing else is shared
with the package.
"""

import numpy as np

from structure_oracle import coordinate_block


def _dense(module, submodule, n):
    """(T_1..T_d, P, P', slice of level n) on levels max(n-1, 0)..n+1."""
    levels = list(range(max(n - 1, 0), n + 2))
    dims = [module.level_dim(m) for m in levels]
    starts = dict(zip(levels, np.cumsum([0] + dims[:-1])))
    total = sum(dims)

    def span(m):
        return slice(starts[m], starts[m] + module.level_dim(m))

    ts = []
    for k in range(1, module.d + 1):
        t = np.zeros((total, total), dtype=complex)
        for m in levels[:-1]:
            t[span(m + 1), span(m)] = coordinate_block(module, k, m)
        ts.append(t)
    p = np.zeros((total, total), dtype=complex)
    if submodule is not None:
        for m in levels:
            q = submodule.quotient_basis(m)
            p[span(m), span(m)] = np.eye(q.shape[0]) - q @ q.conj().T
    return ts, p, np.eye(total) - p, span(n)


def compression_sides(module, submodule, j, k, n):
    """(lhs1, rhs1, lhs2, rhs2): block (n, n) of both compression identities.

    lhs1 = T_j P T_k* P - P T_k* T_j P, which is [B_j, B_k*] P for the
    restrictions B_i of T_i to an invariant M,
    rhs1 = -[P, T_j][P, T_k]* + P [T_j, T_k*] P,
    lhs2 = [C_j, C_k*] P' with C_i = P' T_i P',
    rhs2 = [P, T_k]*[P, T_j] + P' [T_j, T_k*] P'.
    lhs1 - rhs1 = P' T_j P T_k*, which vanishes when T_j maps M into M.
    """
    ts, p, pp, level = _dense(module, submodule, n)
    tj, tk = ts[j - 1], ts[k - 1]
    cj, ck = pp @ tj @ pp, pp @ tk @ pp
    ej, ek = p @ tj - tj @ p, p @ tk - tk @ p
    amb = tj @ tk.conj().T - tk.conj().T @ tj
    sides = (tj @ p @ tk.conj().T @ p - p @ tk.conj().T @ tj @ p,
             -ej @ ek.conj().T + p @ amb @ p,
             (cj @ ck.conj().T - ck.conj().T @ cj) @ pp,
             ek.conj().T @ ej + pp @ amb @ pp)
    return tuple(side[level, level] for side in sides)


def self_commutator_block(module, j, k, n):
    """Block (n, n) of the dense T_j* T_k - T_k T_j*."""
    ts, _, _, level = _dense(module, None, n)
    tj, tk = ts[j - 1], ts[k - 1]
    return (tj.conj().T @ tk - tk @ tj.conj().T)[level, level]
