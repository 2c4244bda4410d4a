"""Dense structure maps and Kronecker blocks: the test oracle for the level operators.

The package applies Z_k, Z_k*, the row operator L, L* and d/dz_k as gathers
and scatters on one successor table per level.  This module builds the same
operators the way the package once stored them: 0/1 and derivative
coefficient matrices enumerated monomial by monomial, scaled by the Fock
weights or the monomial norms, and tensored with I_r by ``np.kron``.  It
shares only the level bases and the module's weight data (``rho``, ``nu``,
``monomial_norms``) with the package, and none of its operators.  The row-sum
and commutator-decomposition residuals are also evaluated here, on these
blocks.
"""

import numpy as np

from gradmod import monomial_basis


def _index(d, n):
    return {alpha: i for i, alpha in enumerate(monomial_basis(d, n).monomials)}


def mult_structure_map(k, d, n):
    """Coefficient matrix of multiplication by z_k from level n to level n+1.

    ``k`` is the 1-based variable index.  The matrix is 0/1: monomial alpha
    maps to alpha + e_k.
    """
    if not 1 <= k <= d:
        raise ValueError("variable index out of range")
    src = monomial_basis(d, n).monomials
    dst_index = _index(d, n + 1)
    out = np.zeros((len(dst_index), len(src)))
    for col, alpha in enumerate(src):
        beta = list(alpha)
        beta[k - 1] += 1
        out[dst_index[tuple(beta)], col] = 1.0
    return out


def derivative_structure_map(k, d, n):
    """Coefficient matrix of d/dz_k from level n to level n-1.

    The column of alpha carries the coefficient alpha_k at alpha - e_k and is
    zero when alpha_k = 0.  Requires n >= 1.
    """
    if not 1 <= k <= d:
        raise ValueError("variable index out of range")
    if n < 1:
        raise ValueError("nothing to differentiate at level 0")
    src = monomial_basis(d, n).monomials
    dst_index = _index(d, n - 1)
    out = np.zeros((len(dst_index), len(src)))
    for col, alpha in enumerate(src):
        if alpha[k - 1] == 0:
            continue
        beta = list(alpha)
        beta[k - 1] -= 1
        out[dst_index[tuple(beta)], col] = float(alpha[k - 1])
    return out


def fock_level_weights(d, top_level):
    """nu_alpha from sum_k S_k S_k* = I - E_0, one monomial at a time.

    For |beta| >= 1, nu_beta = 1 / sum_{k: beta_k >= 1} (1 / nu_{beta - e_k}),
    summed in ascending k, anchored at nu_0 = 1.
    """
    levels = [np.ones(1)]
    index_prev = {tuple([0] * d): 0}
    for n in range(1, top_level + 1):
        basis = monomial_basis(d, n)
        nu = np.empty(len(basis))
        index_now = {}
        for i, beta in enumerate(basis.monomials):
            index_now[beta] = i
            inv = 0.0
            for k in range(d):
                if beta[k] == 0:
                    continue
                gamma = list(beta)
                gamma[k] -= 1
                inv += 1.0 / levels[n - 1][index_prev[tuple(gamma)]]
            nu[i] = 1.0 / inv
        levels.append(nu)
        index_prev = index_now
    return levels


def fock_scalar_block(module, k, n):
    """Real block of the Fock shift S_k from level n to n+1 (r = 1)."""
    raw = mult_structure_map(k, module.d, n)
    scale = np.sqrt(module.nu[n + 1])[:, None] * (1.0 / np.sqrt(module.nu[n]))[None, :]
    return raw * scale


def scalar_block(module, k, n):
    """Real block of Z_k = rho_n S_k from level n to n+1 on the completion (r = 1)."""
    return module.rho[n] * fock_scalar_block(module, k, n)


def fock_block(module, k, n):
    """Dense block of S_k on S from level n to n+1: Fock scalar block (x) I_r."""
    return np.kron(fock_scalar_block(module, k, n),
                   np.eye(module.multiplicity)).astype(complex)


def coordinate_block(module, k, n):
    """Dense block of Z_k on S from level n to n+1: scalar block (x) I_r."""
    return np.kron(scalar_block(module, k, n),
                   np.eye(module.multiplicity)).astype(complex)


def row_sum_residual(module, n, rho):
    """|| sum_k Z_k(n) Z_k(n)* - rho[n]^2 I ||_2 on the Kronecker blocks.

    The Z_k are built from ``module.rho``; ``rho`` is the weight sequence the
    identity is checked against (``module.rho`` for the identity itself).
    """
    acc = sum(blk @ blk.conj().T for blk in
              (coordinate_block(module, k, n) for k in range(1, module.d + 1)))
    return float(np.linalg.norm(acc - rho[n] ** 2 * np.eye(acc.shape[0]), 2))


def commutator_decomposition_residual(module, j, k, n, rho):
    """|| [Z_j*, Z_k] - [S_j*, S_k] rho_n^2 - S_k S_j* (rho_n^2 - rho_{n-1}^2) ||_2 on level n.

    Kronecker blocks on both sides; ``rho`` as in ``row_sum_residual``.
    """
    zj = [coordinate_block(module, j, m) for m in (n - 1, n)]
    zk = [coordinate_block(module, k, m) for m in (n - 1, n)]
    sj = [fock_block(module, j, m) for m in (n - 1, n)]
    sk = [fock_block(module, k, m) for m in (n - 1, n)]
    lhs = zj[1].conj().T @ zk[1] - zk[0] @ zj[0].conj().T
    lower = sk[0] @ sj[0].conj().T
    rhs = (sj[1].conj().T @ sk[1] - lower) * rho[n] ** 2 \
        + lower * (rho[n] ** 2 - rho[n - 1] ** 2)
    return float(np.linalg.norm(lhs - rhs, 2))


def row_block(module, n):
    """Dense block L_n: (d.S)_n -> S_{n+1}; column (monomial, copy i, component)."""
    scalar = np.stack([scalar_block(module, i, n) for i in range(1, module.d + 1)],
                      axis=-1)
    return np.kron(scalar.reshape(scalar.shape[0], -1),
                   np.eye(module.multiplicity)).astype(complex)


def gradient_block(module, k, n):
    """Dense d/dz_k from level n to n-1 in the module's orthonormal level bases."""
    raw = derivative_structure_map(k, module.d, n)
    w_lo = np.sqrt(module.monomial_norms(n - 1))
    w_hi = np.sqrt(module.monomial_norms(n))
    scale = w_lo[:, None] * (1.0 / w_hi)[None, :]
    return np.kron(raw * scale, np.eye(module.multiplicity)).astype(complex)


def gradient_stack(module, n):
    """(d/dz_1, ..., d/dz_d) stacked onto level n-1 of d.S (copy-major d.E)."""
    return np.stack(
        [gradient_block(module, i, n).reshape(module.scalar_dim(n - 1),
                                              module.multiplicity, -1)
         for i in range(1, module.d + 1)],
        axis=1).reshape(module.level_dim(n - 1) * module.d, -1)
