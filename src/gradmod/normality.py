"""Essential-normality diagnostics for graded operator tuples.

A degree-1 tuple is one (d, h_{n+1}, h_n) stack of the T_k(n) per level n.
Its self-commutators are degree-0, so they decompose exactly into level
blocks: one (d, d, h_n, h_n) stack per level, formed by two batched
products; their singular values therefore give exact per-level Schatten
contributions, and only the top truncation level (whose commutator would
touch level N+1) is ever excluded.  Each level takes one stacked SVD.  Cumulative
p-sums are reported with a trend classification, never with a convergence
verdict.

Also here: the exact identities on a module's tuples (row sums, the
appendix commutator decomposition, the compression identities), one level
at a time, all d^2 pairs read off the same commutator stacks; the
rectangular-contour resolvent integral for the range projection of a gapped
positive matrix, with its commutator transform and norm bound, by composite
Gauss-Legendre panels (geometric convergence: the integrand is analytic
along each side), one stacked solve per panel; and the weighted-shift
similarity pair showing that graded isomorphism does not preserve essential
normality, whose 1 x 1 blocks give its self-commutator diagonals in closed form.
"""

from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .config import (EXACT_TOL, QUAD_DEFAULT_NODES, QUAD_MAX_NODES,
                     QUAD_REFINE_FLOOR, RANK_TOL_FACTOR)
from .trends import classify_trend

# Points per Gauss-Legendre panel of the contour rule.
GL_ORDER = 16


def _adjoint(stack):
    """The blockwise adjoint of a stack of level blocks."""
    return np.swapaxes(stack.conj(), -1, -2)


def _level_commutators(ops, n):
    """The (d, d, h_n, h_n) stacks of [T_j*, T_k] and of its down term on level n.

    Entry [j-1, k-1] is the pair (j, k), each stack one broadcast product:
    the down term T_k(n-1) T_j(n-1)* (None at the lowest stored level) and
    T_j(n)* T_k(n) minus it.
    """
    up = ops[n]
    comm = _adjoint(up)[:, None] @ up[None, :]
    if n - 1 not in ops:
        return comm, None
    low = ops[n - 1]
    down = low[None, :] @ _adjoint(low)[:, None]
    return comm - down, down


def self_commutators(ops):
    """[T_j*, T_k] = T_j* T_k - T_k T_j* for every pair, one stack per level.

    ``ops`` maps each level n to the (d, h_{n+1}, h_n) stack of the T_i(n).
    Returns ``{n: (d, d, h_n, h_n) array}`` with entry [j-1, k-1] the pair
    (j, k), T_j(n)* T_k(n) - T_k(n-1) T_j(n-1)*.  Exact on the stored levels
    0..N-1; level N is omitted because one factor would need the unstored
    block into level N+1.
    """
    return {n: _level_commutators(ops, n)[0] for n in sorted(ops)}


@dataclass(frozen=True)
class SchattenReport:
    """Exact per-level Schatten data for the self-commutators of a tuple."""

    pairs: tuple
    levels: np.ndarray
    cumulative: dict          # p -> running partial sums
    trends: dict              # p -> TrendReport
    singular_values: dict = field(repr=False)   # (j, k) -> list of arrays
    note: str = ""


def schatten_report(ops, p_values, note=""):
    """Per-level singular values and cumulative p-sums of all self-commutators.

    The singular values of all d^2 blocks of a level come from one stacked
    ``np.linalg.svd`` call on that level's ``self_commutators`` stack; a
    level of dimension 0 has none.  Raises ValueError when a cumulative sum
    is not a finite float.
    """
    d = ops[min(ops)].shape[0]
    p_values = [float(p) for p in p_values]
    if any(p < 1 for p in p_values):
        raise ValueError("Schatten exponents must be at least 1")
    pairs = [(j, k) for j in range(1, d + 1) for k in range(1, d + 1)]
    levels = []
    sigma = {pair: [] for pair in pairs}
    for n in sorted(ops):
        comm, _ = _level_commutators(ops, n)
        levels.append(n)
        stack = comm.reshape(len(pairs), *comm.shape[2:])
        values = (np.linalg.svd(stack, compute_uv=False) if stack.size
                  else np.zeros((len(pairs), 0)))
        for pair, sv in zip(pairs, values):
            sigma[pair].append(sv)
    level_arr = np.asarray(levels, dtype=float)
    cumulative, trends = {}, {}
    for p in p_values:
        with np.errstate(over="ignore"):
            per_level = np.array([
                sum(float(np.sum(sigma[pair][i] ** p)) for pair in pairs)
                for i in range(len(levels))])
            cumulative[p] = np.cumsum(per_level)
        if not np.isfinite(cumulative[p]).all():
            raise ValueError(f"the p = {p:g} Schatten sums leave the float range")
        trends[p] = classify_trend(level_arr + 1.0, per_level)
    return SchattenReport(tuple(pairs), level_arr, cumulative, trends, sigma, note)


def quotient_en_report(quotient, p_values):
    """Schatten trends for the compressed tuple of a quotient module.

    Labeled as evidence: a converging trend at finite truncation does not
    prove essential normality of the quotient.
    """
    return schatten_report(quotient.coordinate_tuple(), p_values,
                           note="evidence, not proof")


# -- exact identities on coordinate tuples ------------------------------------


def row_sum_residual(ops, rho, n):
    """|| sum_k T_k(n) T_k(n)* - rho_n^2 I ||_2 on level n+1, the d products batched.

    On a module's ``coordinate_tuple`` and weights this is the defining
    identity of the weighted d-shift realization.
    """
    acc = (ops[n] @ _adjoint(ops[n])).sum(axis=0)
    return linalg.opnorm(acc - rho[n] ** 2 * np.eye(acc.shape[0]))


def commutator_decomposition_residual(ops, fock_ops, rho, n):
    """Residuals of [Z_j*, Z_k] = [S_j*, S_k] Dt^2 + S_k S_j* (Dt^2 - D^2) on level n.

    ``ops`` and ``fock_ops`` are a module's ``coordinate_tuple`` and
    ``fock_tuple``; D is the weight diagonal seen from below (rho_{n-1} on
    level n), Dt the one seen on the level itself (rho_n).  Both sides are
    exact level-n matrices for 1 <= n <= N-1.  Returns a real (d, d) array
    of spectral-norm residuals, entry [j-1, k-1] for the pair (j, k).
    """
    if n - 1 not in ops or n not in ops:
        raise ValueError("defined on interior levels 1..N-1")
    lhs, _ = _level_commutators(ops, n)
    fock_comm, lower = _level_commutators(fock_ops, n)
    rhs = fock_comm * rho[n] ** 2 + lower * (rho[n] ** 2 - rho[n - 1] ** 2)
    return linalg.opnorms(lhs - rhs)


def compression_identity_residuals(ops, submodule, level):
    """Residuals of the two exact compression identities at one interior level.

    First: [B_j, B_k*] P = -[P, T_j][P, T_k]* + P [T_j, T_k*] P with
    B_i = T_i restricted to M and P = P_M.
    Second: [C_j, C_k*] P' = [P, T_k]*[P, T_j] + P' [T_j, T_k*] P' with
    C_i the compression of T_i to the orthocomplement and P' = 1 - P.
    Both hold as exact finite-matrix identities on levels 1..N-1 of a
    module's ``coordinate_tuple`` ``ops``.

    Returns two real (d, d) arrays of spectral-norm residuals on level n,
    entry [j-1, k-1] for the pair (j, k).  Block n of either identity reads
    only levels n-1..n+1.  The ambient [T_j, T_k*] is -[T_k*, T_j] from the
    level's commutator stack; every other term is one broadcast product.
    """
    n = int(level)
    if n - 1 not in ops or n not in ops or n >= submodule.window:
        raise ValueError(f"level {n} is not interior")
    amb = -np.swapaxes(_level_commutators(ops, n)[0], 0, 1)
    lo, hi = n - 1, n
    p = {m: submodule.projection_block(m) for m in (lo, hi, hi + 1)}
    pp = {m: np.eye(p[m].shape[0], dtype=complex) - p[m] for m in p}
    t, t_adj = ops, {m: _adjoint(ops[m]) for m in (lo, hi)}
    e = {m: p[m + 1] @ t[m] - t[m] @ p[m] for m in (lo, hi)}
    c = {m: (pp[m + 1] @ t[m]) @ pp[m] for m in (lo, hi)}

    # the parentheses fix the order of every product, and with it the
    # rounding of the reported residuals; axis 0 is j and axis 1 is k
    lhs1 = (((t[lo] @ p[lo])[:, None] @ t_adj[lo][None, :]) @ p[hi]
            - ((p[hi] @ t_adj[hi])[None, :] @ t[hi][:, None]) @ p[hi])
    rhs1 = -(e[lo][:, None] @ _adjoint(e[lo])[None, :]) + (p[hi] @ amb) @ p[hi]
    lhs2 = (c[lo][:, None] @ _adjoint(c[lo])[None, :]
            - _adjoint(c[hi])[None, :] @ c[hi][:, None]) @ pp[hi]
    rhs2 = _adjoint(e[hi])[None, :] @ e[hi][:, None] + (pp[hi] @ amb) @ pp[hi]
    return linalg.opnorms(lhs1 - rhs1), linalg.opnorms(lhs2 - rhs2)


# -- resolvent-integral projection -----------------------------------------


@dataclass(frozen=True)
class BoundCheck:
    """Contour-length norm bound for one transformed commutator."""

    p: float
    measured: float     # || [Y, P] ||_{2p}
    bound: float        # (4||B|| + 4 eps) / (pi eps^2) * || [Y, B] ||_{2p}
    slack: float


@dataclass(frozen=True)
class ResolventReport:
    projection: np.ndarray
    nodes: int
    converged: bool
    successive_difference: float
    commutator_transforms: list
    bound_checks: list


def _side_panels(b_norm, gap, nodes):
    """Gauss-Legendre panels per side of the contour for about ``nodes`` points.

    Bottom, right, top, left; counts proportional to the side lengths
    ||B||, gap, ||B||, gap, with at least one panel per side.
    """
    lengths = (b_norm, gap, b_norm, gap)
    perimeter = sum(lengths)
    return [max(1, round(nodes / GL_ORDER * length / perimeter))
            for length in lengths]


def _contour_nodes(b_norm, gap, nodes, doublings=0):
    """Composite Gauss-Legendre rule on the rectangle around sigma(B) \\ {0}.

    Corners (gap/2, +-gap/2) and (||B|| + gap/2, +-gap/2), counter-clockwise.
    Each side is cut into equal panels of GL_ORDER points, as many as
    ``_side_panels`` gives, times ``2**doublings``: every refinement doubles
    every side's panel count, so successive rules never coincide.  The
    integrand is analytic along each side, so the error decays geometrically
    in the panel count.
    """
    a, b, h = gap / 2.0, b_norm + gap / 2.0, gap / 2.0
    corners = [a - 1j * h, b - 1j * h, b + 1j * h, a + 1j * h]
    x, w = np.polynomial.legendre.leggauss(GL_ORDER)
    nodes_out, weights_out = [], []
    for i, panels in enumerate(_side_panels(b_norm, gap, nodes)):
        start, end = corners[i], corners[(i + 1) % 4]
        m = panels << doublings
        dz = (end - start) / m
        mids = start + dz * (np.arange(m) + 0.5)
        nodes_out.append((mids[:, None] + 0.5 * dz * x).ravel())
        weights_out.append(np.tile(0.5 * dz * w, m))
    return np.concatenate(nodes_out), np.concatenate(weights_out)


def _ordered_sum(running, weights, stack):
    """running + w_0 stack_0 + w_1 stack_1 + ..., added in that order.

    ``add.accumulate`` adds strictly in node order, so a panel at a time sums
    exactly as one node at a time does.
    """
    return np.add.accumulate(np.concatenate([running[None], weights * stack]),
                             axis=0)[-1]


def _contour_rule(b, b_norm, comms, gap, nodes, doublings):
    """``resolvent_quadrature`` on a complex B with ||B|| and each [Y, B] in hand.

    One Gauss-Legendre panel at a time: the GL_ORDER resolvents of a panel
    are one stacked solve, and each [Y, B] is sandwiched between them on the
    stack, so no temporary exceeds (GL_ORDER + 1) dim^2 entries (the panel's
    terms and the running sum) per transform, whatever the rule's size.
    """
    pts, weights = _contour_nodes(b_norm, gap, nodes, doublings)
    eye = np.eye(b.shape[0], dtype=complex)
    proj = np.zeros_like(b)
    transformed = [np.zeros_like(b) for _ in comms]
    for start in range(0, len(pts), GL_ORDER):
        lam = pts[start:start + GL_ORDER, None, None]
        w = weights[start:start + GL_ORDER, None, None]
        res = np.linalg.solve(lam * eye - b, eye)
        proj = _ordered_sum(proj, w, res)
        transformed = [_ordered_sum(out, w, res @ c @ res)
                       for out, c in zip(transformed, comms)]
    factor = 1.0 / (2.0j * np.pi)
    return factor * proj, [factor * t for t in transformed]


def resolvent_quadrature(b, gap, nodes, transforms=(), doublings=0):
    """One fixed-rule contour evaluation of P = (2 pi i)^{-1} int R_lambda dlambda.

    The rule is ``_contour_nodes(||B||, gap, nodes, doublings)``.
    ``transforms`` are matrices Y; for each one the same quadrature is applied
    to R_lambda [Y, B] R_lambda, the contour-integral form of [Y, P].  Each
    panel's resolvents come from one stacked solve, and the weighted terms
    are added in node order, so the sums are those of a node-by-node loop.
    """
    b = np.asarray(b, dtype=complex)
    return _contour_rule(b, linalg.opnorm(b),
                         [y @ b - b @ y for y in transforms], gap, nodes,
                         doublings)


def resolvent_projection(b, gap, nodes=QUAD_DEFAULT_NODES, transforms=(),
                         p_values=(1.0,)):
    """Range projection of a gapped psd matrix by refined contour quadrature.

    The spectrum must split as {0-cluster} union [gap, inf): eigenvalues in
    between raise ValueError.  The first rule has about ``nodes`` points;
    each refinement doubles every side's panel count, until successive
    estimates agree to QUAD_REFINE_FLOOR or the next rule would exceed
    QUAD_MAX_NODES.  A ``nodes`` value that leaves no doubling under the cap
    raises ValueError, since no convergence check is possible.  The last
    rule evaluated is the answer, and ``nodes`` in the report is its size.
    For each transform Y the report carries the quadrature value of [Y, P]
    and the Schatten-norm bound check
    ||[Y, P]||_{2p} <= (4||B|| + 4 eps)/(pi eps^2) ||[Y, B]||_{2p}.
    """
    b = np.asarray(b, dtype=complex)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError("B must be square")
    herm = linalg.opnorm(b - b.conj().T)
    b_norm = linalg.opnorm(b)
    scale = max(b_norm, 1.0)
    if herm > EXACT_TOL * scale:
        raise ValueError("B must be Hermitian")
    if gap <= 0:
        raise ValueError("gap must be positive")
    eigs = np.linalg.eigvalsh(b)
    zero_cut = RANK_TOL_FACTOR * scale
    inside = [float(e) for e in eigs if zero_cut < e < gap * (1 - 1e-9)]
    if inside:
        raise ValueError(
            f"no spectral gap (0, {gap:g}): eigenvalues {inside[:4]} inside")
    first = GL_ORDER * sum(_side_panels(b_norm, gap, nodes))
    if 2 * first > QUAD_MAX_NODES:
        raise ValueError(
            f"nodes = {nodes} gives a {first}-node rule, which leaves no "
            f"doubling under QUAD_MAX_NODES = {QUAD_MAX_NODES}")

    comms = [y @ b - b @ y for y in transforms]
    proj, transformed = _contour_rule(b, b_norm, comms, gap, nodes, 0)
    doublings = 0
    diff = float("inf")
    while first << (doublings + 1) <= QUAD_MAX_NODES:
        doublings += 1
        prev = proj
        proj, transformed = _contour_rule(b, b_norm, comms, gap, nodes, doublings)
        diff = linalg.opnorm(proj - prev)
        if diff < QUAD_REFINE_FLOOR:
            break

    const = (4.0 * b_norm + 4.0 * gap) / (np.pi * gap**2)
    checks = []
    for yb, ty in zip(comms, transformed):
        for p in p_values:
            q = 2.0 * float(p)
            measured = linalg.schatten_norm(ty, q)
            bound = const * linalg.schatten_norm(yb, q)
            checks.append(BoundCheck(float(p), measured, bound,
                                     bound - measured))
    return ResolventReport(proj, first << doublings, diff < QUAD_REFINE_FLOOR, diff,
                           transformed, checks)


def spectral_projection_oracle(b, gap):
    """Eigendecomposition route to the same projection (the independent oracle)."""
    b = np.asarray(b, dtype=complex)
    eigs, vecs = np.linalg.eigh(b)
    cut = RANK_TOL_FACTOR * max(float(np.abs(eigs).max(initial=0.0)), 1.0)
    keep = eigs > (min(gap / 2.0, cut) if gap > 0 else cut)
    v = vecs[:, keep]
    return v @ v.conj().T


# -- similarity counterexample ----------------------------------------------


@dataclass(frozen=True)
class CounterexampleReport:
    """Similar graded pair (A, B) with LA = BL where only A is essentially normal."""

    u: np.ndarray
    intertwiner_diag: np.ndarray
    flagged_indices: np.ndarray          # n with (u_n, u_{n+1}) = (0, 1)
    intertwining_residual: float         # max |(LA - BL) e_n|, exactly 0
    a_commutator_rank: int               # [A*, A] = diag(1, 0, 0, ...)
    b_commutator_diag: np.ndarray        # e^{2 u_{n+1}} - e^{2 u_n}, e^{2 u_1} at n = 0
    b_ratio_diag: np.ndarray             # e^{2 (u_{n+1} - u_n)}
    max_partial_sum: float
    intertwiner_extremes: tuple


def alternating_block_sequence(length):
    """Default admissible u: period-4 pattern 0, 1, 0, -1, ...

    Hits (u_n, u_{n+1}) = (0, 1) at every n = 0 mod 4 and keeps all partial
    sums in {0, 1}.
    """
    base = np.array([0.0, 1.0, 0.0, -1.0])
    reps = int(np.ceil(length / 4.0))
    return np.tile(base, reps)[:length]


def similarity_counterexample(u, levels):
    """Construct the weighted-shift pair A e_n = e_{n+1}, B e_n = e^{u_{n+1}} e_{n+1}.

    ``u`` must provide u_0..u_levels and hit (u_n, u_{n+1}) = (0, 1)
    somewhere on the window (the indices where B's self-commutator refuses
    to decay); a u that never does, u = 0 among them, raises ValueError.
    The intertwiner L e_n = lambda_n e_n is built by the recursion
    lambda_{n+1} = e^{u_{n+1}} lambda_n, which makes LA = BL hold bitwise in
    floating point.  A u whose intertwiner overflows or underflows on the
    window raises ValueError.
    """
    u = np.asarray(u, dtype=float)
    n_levels = int(levels)
    if u.size < n_levels + 1:
        raise ValueError(f"need u_0..u_{n_levels}")
    u = u[: n_levels + 1]
    flagged = np.array([n for n in range(n_levels)
                        if u[n] == 0.0 and u[n + 1] == 1.0], dtype=int)
    if flagged.size == 0:
        raise ValueError("u never hits (u_n, u_{n+1}) = (0, 1) on the window")

    with np.errstate(over="ignore"):
        b_weights = np.exp(u[1:])
        lam = np.empty(n_levels + 1)
        lam[0] = np.exp(u[0])
        for n in range(n_levels):
            lam[n + 1] = b_weights[n] * lam[n]
        b_square = b_weights * b_weights
        ratio = np.exp(2.0 * (u[1:] - u[:-1]))[:n_levels]
    if not all(np.all(np.isfinite(x)) for x in (b_square, lam, ratio)):
        raise ValueError("e^u, its square or the intertwiner overflows on the window")
    if lam.min() < np.finfo(float).tiny:
        raise ValueError("the intertwiner underflows on the window: L is not invertible")
    resid = max(abs(lam[n + 1] * 1.0 - b_weights[n] * lam[n])
                for n in range(n_levels))

    # the self-commutators of the 1 x 1 weighted shifts, level by level:
    # [A*, A](n) = 1 - 1 for n >= 1, and [B*, B](n) = b_n^2 - b_{n-1}^2
    a_diag = np.zeros(n_levels)
    a_diag[0] = 1.0
    rank_a = int(np.count_nonzero(a_diag))
    b_diag = b_square - np.concatenate(([0.0], b_square[:-1]))
    partial = np.cumsum(u)
    return CounterexampleReport(
        u, lam, flagged, float(resid), rank_a, b_diag, ratio,
        float(np.max(np.abs(partial))), (float(lam.min()), float(lam.max())))
