"""Row operator, pullbacks, iterated linearization, and degree-1 structure.

The row operator L sends (xi_1, ..., xi_d) in d.S to Z_1 xi_1 + ... + Z_d xi_d
(``StandardModule.row`` and ``row_adjoint``, domain ``StandardModule.row_domain``).
Its kernel is a degree-1 submodule; pulling a degree-n submodule M back
through L drops the degree by one, and iterating reduces any determinable
degree >= 2 to a degree-1 submodule in a higher-multiplicity ambient module.

Everything here works on the quotient side of a submodule (the bases
Q_n = M_n^perp that ``GradedSubmodule`` stores).  The row-sum identity
L_k L_k* = rho_k^2 I makes L_k*/rho_k an isometry, and every pullback level
is that one map.  The pullback M'_k = {zeta : L zeta in M_{k+1}} is the
kernel of Q_{k+1}* L_k, so its quotient side is Q'_k = L_k* Q_{k+1} / rho_k:
orthonormal columns with no factorization, dim Q'_k = dim Q_{k+1}, and L
induces rho_k times a unitary between the quotients.  Applied to the whole
level S_{k+1}, the same map gives K_k^perp for the kernel K = ker L; applied
at k = 0, where L_0/rho_0 is unitary from d.E onto S_1, it gives the
subspace V of a degree-1 submodule.

Pullbacks carry their saturation flags: ker L is generated at level 1 by the
Koszul syzygies z_i e_j - z_j e_i, so the flag of M' at level k >= 1 is the
flag of M at level k+1, and only level 0 takes a nullspace (``pullback``).
The co-invariant recursion and the co-invariance check apply Z_k of d.S
as a scatter on the successor table (``StandardModule.shift``), and
pullbacks and the ker L residual apply L_k and L_k* the same way
(``StandardModule.row``, ``row_adjoint``), so a linearization builds no
dense coordinate block and no dense row block.

Each pullback step reports two residuals.  Co-invariance of Q' in d.S is
the check that can fail.  ||K_n* Q'_n|| holds by construction, since Q'_n
lies in ran(L_n*) = K_n^perp; it is roundoff of the row-sum identity.

Degree-1 submodules of Z_1 S + ... + Z_d S are in bijection with subspaces
V of d.E: M_V is the orthocomplement of the space E_V of polynomials whose
gradient lies pointwise in V.  M_V is the submodule generated at level 1 by
L_0 V^perp, the elements sum_k z_k zeta_k with zeta in V^perp, so ``ev_space``
is one ``GradedSubmodule.from_level_seeds`` call: E_V is its quotient side,
and its flags are those of the generation.  ``ev_gradient_levels`` computes
E_V independently, by an Euler recursion on the gradient: every partial
derivative of f in E_V(n) lies in E_V(n-1), and f = (1/n) sum_j z_j d_j f, so
E_V(n) lies in the span of the Z_j E_V(n-1); each level solves its
nullspace problem on that small span.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .submodules import (GradedSubmodule, QuotientModule, cosaturation_flags,
                         euler_candidates, parse_complex)


# ``linearize_full`` stops before a pullback whose ambient d.S would hold more
# coordinates than this over the window.
MAX_AMBIENT_DIM = 200_000


class WindowExhausted(RuntimeError):
    """Raised when a degree is not determinable within the stored truncation."""


def kernel_levels(module):
    """The kernel K = ker L as a graded submodule of d.S (degree 1, K_0 = 0).

    Its quotient side is ``pullback_quotient`` applied to the whole level:
    L_n*/rho_n, a gather applied to the identity of S_{n+1}, is an
    orthonormal basis of ran(L_n*) = K_n^perp.  K_n itself is the
    complement, computed on request.
    """
    window = module.top_level - 1
    if window < 1:
        raise ValueError("the kernel needs N >= 2")
    quotient = {n: pullback_quotient(module, np.eye(module.level_dim(n + 1),
                                                    dtype=complex), n)
                for n in range(window + 1)}
    return GradedSubmodule(module.row_domain, quotient, cosaturation_flags(
        module.row_domain, quotient, window), window=window)


def pullback_quotient(module, quotient_next, k):
    """Q'_k = L_k* Q_{k+1} / rho_k, the quotient side of {zeta : L_k zeta in M_{k+1}}.

    That pullback level is the kernel of Q_{k+1}* L_k, so its orthocomplement
    is ran(L_k* Q_{k+1}).  L_k*/rho_k is an isometry, so the product is
    already an orthonormal basis of it, with dim Q'_k = dim Q_{k+1}.  L_k* is
    a gather (``StandardModule.row_adjoint``).
    """
    return module.row_adjoint(k, quotient_next) / module.rho[k]


def pullback(submodule):
    """M' = {zeta in d.S : L zeta in M}, levelwise, for deg M >= 2.

    Level k is ``pullback_quotient`` of Q_{k+1}.  M' contains K = ker L and
    satisfies L(M'_k) = M_{k+1}.  The stored window shrinks by one level.

    The saturation flags of M' are those of M shifted down by one degree,
    except at level 0.  L is a module map and L_k is onto, so
    L(sum_j Z_j M'_k) = sum_j Z_j M_{k+1}.  K is generated at level 1 by the
    Koszul syzygies z_i e_j - z_j e_i, so for k >= 1 the span
    sum_j Z_j M'_k contains sum_j Z_j K_k = K_{k+1}, and it is therefore the
    whole preimage L^{-1}(sum_j Z_j M_{k+1}).  It equals
    M'_{k+1} = L^{-1}(M_{k+2}) exactly when sum_j Z_j M_{k+1} = M_{k+2}:
    flag'[k] = flag[k+1].  At k = 0 the span of Z_j M'_0 need not contain
    K_1, so that one flag is solved (``cosaturation`` at level 1 of d.S).
    """
    report = submodule.degree_report()
    if not report.determined:
        raise WindowExhausted(
            "degree of M not determinable within the stored window")
    if report.degree < 2:
        raise ValueError("pullback reduction applies to submodules of degree >= 2")
    module = submodule.module
    window = min(submodule.window - 1, module.top_level - 1)
    quotient = {k: pullback_quotient(module, submodule.quotient_basis(k + 1), k)
                for k in range(window + 1)}
    flags = cosaturation_flags(module.row_domain, quotient, 1)
    flags.update((k, report.flags[k + 1]) for k in range(1, window))
    return GradedSubmodule(module.row_domain, quotient, flags, window=window)


def kernel_containment_residual(module, pulled):
    """max_n ||K_n* Q'_n||: how far ker L sticks out of the pullback (should be 0).

    Read as ||(I - P_{ran L_n*}) Q'_n|| against the quotient side of K, with
    the projection P = (L_n*/rho_n)(L_n/rho_n) applied as a scatter and a
    gather (``StandardModule.row``, ``row_adjoint``): no dense row block.  It
    is roundoff by construction (see the module docstring).
    """
    worst = 0.0
    for n in range(pulled.window + 1):
        inner = pulled.quotient_basis(n)
        rho = module.rho[n]
        back = module.row_adjoint(n, module.row(n, inner) / rho) / rho
        worst = max(worst, linalg.opnorm(inner - back))
    return worst


def shift_quotient(quotient):
    """The left shift of a quotient module, realized as (d.S) / pullback(M).

    Level n of the result matches level n+1 of the input; the induced map
    diagnostics certify the levelwise isomorphism.
    """
    pulled = pullback(quotient.submodule)
    return QuotientModule(pulled)


def induced_map_report(quotient, shifted):
    """Condition numbers of the level maps induced by L between the two quotients.

    Q_{n+1}* L_n is read as (L_n* Q_{n+1})*, a gather: no dense row block.
    """
    module = quotient.module
    out = {}
    for n in range(shifted.window + 1):
        if n + 1 > quotient.window:
            break
        mat = module.row_adjoint(n, quotient.basis(n + 1)).conj().T @ shifted.basis(n)
        if mat.size == 0:
            out[n] = (0.0, True)
            continue
        s = np.linalg.svd(mat, compute_uv=False)
        full = mat.shape[0] == mat.shape[1] and s[-1] > 0
        out[n] = (float(s[0] / s[-1]) if full else float("inf"), bool(full))
    return out


@dataclass(frozen=True)
class LinearizationStep:
    multiplicity: int
    degree: int
    window: int
    level_dims: tuple


@dataclass(frozen=True)
class LinearizationResult:
    """Outcome of iterating the pullback until the degree reaches 1."""

    steps: tuple
    final: GradedSubmodule
    complete: bool
    reason: str
    coinvariance_residuals: tuple  # Q' co-invariant in d.S, one per pullback
    kernel_residuals: tuple        # ker L perp Q', one per pullback


def linearize_full(submodule):
    """Iterate pullbacks until a degree-1 submodule is reached.

    Each step multiplies the ambient multiplicity by d and consumes one level
    of the truncation window.  Returns a partial result (``complete=False``)
    when the window is exhausted before the degree drops to 1, or when the
    ambient dimension would exceed ``MAX_AMBIENT_DIM``.
    """
    current = submodule
    steps = []
    coinvariance_residuals = []
    kernel_residuals = []

    def record(sub, deg):
        steps.append(LinearizationStep(
            sub.module.multiplicity, deg, sub.window, tuple(sub.dims())))

    def result(complete, reason):
        return LinearizationResult(tuple(steps), current, complete, reason,
                                   tuple(coinvariance_residuals),
                                   tuple(kernel_residuals))

    while True:
        report = current.degree_report()
        if not report.determined:
            return result(False, "window exhausted before the degree was determinable")
        record(current, report.degree)
        if report.degree <= 1:
            return result(True, "degree 1 reached" if report.degree == 1
                          else "degree 0 input")
        next_dim = sum(current.module.level_dim(n) * current.module.d
                       for n in range(current.window))
        if next_dim > MAX_AMBIENT_DIM:
            return result(False, "ambient dimension budget exceeded")
        pulled = pullback(current)
        coinvariance_residuals.append(pulled.invariance_residual())
        kernel_residuals.append(kernel_containment_residual(current.module, pulled))
        current = pulled


# -- degree-1 submodules and the E_V spaces --------------------------------


@dataclass(frozen=True)
class SubspaceV:
    """Subspace V of d.E: an orthonormal basis, and one of V^perp on first read."""

    basis: np.ndarray

    @classmethod
    def from_matrix(cls, module, raw):
        raw = np.asarray(raw, dtype=complex)
        dim = module.d * module.multiplicity
        if raw.shape[0] != dim:
            raise ValueError(f"V must live in d.E of dimension {dim}")
        return cls(linalg.orthonormal_columns(raw))

    @property
    def dim(self):
        return self.basis.shape[1]

    @functools.cached_property
    def complement(self):
        """Orthonormal basis of V^perp in d.E, rank-cut against the basis of V.

        Never I - P_V: for V = d.E that projector is roundoff, which a cut
        relative to its own largest singular value would keep as full rank.
        """
        return linalg.complement_basis(self.basis)


def parse_subspace(text, module):
    """Read V from a text grid: one row of complex entries per d.E coordinate."""
    rows = []
    for line in text.splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        rows.append([parse_complex(tok) for tok in line.split()])
    if not rows:
        return SubspaceV.from_matrix(module,
                                     np.zeros((module.d * module.multiplicity, 0)))
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError("ragged subspace matrix")
    return SubspaceV.from_matrix(module, np.array(rows, dtype=complex))


def ev_space(module, v):
    """E_V and M = E_V^perp, the submodule generated by L_0 V^perp at level 1.

    Returns (dict level -> E_V basis, M), E_V being M's quotient bases.
    L_0/rho_0 is unitary from d.E onto S_1, so M_1 = L_0 V^perp.  For n >= 2,
    if every d_k f lies in E_V(n-1) then grad(d_k f) = d_k grad f is
    V-valued for every k, and by Euler grad f = (n-1)^{-1} sum_k z_k d_k grad f
    is V-valued too.  So E_V(n) = {f : Z_k* f in E_V(n-1) for all k}, which
    is ``cosaturation``, and M carries the flags of its generation.
    """
    sub = GradedSubmodule.from_level_seeds(module, {1: module.row(0, v.complement)})
    return sub.quotient_bases, sub


def ev_gradient_levels(module, v):
    """E_V by the gradient route: its own Euler recursion, independent of ``ev_space``.

    Returns dict level -> E_V basis.  E_V(n) is the nullspace of 1 (x) B* applied
    to the gradient (``StandardModule.gradient``) on level n, for an
    orthonormal basis B of V^perp.  It is solved on candidates, not on the
    whole level: if f lies in E_V(n), each d_j f lies in E_V(n-1), since
    mixed partials commute and V is linear, and f = (1/n) sum_j z_j d_j f.
    So E_V(n) lies in C_n = span_j Z_j E_V(n-1), of dimension at most
    d dim E_V(n-1).  1 (x) B* is a coisometry, so the rank cut is relative
    to the gradient's closed-form norm rho_{n-1} / u(n) = n / rho_{n-1}; for
    V = d.E the operand has no rows.  The two routes agree for maximally
    symmetric completions, where the adjoints are positive multiples of the
    gradients.
    """
    b_adj = v.complement.conj().T
    level = np.eye(module.level_dim(0), dtype=complex)
    ev = {0: level}
    for n in range(1, module.top_level + 1):
        cand = euler_candidates(module, level, n)
        # 1 (x) B*: B* acts on the d.E index of each level-(n-1) monomial
        image = b_adj @ module.gradient(n, cand).reshape(
            module.scalar_dim(n - 1), b_adj.shape[1], cand.shape[1])
        level = ev[n] = cand @ linalg.nullspace(np.vstack(image),
                                                scale=n / module.rho[n - 1])
    return ev


def ev_quotient(module, v):
    """The quotient H_V = S / E_V^perp, realized on the E_V level bases."""
    return QuotientModule(ev_space(module, v)[1])


def recover_subspace(submodule):
    """V from a degree-1 submodule's level 1: V = W^perp for W = L_0^{-1}(M_1).

    L_0/rho_0 is unitary from d.E onto S_1 (both have dimension d r), so
    W^perp = L_0* Q_1 / rho_0, which is ``pullback_quotient`` at k = 0.
    """
    return SubspaceV(pullback_quotient(submodule.module,
                                       submodule.quotient_basis(1), 0))
