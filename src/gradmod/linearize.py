"""Row operator, pullbacks, iterated linearization, and degree-1 structure.

The row operator L sends (xi_1, ..., xi_d) in d.S to Z_1 xi_1 + ... + Z_d xi_d
(blocks ``StandardModule.row_block``, domain ``StandardModule.row_domain``).
Its kernel is a degree-1 submodule; pulling a degree-n submodule M back
through L drops the degree by one, and iterating reduces any determinable
degree >= 2 to a degree-1 submodule in a higher-multiplicity ambient module.

Degree-1 submodules of Z_1 S + ... + Z_d S are in bijection with subspaces
V of d.E: M is the orthocomplement of the space E_V of polynomials whose
stacked adjoint image (equivalently, for maximally symmetric completions,
whose gradient) lies pointwise in V.  E_V is computed level by level with
the Euler recursion: every partial derivative of f in E_V(n) lies in
E_V(n-1), and f = (1/n) sum_j z_j d_j f, so E_V(n) lies in the span of the
Z_j E_V(n-1); each level solves its nullspace problem on that small span.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .submodules import GradedSubmodule, QuotientModule, parse_complex


class WindowExhausted(RuntimeError):
    """Raised when a degree is not determinable within the stored truncation."""


def kernel_levels(module, window=None):
    """The kernel K = ker L as a graded submodule of d.S (degree 1, K_0 = 0)."""
    if window is None:
        window = module.top_level - 1
    if window > module.top_level - 1 or window < 1:
        raise ValueError("kernel window must lie in 1..N-1")
    bases = {n: linalg.nullspace(module.row_block(n)) for n in range(window + 1)}
    return GradedSubmodule(module.row_domain, bases, window=window)


def pullback(submodule):
    """M' = {zeta in d.S : L zeta in M}, levelwise, for deg M >= 2.

    M'_k is the nullspace of (I - P_{M_{k+1}}) L_k; it contains ker L and
    satisfies L(M'_k) = M_{k+1}.  The stored window shrinks by one level.
    """
    report = submodule.degree_report()
    if not report.determined:
        raise WindowExhausted(
            "degree of M not determinable within the stored window")
    if report.degree < 2:
        raise ValueError("pullback reduction applies to submodules of degree >= 2")
    module = submodule.module
    window = min(submodule.window - 1, module.top_level - 1)
    bases = {k: linalg.preimage(module.row_block(k), submodule.basis(k + 1))
             for k in range(window + 1)}
    return GradedSubmodule(module.row_domain, bases, window=window)


def pullback_span_residual(submodule, pulled):
    """max_k principal-angle distance between L(M'_k) and M_{k+1} (should be 0)."""
    worst = 0.0
    for k in range(pulled.window + 1):
        block = submodule.module.row_block(k)
        # absolute floor: kernel directions map to roundoff junk, not rank
        image = linalg.orthonormal_columns(block @ pulled.basis(k),
                                           floor=1e-10 * linalg.opnorm(block))
        worst = max(worst, linalg.subspace_distance(image, submodule.basis(k + 1)))
    return worst


def kernel_containment_residual(module, pulled):
    """How far ker L sticks out of the pullback of a submodule of ``module`` (should be 0)."""
    kernel = kernel_levels(module, window=max(pulled.window, 1))
    worst = 0.0
    for n in range(min(pulled.window, kernel.window) + 1):
        worst = max(worst, linalg.containment_residual(
            kernel.basis(n), pulled.basis(n)))
    return worst


def shift_quotient(quotient):
    """The left shift of a quotient module, realized as (d.S) / pullback(M).

    Level n of the result matches level n+1 of the input; the induced map
    diagnostics certify the levelwise isomorphism.
    """
    pulled = pullback(quotient.submodule)
    return QuotientModule(pulled)


def induced_map_report(quotient, shifted):
    """Condition numbers of the level maps induced by L between the two quotients."""
    row_block = quotient.module.row_block
    out = {}
    for n in range(shifted.window + 1):
        if n + 1 > quotient.window:
            break
        mat = quotient.basis(n + 1).conj().T @ row_block(n) @ shifted.basis(n)
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
    span_residuals: tuple = ()      # L(M'_k) vs M_{k+1}, one per pullback
    kernel_residuals: tuple = ()    # ker L containment in M', one per pullback


def linearize_full(submodule, max_ambient_dim=200_000):
    """Iterate pullbacks until a degree-1 submodule is reached.

    Each step multiplies the ambient multiplicity by d and consumes one level
    of the truncation window.  Returns a partial result (``complete=False``)
    when the window is exhausted before the degree drops to 1, or when the
    ambient dimension would exceed ``max_ambient_dim``.
    """
    current = submodule
    steps = []
    span_residuals = []
    kernel_residuals = []

    def record(sub, deg):
        steps.append(LinearizationStep(
            sub.module.multiplicity, deg, sub.window, tuple(sub.dims())))

    def result(complete, reason):
        return LinearizationResult(tuple(steps), current, complete, reason,
                                   tuple(span_residuals), tuple(kernel_residuals))

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
        if next_dim > max_ambient_dim:
            return result(False, "ambient dimension budget exceeded")
        pulled = pullback(current)
        span_residuals.append(pullback_span_residual(current, pulled))
        kernel_residuals.append(kernel_containment_residual(current.module, pulled))
        current = pulled


# -- degree-1 submodules and the E_V spaces --------------------------------


@dataclass(frozen=True)
class SubspaceV:
    """Subspace V of d.E: orthonormal basis plus its complement projector."""

    ambient_dim: int
    basis: np.ndarray

    @classmethod
    def from_matrix(cls, module, raw):
        raw = np.asarray(raw, dtype=complex)
        dim = module.d * module.multiplicity
        if raw.shape[0] != dim:
            raise ValueError(f"V must live in d.E of dimension {dim}")
        return cls(dim, linalg.orthonormal_columns(raw))

    @property
    def dim(self):
        return self.basis.shape[1]

    def complement_projector(self):
        return np.eye(self.ambient_dim, dtype=complex) - linalg.projector(self.basis)


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


def ev_space(module, v, window=None, use_gradient=False):
    """Levelwise bases of E_V and its orthocomplement M = E_V^perp.

    E_V(n) is the nullspace of (1 (x) Q) composed with the stacked adjoint
    blocks (Z_1*, ..., Z_d*) on level n, Q being the projection onto V^perp.
    With ``use_gradient=True`` the stacked blocks are the level gradients
    instead; for maximally symmetric completions the two agree levelwise (the
    adjoints are positive multiples of the gradients).

    The nullspace is solved on candidates, not on the whole level (Euler
    recursion).  If f lies in E_V(n), each d_j f lies in E_V(n-1), since mixed
    partials commute and V is linear, and f = (1/n) sum_j z_j d_j f.  So
    E_V(n) lies in C_n = span_j Z_j E_V(n-1), which has dimension at most
    d dim E_V(n-1), and E_V(n) = C_n ker((1 (x) Q) stacked C_n).  An empty
    E_V(n-1) gives an empty E_V(n).  The rank floor is 1e-10 ||stacked||,
    taken on the whole level.  Each route recurses on its own stacked blocks,
    so the two routes remain independent computations.

    Returns (dict level -> E_V basis, GradedSubmodule M).
    """
    if window is None:
        window = module.top_level
    q = v.complement_projector()
    ev = {0: np.eye(module.level_dim(0), dtype=complex)}
    for n in range(1, window + 1):
        if ev[n - 1].shape[1] == 0:
            ev[n] = np.zeros((module.level_dim(n), 0), dtype=complex)
            continue
        if use_gradient:
            # row (monomial, copy i, component) of the d.S level: copy-major d.E
            stacked = np.stack(
                [module.gradient_block(i, n).reshape(module.scalar_dim(n - 1),
                                                     module.multiplicity, -1)
                 for i in range(1, module.d + 1)],
                axis=1).reshape(module.level_dim(n - 1) * module.d, -1)
        else:
            stacked = module.row_block(n - 1).conj().T
        candidates = linalg.orthonormal_columns(np.hstack(
            [module.coordinate_block(j, n - 1) @ ev[n - 1]
             for j in range(1, module.d + 1)]))
        if candidates.shape[1] == module.level_dim(n):
            # the candidates fill the level (always at n = 1): keep the level's
            # own basis, so that E_V(n) = level n gets the identity basis
            candidates = np.eye(module.level_dim(n), dtype=complex)
        # 1 (x) Q: Q acts on the d.E index of each level-(n-1) monomial
        image = q @ (stacked @ candidates).reshape(module.scalar_dim(n - 1),
                                                   q.shape[0], -1)
        # floor: for V = d.E the composition is a true zero map
        ev[n] = candidates @ linalg.nullspace(
            image.reshape(stacked.shape[0], -1),
            floor=1e-10 * linalg.opnorm(stacked))
    complements = {n: linalg.complement_basis(ev[n]) for n in ev}
    m = GradedSubmodule(module, complements, window=window)
    return ev, m


def ev_quotient(module, v, window=None):
    """The quotient H_V = S / E_V^perp, realized on the E_V level bases."""
    ev, m = ev_space(module, v, window=window)
    return QuotientModule(m, coquotient_bases=ev)


def recover_subspace(module, m1_basis):
    """V from a degree-1 submodule's level-1 data: W = L_0^{-1}(M_1), V = W^perp.

    The level-0 row block is injective on d.E, so W and hence V are uniquely
    determined.
    """
    w = linalg.preimage(module.row_block(0), m1_basis)
    v_basis = linalg.complement_basis(w)
    return SubspaceV(module.d * module.multiplicity, v_basis)
