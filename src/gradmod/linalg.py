"""Dense rank-revealing helpers shared by all block computations.

It owns the toolkit's one rank cut (``_kept``), one spectral norm
(``opnorms``, with ``opnorm`` their largest), thin wrappers of numpy's SVD,
one norm of the residual of an exact identity (``residuals``, with
``residual`` their largest), which takes that spectral norm only when the
Frobenius norm cannot settle it, and one NaN-keeping fold (``largest``).
Subspaces are always represented by matrices whose columns are orthonormal;
an empty subspace is a (dim, 0) array.

``nullspace``, ``numerical_rank`` and ``opnorms`` never read U, so a tall
operand goes through its triangle first (``_triangle``): R of a = QR has the
singular values and right singular vectors of ``a``.  They are the same bits,
not just the same numbers: for M >= int(17 N / 9) LAPACK's gesdd itself
factors A = QR and bidiagonalizes R, and the route skips only the forming of
Q and of Q U_R.  It is taken for blocks with M >= 2 N whose size M N^2 is at
least ``TRIANGLE_MIN_WORK`` (below that the extra QR call costs more than it
saves), and only while every block's max|a| lies in ``TRIANGLE_RANGE``:
outside about [6.7e-139, 1e138] gesdd rescales the operand first, and its
bits then differ from those of the route (``_routed``).

``orthonormal_columns`` reads U, so it always takes one plain SVD.  The
Euler candidate blocks, which need only an orthonormal superspace of their
span, take the same gate to a reduced QR of their own
(``submodules.euler_candidates``).
"""

import numpy as np

from .config import RANK_TOL_FACTOR

# The triangle route costs one more LAPACK call (about 12 us for a tiny
# np.linalg.qr), so it gains only on large blocks.  One BLAS thread on a
# 2-vCPU host: a (20, 5) nullspace operand takes 21 us by a plain SVD and
# 33 us through R, a (190, 9) one 79 and 58 us, a (828, 27) one 1.47 and
# 0.52 ms; singular values alone gain less.  The table is in BENCH_18.json.
TRIANGLE_MIN_WORK = 16384
# gesdd rescales a block whose max|a| lies outside about [6.7e-139, 1e138];
# this range keeps a margin inside that for both a and R (max|a| / sqrt(N)
# <= max|R| <= sqrt(M) max|a|).
TRIANGLE_RANGE = (1e-130, 1e130)
# Below this bound a sum of squares may have lost its terms to underflow
# (entries under about 1e-162 square to zero), so a Frobenius norm certifies
# nothing and ``residuals`` takes the spectral norm.
FROBENIUS_MIN_BOUND = 1e-150


def _as_complex(a):
    return np.asarray(a, dtype=complex)


def adjoint(stack):
    """The blockwise adjoint of a matrix or (..., m, p) stack."""
    return np.swapaxes(stack.conj(), -1, -2)


def largest(values, floor):
    """The largest of ``values`` and ``floor``; NaN when any value is NaN.

    ``values`` holds floats or equally shaped arrays.  The builtin ``max``
    would keep its running value past a NaN; on finite values ``np.max`` is
    exact, so the result has the builtin's bits.
    """
    return float(np.max(np.asarray(values, dtype=float), initial=floor))


def _kept(s, scale=0.0):
    """How many singular values in ``s`` exceed RANK_TOL_FACTOR * max(s.max(), scale)."""
    top = max(s.max(initial=0.0), scale)
    return int(np.count_nonzero(s > RANK_TOL_FACTOR * top))


def _routed(a):
    """Whether a matrix or stack of (M, N) blocks goes through its QR triangle.

    True when M >= 2 N, M N^2 >= TRIANGLE_MIN_WORK and every block has
    max|a| in TRIANGLE_RANGE (module docstring).
    """
    m, n = a.shape[-2:]
    if m < 2 * n or m * n * n < TRIANGLE_MIN_WORK:
        return False
    top = np.abs(a).max(axis=(-2, -1))
    low, high = TRIANGLE_RANGE
    return bool(np.all((top >= low) & (top <= high)))


def _triangle(a):
    """The R of a = QR for a matrix or stack of (M, N) blocks that gains from it; else ``a``.

    Its SVD gives the same singular values and right singular vectors, bit
    for bit (module docstring).
    """
    return np.linalg.qr(a, mode="r") if _routed(a) else a


def numerical_rank(a):
    """Rank of a matrix, or of the block-diagonal matrix a (count, m, p) stack holds.

    The cut (``_kept``) is relative to the largest singular value over every
    block of a stack.  Zero padding of stacked blocks adds only zero
    singular values.
    """
    a = _as_complex(a)
    if a.size == 0:
        return 0
    return _kept(np.linalg.svd(_triangle(a), compute_uv=False))


def orthonormal_columns(a):
    """Orthonormal basis for the column span of ``a``.

    Returns a (rows, rank) matrix with orthonormal columns: the leading
    columns of U from one plain SVD, cut by ``_kept``.  The zero matrix (or
    a matrix with no columns) yields a (rows, 0) result.
    """
    a = _as_complex(a)
    if a.ndim != 2:
        raise ValueError("expected a matrix")
    if a.shape[1] == 0 or a.shape[0] == 0:
        return np.zeros((a.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return u[:, :_kept(s)]


def nullspace(a, scale=0.0):
    """Orthonormal basis of the kernel of ``a`` as a (cols, nullity) matrix.

    ``scale`` is a closed-form norm of the map ``a`` represents, for callers
    passing a composition that may be roundoff junk of a true zero map (e.g.
    a complement projection applied to a map whose range it contains): the
    cut is then relative to it rather than to the junk's own largest
    singular value, which would manufacture spurious rank.
    """
    a = _as_complex(a)
    if a.ndim != 2:
        raise ValueError("expected a matrix")
    n = a.shape[1]
    if n == 0:
        return np.zeros((0, 0), dtype=complex)
    if a.shape[0] == 0:
        return np.eye(n, dtype=complex)
    # U is never read; for a tall matrix the thin factorization already holds
    # every right singular vector, and skipping the full U saves most of the work
    _, s, vh = np.linalg.svd(_triangle(a), full_matrices=a.shape[0] <= n)
    return vh[_kept(s, scale):, :].conj().T


def complement_basis(basis):
    """Orthonormal basis of the orthocomplement of span(basis) in its ambient space."""
    basis = _as_complex(basis)
    return nullspace(basis.conj().T)


def projector(basis):
    """Orthogonal projection onto span(basis); basis columns must be orthonormal."""
    basis = _as_complex(basis)
    return basis @ basis.conj().T


def opnorms(a):
    """Spectral norm of every matrix of a (..., m, p) stack; 0 for empty matrices."""
    a = _as_complex(a)
    if a.size == 0:
        return np.zeros(a.shape[:-2])
    return np.linalg.svd(_triangle(a), compute_uv=False)[..., 0]


def opnorm(a):
    """Largest spectral norm of a matrix or a (..., m, p) stack; 0 when empty."""
    return largest(opnorms(a), 0.0)


def residuals(a, bound):
    """max(||a_i||_2, bound) for every matrix of a (..., m, p) stack (a 0-d array for one).

    The residual of an exact identity is roundoff, and its caller needs to
    know only that it lies at or below ``bound``.  ||a_i||_2 <= ||a_i||_F, so
    when every block's Frobenius norm is at most ``bound`` the answer is
    ``bound`` everywhere and no SVD is taken.  Otherwise every block gets
    max(``opnorms``, ``bound``), the spectral norm's own bits.  A bound of 0
    (or one under ``FROBENIUS_MIN_BOUND``) certifies nothing, so the result
    is then the exact spectral norm; a NaN or infinite entry is never
    certified either.
    """
    a = _as_complex(a)
    if bound >= FROBENIUS_MIN_BOUND:
        squares = (a.real**2 + a.imag**2).sum(axis=(-2, -1))
        if np.all(np.sqrt(squares) <= bound):
            return np.full(a.shape[:-2], float(bound))
    return np.maximum(opnorms(a), bound)


def residual(a, bound):
    """max(largest ||a_i||_2 over a matrix or (..., m, p) stack, bound); see ``residuals``."""
    return largest(residuals(a, bound), bound)


def _outside(inner, outer):
    """(I - P_outer) inner, for a matrix or (..., m, p) stack ``inner``."""
    return inner - outer @ (outer.conj().T @ inner)


def containment_residual(inner, outer, bound):
    """How far span(inner) sticks out of span(outer): max(||(I - P_outer) inner||_2, bound).

    ``outer`` has orthonormal columns in the ambient space of ``inner``; for
    a span comparison ``inner`` has them too.  ``inner`` may be a
    (..., m, p) stack of matrices, each measured against ``outer``: the
    largest residual comes from one stacked ``residual``, the same bits as
    the largest of the per-matrix ones.  Zero-dimensional ``inner`` is
    contained in everything (an empty operand reads ``bound``).
    """
    inner = _as_complex(inner)
    outer = _as_complex(outer)
    return residual(_outside(inner, outer), bound)


def subspace_distance(a, b, bound):
    """Symmetric gap between two subspaces given by orthonormal-column matrices.

    Equals max(sine of the largest principal angle, ``bound``) when
    dimensions agree, and 1.0 when they differ.  Both containment
    residuals, (I - P_b) a and (I - P_a) b, go through one stacked
    ``residual``.
    """
    a = _as_complex(a)
    b = _as_complex(b)
    if a.shape[1] != b.shape[1]:
        return 1.0
    return residual(np.stack([_outside(a, b), _outside(b, a)]), bound)


def orthonormality_residual(basis, bound):
    """max(|| basis* basis - I ||_2, bound): how orthonormal the columns actually are."""
    basis = _as_complex(basis)
    return residual(basis.conj().T @ basis - np.eye(basis.shape[1]), bound)


def schatten_norm(a, p):
    """Schatten p-norm of a dense matrix, for finite p >= 1."""
    a = _as_complex(a)
    if a.size == 0:
        return 0.0
    s = np.linalg.svd(a, compute_uv=False)
    return float(np.sum(s**p) ** (1.0 / p))
