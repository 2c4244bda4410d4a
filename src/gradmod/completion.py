"""Weight sequences and truncated standard Hilbert modules.

A maximally symmetric graded inner product on polynomials is determined (up
to scale) by one positive sequence rho_0, rho_1, ...; the coordinate
multiplications then act, in orthonormal level bases, as rho_n times the
symmetric-Fock-space blocks.  ``StandardModule`` stores those blocks exactly
for levels 0..N and is the ambient object everything else consumes.

Level bases are orthonormalized monomials: for a maximally symmetric inner
product the monomials are already orthogonal, so orthonormalization is the
diagonal rescale z^alpha / ||z^alpha||.  The Fock weights nu_alpha are NOT
hard-coded as alpha!/|alpha|!; they are produced by the defining projection
identity sum_k S_k S_k* = I - E_0, solved level by level (the closed form is
only a cross-check in the test suite).
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import monomials
from .config import TREND_BURN_IN
from .operators import GradedOperator
from .trends import TrendReport, classify_trend, loglog_slope


@dataclass(frozen=True)
class WeightSequence:
    """Positive weights rho_0..rho_{N-1} defining a maximally symmetric inner product."""

    family: str
    values: np.ndarray
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 1:
            raise ValueError("need at least one weight")
        if np.any(vals <= 0.0) or not np.all(np.isfinite(vals)):
            raise ValueError("weights must be positive and finite")
        object.__setattr__(self, "values", vals)

    @property
    def bounds(self):
        """Actual (min, max) over the truncation window."""
        return float(np.min(self.values)), float(np.max(self.values))

    def __len__(self):
        return self.values.size


def make_weights(family, n_weights, d=None, r1=None, r2=None, values=None):
    """Build a weight family over k = 0..n_weights-1.

    Families: ``dshift`` (rho_k = 1), ``hardy`` (sqrt((k+1)/(k+d))),
    ``bergman`` (sqrt((k+1)/(k+d+1))), ``sinsqrt`` with parameters
    0 < r1 < r2 (rho_k^2 = r1 + (r2-r1)(1+sin sqrt(k))/2), and ``custom``
    (explicit values).
    """
    family = str(family).lower()
    if n_weights < 1:
        raise ValueError("need at least one weight")
    k = np.arange(n_weights, dtype=float)
    if family == "dshift":
        vals = np.ones(n_weights)
        params = {}
    elif family == "hardy":
        if d is None or d < 1:
            raise ValueError("hardy weights need the dimension d")
        vals = np.sqrt((k + 1.0) / (k + float(d)))
        params = {"d": int(d)}
    elif family == "bergman":
        if d is None or d < 1:
            raise ValueError("bergman weights need the dimension d")
        vals = np.sqrt((k + 1.0) / (k + float(d) + 1.0))
        params = {"d": int(d)}
    elif family == "sinsqrt":
        if r1 is None or r2 is None or not (0.0 < r1 < r2):
            raise ValueError("sinsqrt needs 0 < r1 < r2")
        vals = np.sqrt(r1 + (r2 - r1) * (1.0 + np.sin(np.sqrt(k))) / 2.0)
        params = {"r1": float(r1), "r2": float(r2)}
    elif family == "custom":
        if values is None:
            raise ValueError("custom weights need explicit values")
        vals = np.asarray(values, dtype=float)
        if vals.size != n_weights:
            raise ValueError("custom values must match the requested length")
        params = {}
    else:
        raise ValueError(f"unknown weight family {family!r}")
    return WeightSequence(family, vals, params)


def fock_level_weights(d, top_level):
    """Squared Fock-space monomial norms nu_alpha for levels 0..top_level.

    Solved recursively from sum_k S_k S_k* = I - E_0: for |beta| >= 1,
    nu_beta = 1 / sum_{k: beta_k >= 1} (1 / nu_{beta - e_k}), anchored at
    nu_0 = 1.  Returns a list of per-level arrays in basis order.
    """
    levels = [np.ones(1)]
    index_prev = {tuple([0] * d): 0}
    for n in range(1, top_level + 1):
        basis = monomials.monomial_basis(d, n)
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


class StandardModule:
    """Truncated standard Hilbert module S = G (x) C^r with exact level blocks.

    Parameters
    ----------
    weights : WeightSequence
        rho_0..rho_{N-1}; the module stores levels 0..N and coordinate blocks
        for levels 0..N-1.
    d : int
        Number of variables.
    multiplicity : int
        r = dim E.

    Instances are immutable after construction and safe to share across
    threads; block computations only read cached per-level data.
    """

    def __init__(self, weights, d, multiplicity=1, levels=None):
        if d < 1:
            raise ValueError("need at least one variable")
        if multiplicity < 1:
            raise ValueError("multiplicity must be at least 1")
        n_max = len(weights)
        if levels is None:
            levels = n_max
        if not 1 <= levels <= n_max:
            raise ValueError("levels must lie within the weight window")
        self.weights = weights
        self.d = int(d)
        self.multiplicity = int(multiplicity)
        self.top_level = int(levels)
        self.rho = weights.values[: self.top_level].copy()
        self.nu = fock_level_weights(self.d, self.top_level)
        # c_n = (rho_0 ... rho_{n-1})^2, with the normalization c_0 = 1.
        self.level_scale = np.concatenate(
            ([1.0], np.cumprod(self.rho**2)))
        self._fock_blocks = {}
        self._blocks = {}
        self._scalar_rows = {}
        self._row_blocks = {}

    # -- level geometry -------------------------------------------------

    def scalar_dim(self, n):
        """dim of level n of the underlying completion G (multiplicity 1)."""
        return monomials.level_dimension(self.d, n)

    def level_dim(self, n):
        """dim of level n of S = G (x) C^r."""
        self._check_level(n)
        return self.scalar_dim(n) * self.multiplicity

    def _check_level(self, n):
        if not 0 <= n <= self.top_level:
            raise ValueError(
                f"level {n} outside the stored window 0..{self.top_level}")

    def monomial_norms(self, n):
        """Squared G-norms ||z^alpha||^2 = c_n nu_alpha over the level-n basis."""
        self._check_level(n)
        return self.level_scale[n] * self.nu[n]

    # -- blocks ----------------------------------------------------------

    def fock_block(self, k, n):
        """Symmetric-Fock-space block of S_k from level n to n+1 (multiplicity 1)."""
        key = (k, n)
        cached = self._fock_blocks.get(key)
        if cached is not None:
            return cached
        if not 1 <= k <= self.d:
            raise ValueError("variable index out of range")
        if not 0 <= n <= self.top_level - 1:
            raise ValueError(
                f"no block from level {n}: stored window is 0..{self.top_level}")
        raw = monomials.mult_structure_map(k, self.d, n)
        scale = np.sqrt(self.nu[n + 1])[:, None] * (1.0 / np.sqrt(self.nu[n]))[None, :]
        block = raw * scale
        self._fock_blocks[key] = block
        return block

    def scalar_block(self, k, n):
        """Block of Z_k = rho_n S_k from level n to n+1 on the completion G."""
        fock = self.fock_block(k, n)
        return self.rho[n] * fock

    def coordinate_block(self, k, n):
        """Block of the coordinate operator Z_k on S from level n to n+1."""
        key = (k, n)
        cached = self._blocks.get(key)
        if cached is None:
            cached = np.kron(self.scalar_block(k, n),
                             np.eye(self.multiplicity)).astype(complex)
            self._blocks[key] = cached
        return cached

    def shift(self, k, n, x):
        """Z_k(n) x for coordinate columns x of level n, without the dense block.

        Z_k(n) is ``scalar_block(k, n)`` (x) I_r, so x is reshaped to
        (monomials, r * columns) and multiplied by the real scalar block alone.
        The scalar block has at most one nonzero per row and per column, so
        every entry of the result is one product plus exact zeros: it equals
        ``coordinate_block(k, n) @ x`` bit for bit, up to the sign of a zero,
        which the BLAS kernel decides.
        """
        return self._apply_scalar(self.scalar_block(k, n), x)

    def shift_adjoint(self, k, n, x):
        """Z_k(n)* x for coordinate columns x of level n+1 (exact, as ``shift``).

        The scalar block is real, so its transpose is the adjoint: no complex
        conjugate copy is formed.
        """
        return self._apply_scalar(self.scalar_block(k, n).T, x)

    def _apply_scalar(self, scalar, x):
        cols = x.shape[1]
        r = self.multiplicity
        out = scalar @ x.reshape(scalar.shape[1], r * cols)
        return out.reshape(scalar.shape[0] * r, cols)

    def adjoint_block(self, k, n):
        """Block of Z_k* from level n to n-1 (conjugate transpose by construction)."""
        if n < 1:
            raise ValueError("Z_k* annihilates level 0")
        return self.coordinate_block(k, n - 1).conj().T

    def gradient_block(self, k, n):
        """d/dz_k from level n to n-1, in the module's orthonormal level bases.

        On each level Z_k* equals ``adjoint_scalar(n)`` times this block
        (maximal symmetry).
        """
        self._check_level(n)
        if n < 1:
            raise ValueError("nothing to differentiate at level 0")
        raw = monomials.derivative_structure_map(k, self.d, n)
        w_lo = np.sqrt(self.monomial_norms(n - 1))
        w_hi = np.sqrt(self.monomial_norms(n))
        scale = w_lo[:, None] * (1.0 / w_hi)[None, :]
        return np.kron(raw * scale, np.eye(self.multiplicity)).astype(complex)

    def adjoint_scalar(self, n):
        """u(n) with Z_k*|_{level n} = u(n) * gradient_block(k, n): rho_{n-1}^2 / n."""
        if n < 1:
            raise ValueError("defined on levels >= 1")
        return float(self.rho[n - 1] ** 2) / float(n)

    @cached_property
    def row_domain(self):
        """d.S: the standard module of multiplicity d*r over the same completion.

        Its d.E coordinates are ordered copy-major ((zeta_1, ..., zeta_d) with
        zeta_i in E).
        """
        return StandardModule(self.weights, self.d, self.multiplicity * self.d,
                              levels=self.top_level)

    def scalar_row_block(self, n):
        """L_n on the completion G: the real (h_{n+1}, d h_n) block [Z_1(n) .. Z_d(n)].

        Column (monomial, copy i) holds the column of ``scalar_block(i, n)``,
        so ``row_block(n)`` is this block (x) I_r.  Cached per level on its
        own, so that callers of ``row_block`` do not hold it as well.
        """
        cached = self._scalar_rows.get(n)
        if cached is None:
            cached = self._scalar_rows[n] = self._stacked_scalar_blocks(n)
        return cached

    def row_block(self, n):
        """Block L_n: (d.S)_n -> S_{n+1} of the row operator L(xi) = sum_k Z_k xi_k."""
        cached = self._row_blocks.get(n)
        if cached is None:
            # column (monomial, copy i, component) of the d.S level: copy-major d.E
            cached = np.kron(self._stacked_scalar_blocks(n),
                             np.eye(self.multiplicity)).astype(complex)
            self._row_blocks[n] = cached
        return cached

    def _stacked_scalar_blocks(self, n):
        if not 0 <= n <= self.top_level - 1:
            raise ValueError(f"no row block at level {n}")
        scalar = np.stack([self.scalar_block(i, n) for i in range(1, self.d + 1)], axis=-1)
        return scalar.reshape(scalar.shape[0], -1)

    def row(self, n, x):
        """L_n x for coordinate columns x of (d.S)_n, without the dense row block.

        x is multiplied by ``scalar_row_block(n)`` as in ``shift``; each entry
        sums up to d products, in the order of the dense product.
        """
        return self._apply_scalar(self.scalar_row_block(n), x)

    def row_adjoint(self, n, x):
        """L_n* x for coordinate columns x of S_{n+1}, without the dense row block.

        Each entry is one product plus exact zeros, as in ``shift_adjoint``, so
        it equals ``row_block(n).conj().T @ x`` up to the sign of a zero.
        """
        return self._apply_scalar(self.scalar_row_block(n).T, x)

    def coordinate_tuple(self):
        """The d coordinate operators as degree-1 graded block operators."""
        return [
            GradedOperator(1, {n: self.coordinate_block(k, n)
                               for n in range(self.top_level)})
            for k in range(1, self.d + 1)
        ]

    def level_basis(self, n):
        """Monomial labels (alpha, component) indexing level-n coordinates."""
        basis = monomials.monomial_basis(self.d, n)
        return [(alpha, c) for alpha in basis.monomials
                for c in range(self.multiplicity)]


# -- Appendix-style diagnostics -----------------------------------------


def row_sum_residual(module, n):
    """|| sum_k Z_k(n) Z_k(n)* - rho_n^2 I ||_2 on level n+1.

    The defining identity of the weighted d-shift realization.
    """
    dim = module.level_dim(n + 1)
    acc = np.zeros((dim, dim), dtype=complex)
    for k in range(1, module.d + 1):
        blk = module.coordinate_block(k, n)
        acc += blk @ blk.conj().T
    acc -= module.rho[n] ** 2 * np.eye(dim)
    return float(np.linalg.norm(acc, 2))


def commutator_decomposition_residual(module, j, k, n):
    """Residual of [Z_j*, Z_k] = [S_j*, S_k] Dt^2 + S_k S_j* (Dt^2 - D^2) on level n.

    D is the weight diagonal seen from below (rho_{n-1} on level n), Dt the
    one seen on the level itself (rho_n); both sides are evaluated as exact
    level-n matrices for 1 <= n <= N-1.
    """
    if not 1 <= n <= module.top_level - 1:
        raise ValueError("defined on interior levels 1..N-1")
    rho = module.rho
    zj = [module.coordinate_block(j, m) for m in (n - 1, n)]
    zk = [module.coordinate_block(k, m) for m in (n - 1, n)]
    lhs = zj[1].conj().T @ zk[1] - zk[0] @ zj[0].conj().T

    sj = [np.kron(module.fock_block(j, m), np.eye(module.multiplicity))
          for m in (n - 1, n)]
    sk = [np.kron(module.fock_block(k, m), np.eye(module.multiplicity))
          for m in (n - 1, n)]
    fock_comm = sj[1].conj().T @ sk[1] - sk[0] @ sj[0].conj().T
    rhs = fock_comm * rho[n] ** 2 \
        + (sk[0] @ sj[0].conj().T) * (rho[n] ** 2 - rho[n - 1] ** 2)
    return float(np.linalg.norm(lhs - rhs, 2))


# -- scalar weight diagnostics ------------------------------------------


@dataclass(frozen=True)
class OscillationReport:
    """Slow-oscillation evidence for a weight sequence (no verdict attached)."""

    tail_max: float         # max |rho_{k+1} - rho_k| over the tail window
    slope: float            # log-log decay exponent estimate, or None
    tail_window: int
    diff_count: int


def oscillation_report(weights, tail_window):
    """Tail maximum and decay-slope estimate for the differences rho_{k+1} - rho_k.

    The limit condition itself is not decidable at finite truncation, so only
    the evidence is reported.
    """
    rho = weights.values
    if len(weights) < 2:
        raise ValueError("need at least two weights")
    if not 1 <= tail_window <= len(weights):
        raise ValueError("tail window out of range")
    diffs = np.diff(rho)
    tail = diffs[-tail_window:]
    ks = np.arange(diffs.size)
    slope = loglog_slope(ks, diffs)
    return OscillationReport(float(np.max(np.abs(tail))), slope,
                             int(tail_window), int(diffs.size))


@dataclass(frozen=True)
class SummabilityReport:
    """Partial sums of sum_k k^{d-1} |rho_{k+1} - rho_k|^p with a trend call."""

    p: float
    indices: np.ndarray
    partial_sums: np.ndarray
    trend: TrendReport


def summability_report(weights, d, p):
    """Schatten-membership evidence for the weight sequence at exponent p >= 1."""
    if p < 1:
        raise ValueError("p must be at least 1")
    rho = weights.values
    if rho.size < 3:
        raise ValueError("window too small")
    k = np.arange(1, rho.size - 1, dtype=float)
    summands = k ** (d - 1) * np.abs(rho[2:] - rho[1:-1]) ** p
    return SummabilityReport(float(p), k, np.cumsum(summands),
                             classify_trend(k, summands))


def number_trace_report(d, p, top_level):
    """Partial sums of trace (N+1)^{-p} = sum_n (n+1)^{-p} dim A_n with a trend call."""
    if p < 1:
        raise ValueError("p must be at least 1")
    n = np.arange(top_level + 1)
    dims = np.array([monomials.level_dimension(d, int(m)) for m in n], dtype=float)
    summands = (n + 1.0) ** (-float(p)) * dims
    return SummabilityReport(float(p), n + 1.0, np.cumsum(summands),
                             classify_trend(n + 1.0, summands, burn_in=TREND_BURN_IN))
