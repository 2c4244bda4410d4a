"""Weight sequences and truncated standard Hilbert modules.

A maximally symmetric graded inner product on polynomials is determined (up
to scale) by one positive sequence rho_0, rho_1, ...; the coordinate
multiplications then act, in orthonormal level bases, as rho_n times the
symmetric-Fock-space blocks.  ``StandardModule`` is the ambient object
everything else consumes.  It holds each level n < N as one index table (the
successor of every monomial under every z_k, ``monomials.successors``) plus
one table of weights, and applies Z_k, Z_k*, the row operator L, L* and
d/dz_k as gathers and scatters on that table.  The coordinate and Fock
tuples, one (d, h_{n+1}, h_n) stack per level, are filled straight from the
tables on each call, and are what the exact identities of ``normality``
read; no dense block is cached.

Level bases are orthonormalized monomials: for a maximally symmetric inner
product the monomials are already orthogonal, so orthonormalization is the
diagonal rescale z^alpha / ||z^alpha||.  The Fock weights nu_alpha are NOT
hard-coded as alpha!/|alpha|!; they are produced by the defining projection
identity sum_k S_k S_k* = I - E_0, solved level by level (the closed form is
only a cross-check in the test suite).
"""

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import monomials
from .trends import TrendReport, classify_trend, loglog_slope


@dataclass(frozen=True)
class WeightSequence:
    """Positive weights rho_0..rho_{N-1} defining a maximally symmetric inner product."""

    values: np.ndarray

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


def make_weights(family, n_weights, d=None, r1=None, r2=None):
    """Build a weight family over k = 0..n_weights-1.

    Families: ``dshift`` (rho_k = 1), ``hardy`` (sqrt((k+1)/(k+d))),
    ``bergman`` (sqrt((k+1)/(k+d+1))) and ``sinsqrt`` with parameters
    0 < r1 < r2 (rho_k^2 = r1 + (r2-r1)(1+sin sqrt(k))/2).
    """
    family = str(family).lower()
    if n_weights < 1:
        raise ValueError("need at least one weight")
    k = np.arange(n_weights, dtype=float)
    if family == "dshift":
        vals = np.ones(n_weights)
    elif family == "hardy":
        if d is None or d < 1:
            raise ValueError("hardy weights need the dimension d")
        vals = np.sqrt((k + 1.0) / (k + float(d)))
    elif family == "bergman":
        if d is None or d < 1:
            raise ValueError("bergman weights need the dimension d")
        vals = np.sqrt((k + 1.0) / (k + float(d) + 1.0))
    elif family == "sinsqrt":
        if r1 is None or r2 is None or not (0.0 < r1 < r2):
            raise ValueError("sinsqrt needs 0 < r1 < r2")
        vals = np.sqrt(r1 + (r2 - r1) * (1.0 + np.sin(np.sqrt(k))) / 2.0)
    else:
        raise ValueError(f"unknown weight family {family!r}")
    return WeightSequence(vals)


@lru_cache(maxsize=None)
def fock_level_weights(d, top_level):
    """Squared Fock-space monomial norms nu_alpha for levels 0..top_level.

    Solved recursively from sum_k S_k S_k* = I - E_0: for |beta| >= 1,
    nu_beta = 1 / sum_{k: beta_k >= 1} (1 / nu_{beta - e_k}), anchored at
    nu_0 = 1.  The sum runs over the successor table, in ascending k.
    Returns a tuple of read-only per-level arrays in basis order, cached per
    (d, top_level), so that d.S and every module over the same completion
    share it.
    """
    levels = [np.ones(1)]
    for n in range(1, top_level + 1):
        succ = monomials.successors(d, n - 1)
        inv_prev = 1.0 / levels[n - 1]
        inv = np.zeros(monomials.level_dimension(d, n))
        for k in range(d):
            inv[succ[:, k]] += inv_prev
        levels.append(1.0 / inv)
    for nu in levels:
        nu.flags.writeable = False
    return tuple(levels)


@lru_cache(maxsize=None)
def _fock_range(d, top_level):
    """Per-level min and max of nu_alpha (fl(c nu) is monotone, so they bound c_n nu)."""
    nu = fock_level_weights(d, top_level)
    return np.array([x.min() for x in nu]), np.array([x.max() for x in nu])


class StandardModule:
    """Truncated standard Hilbert module S = G (x) C^r with exact level operators.

    Parameters
    ----------
    weights : WeightSequence
        rho_0..rho_{N-1}; the module stores levels 0..N and coordinate
        operators from levels 0..N-1.
    d : int
        Number of variables.
    multiplicity : int
        r = dim E.

    Instances are immutable after construction and safe to share across
    threads; the operators only read cached per-level tables.
    """

    def __init__(self, weights, d, multiplicity=1):
        if d < 1:
            raise ValueError("need at least one variable")
        if multiplicity < 1:
            raise ValueError("multiplicity must be at least 1")
        self.weights = weights
        self.d = int(d)
        self.multiplicity = int(multiplicity)
        self.top_level = len(weights)
        self.rho = weights.values.copy()
        self.nu = fock_level_weights(self.d, self.top_level)
        # c_n = (rho_0 ... rho_{n-1})^2 with c_0 = 1; the level operators divide
        # by the norms c_n nu_alpha, so each must be a normal float
        with np.errstate(over="ignore"):
            self.level_scale = np.concatenate(([1.0], np.cumprod(self.rho**2)))
            low, high = (self.level_scale * nu
                         for nu in _fock_range(self.d, self.top_level))
        if not (np.all(low >= np.finfo(float).tiny) and np.all(high < np.inf)):
            raise ValueError("monomial norms c_n nu_alpha leave the normal float range")
        self._level_weights = {}

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

    # -- level operators ---------------------------------------------------

    def _tables(self, n, fock=False):
        """Successor table and Z (or Fock) weights from level n to n+1.

        Entry (alpha, k) of the weights is the coefficient of the level-(n+1)
        basis vector succ[alpha, k] in S_k z^alpha (Fock) or Z_k z^alpha =
        rho_n S_k z^alpha.
        """
        if not 0 <= n <= self.top_level - 1:
            raise ValueError(
                f"no block from level {n}: stored window is 0..{self.top_level}")
        cached = self._level_weights.get(n)
        if cached is None:
            succ = monomials.successors(self.d, n)
            fock_w = np.sqrt(self.nu[n + 1])[succ] \
                * (1.0 / np.sqrt(self.nu[n]))[:, None]
            cached = self._level_weights[n] = (succ, fock_w, self.rho[n] * fock_w)
        return cached[0], cached[1 if fock else 2]

    def _scatter(self, n, succ, weights, x):
        """Level n -> n+1: sum_k of block k of x sent along the successor table.

        x holds level-n coordinates ordered (monomial alpha, block k,
        component); row alpha of block k lands on monomial succ[alpha, k]
        with weight weights[alpha, k].  Each k hits distinct monomials, so
        every entry sums its products in ascending k.
        """
        rows, blocks = succ.shape
        r, cols = self.multiplicity, x.shape[1]
        xs = x.reshape(rows, blocks, r * cols)
        out = np.zeros((self.scalar_dim(n + 1), r * cols),
                       dtype=np.result_type(x, weights))
        for k in range(blocks):
            out[succ[:, k]] += weights[:, k, None] * xs[:, k]
        return out.reshape(out.shape[0] * r, cols)

    def _gather(self, succ, weights, x):
        """Level n+1 -> n: the adjoint of ``_scatter``, one product per entry.

        Row (alpha, block k) of the result is weights[alpha, k] times the row
        of monomial succ[alpha, k] of x.
        """
        rows, blocks = succ.shape
        r, cols = self.multiplicity, x.shape[1]
        xs = x.reshape(x.shape[0] // r, r * cols)
        return (weights[:, :, None] * xs[succ]).reshape(rows * blocks * r, cols)

    def shift(self, k, n, x):
        """Z_k(n) x for coordinate columns x of level n: a scatter, no dense block.

        Every entry is one product of x with a Z weight.
        """
        if not 1 <= k <= self.d:
            raise ValueError("variable index out of range")
        succ, weights = self._tables(n)
        return self._scatter(n, succ[:, k - 1:k], weights[:, k - 1:k], x)

    def row(self, n, x):
        """L_n x for coordinate columns x of (d.S)_n: one scatter over all k.

        Each entry sums up to d products, in ascending k.
        """
        return self._scatter(n, *self._tables(n), x)

    def row_adjoint(self, n, x):
        """L_n* x for coordinate columns x of S_{n+1}: a gather, one product per entry.

        Rows are the level-n coordinates of d.S (monomial, copy i, component).
        """
        return self._gather(*self._tables(n), x)

    def adjoint_stack(self, n, x):
        """Z_1(n)* x, ..., Z_d(n)* x as one (d, h_n r, cols) stack, from one gather.

        Block [k-1] is Z_k(n)* x, one product per entry: ``row_adjoint`` with
        its copy index moved to the front.
        """
        h, r, cols = self.scalar_dim(n), self.multiplicity, x.shape[1]
        rows = self.row_adjoint(n, x).reshape(h, self.d, r, cols)
        return rows.transpose(1, 0, 2, 3).reshape(self.d, h * r, cols)

    def gradient(self, n, x):
        """(d/dz_1 x, ..., d/dz_d x) for coordinate columns x of level n >= 1.

        A gather onto level n-1 of d.S (rows: monomial, copy i, component),
        in the module's orthonormal level bases.  Its weights,
        (alpha_k + 1) ||z^alpha|| / ||z^(alpha + e_k)||, are read off
        ``monomial_norms``, independently of the Z weights; by maximal
        symmetry ``row_adjoint(n - 1, x)`` is ``adjoint_scalar(n)`` times it.
        """
        self._check_level(n)
        if n < 1:
            raise ValueError("nothing to differentiate at level 0")
        succ = monomials.successors(self.d, n - 1)
        exps = np.array(monomials.monomial_basis(self.d, n - 1).monomials,
                        dtype=float)
        w_lo = np.sqrt(self.monomial_norms(n - 1))
        w_hi = np.sqrt(self.monomial_norms(n))
        weights = (exps + 1.0) * (w_lo[:, None] * (1.0 / w_hi)[succ])
        return self._gather(succ, weights, x)

    def adjoint_scalar(self, n):
        """u(n) with Z_k*|_{level n} = u(n) d/dz_k (``gradient``): rho_{n-1}^2 / n."""
        if n < 1:
            raise ValueError("defined on levels >= 1")
        return float(self.rho[n - 1] ** 2) / float(n)

    @cached_property
    def row_domain(self):
        """d.S: the standard module of multiplicity d*r over the same completion.

        Its d.E coordinates are ordered copy-major ((zeta_1, ..., zeta_d) with
        zeta_i in E).
        """
        return StandardModule(self.weights, self.d, self.multiplicity * self.d)

    # -- dense blocks, built on every call and never cached -------------------

    def _level_stack(self, n, fock=False):
        """The complex Z_k(n) (or real Fock S_k(n) (x) I_r) of every k, one stack.

        Every entry is one weight of ``_tables``, as ``shift`` applies it.
        """
        succ, weights = self._tables(n, fock=fock)
        r = self.multiplicity
        comp = np.arange(r)
        stack = np.zeros((self.d, self.level_dim(n + 1), self.level_dim(n)),
                         dtype=float if fock else complex)
        rows = (r * succ)[:, :, None] + comp
        cols = r * np.arange(succ.shape[0])[:, None, None] + comp
        stack[np.arange(self.d)[:, None], rows, cols] = weights[:, :, None]
        return stack

    def row_block(self, n):
        """Block L_n: (d.S)_n -> S_{n+1} of the row operator L(xi) = sum_k Z_k xi_k."""
        return self.row(n, np.eye(self.d * self.level_dim(n), dtype=complex))

    def coordinate_tuple(self):
        """Z_1, ..., Z_d: one complex (d, h_{n+1}, h_n) stack per level n < N."""
        return {n: self._level_stack(n) for n in range(self.top_level)}

    def fock_tuple(self):
        """S_1 (x) I_r, ..., S_d (x) I_r as real stacks, with Z_k(n) = rho_n S_k(n)."""
        return {n: self._level_stack(n, fock=True) for n in range(self.top_level)}

    def level_basis(self, n):
        """Monomial labels (alpha, component) indexing level-n coordinates."""
        basis = monomials.monomial_basis(self.d, n)
        return [(alpha, c) for alpha in basis.monomials
                for c in range(self.multiplicity)]


# -- scalar weight diagnostics ------------------------------------------


@dataclass(frozen=True)
class OscillationReport:
    """Slow-oscillation evidence for a weight sequence (no verdict attached)."""

    tail_max: float         # max |rho_{k+1} - rho_k| over the tail window
    slope: float            # log-log decay exponent estimate, or None
    tail_window: int


def oscillation_report(weights, tail_window):
    """Tail maximum and decay-slope estimate for the differences rho_{k+1} - rho_k.

    The limit condition itself is not decidable at finite truncation, so only
    the evidence is reported.
    """
    diffs = np.diff(weights.values)
    if diffs.size < 1:
        raise ValueError("need at least two weights")
    if not 1 <= tail_window <= diffs.size:
        raise ValueError(f"tail window {tail_window} outside 1..{diffs.size}, "
                         "the number of differences")
    tail = diffs[-tail_window:]
    slope = loglog_slope(np.arange(diffs.size), diffs)
    return OscillationReport(float(np.max(np.abs(tail))), slope, int(tail_window))


@dataclass(frozen=True)
class SummabilityReport:
    """Partial sums of sum_k k^{d-1} |rho_{k+1} - rho_k|^p with a trend call."""

    partial_sums: np.ndarray
    trend: TrendReport


def summability_report(weights, d, p):
    """Schatten-membership evidence for the weight sequence at exponent p >= 1.

    Raises ValueError when a partial sum is not a finite float: a trend call
    on an overflowed sum says nothing.
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    rho = weights.values
    if rho.size < 3:
        raise ValueError("window too small")
    k = np.arange(1, rho.size - 1, dtype=float)
    diffs = np.abs(rho[2:] - rho[1:-1])
    # an exactly constant step adds 0 even where k^(d-1) overflows
    with np.errstate(over="ignore", invalid="ignore"):
        summands = np.where(diffs > 0, k ** (d - 1) * diffs ** p, 0.0)
        sums = np.cumsum(summands)
    if not np.isfinite(sums).all():
        raise ValueError(f"the p = {p:g} summability sums leave the float range")
    return SummabilityReport(sums, classify_trend(k, summands))


def number_trace_report(d, p, top_level):
    """Partial sums of trace (N+1)^{-p} = sum_n (n+1)^{-p} dim A_n with a trend call.

    Raises ValueError when the top level dimension C(N+d-1, d-1) or a
    partial sum is not a finite float.
    """
    if p < 1:
        raise ValueError("p must be at least 1")
    if d < 1:
        raise ValueError("need at least one variable")
    n = np.arange(top_level + 1)
    # the level dimensions C(m+d-1, d-1), as monomials.level_dimension gives them
    try:
        dims = np.array([math.comb(m + d - 1, d - 1) for m in range(top_level + 1)],
                        dtype=float)
    except OverflowError:
        raise ValueError(f"the level dimensions at d = {d}, N = {top_level} "
                         "leave the float range") from None
    with np.errstate(over="ignore"):
        summands = (n + 1.0) ** (-float(p)) * dims
        sums = np.cumsum(summands)
    if not np.isfinite(sums).all():
        raise ValueError(f"the p = {p:g} number-operator trace sums leave the float range")
    return SummabilityReport(sums, classify_trend(n + 1.0, summands))
