"""Graded submodules of a standard Hilbert module and their quotients.

A submodule M is stored on its quotient side: for every stored level n, an
orthonormal basis Q_n of the orthocomplement M_n^perp inside the level-n
coordinates of the ambient module.  For the submodules the paper studies
these levels are small (two generic cubics in three variables leave
dim Q_n = 9 at every n >= 4), while M_n fills almost the whole level.

Generation is the co-invariant Euler recursion.  With G_n the degree-n
generators, Q_n = {f perp G_n : Z_k* f in Q_{n-1} for every k}.  Every
standard module is maximally symmetric, so Z_k* is a multiple of d/dz_k and
the row-sum identity puts Q_n inside the span of the Z_k Q_{n-1}; each level
solves one small nullspace problem on that span (``cosaturation``).  Any
orthonormal superspace of the span gives the same answer with the same cut,
so where the d dim Q_{n-1} candidates could fill the level the problem is
solved on the whole level and the candidate block is never factored
(``euler_candidates``).

Every submodule carries the saturation flags of the construction that built
it (generation their recursion's, and E_V^perp of ``linearize.ev_space`` is
generated too; a pullback its input's shifted, with one dimension count at
level 0; ker L the closed form of its Koszul generation).  Every submodule
spans all levels 0..N of its module: the module alone owns the truncation
window.  Z_k and Z_k* act through ``StandardModule.shift`` and
``adjoint_stack``, a scatter and a gather on the level's successor table,
never through a dense block of the ambient module.  Degrees, residuals and
projections read Q, and so does the quotient S/M: it is realized on the Q_n,
and ``GradedSubmodule.quotient_tuple`` is its compressed coordinate tuple.
A basis of M_n is the complement of Q_n, computed only on request.

Degree reporting is deliberately conservative: a degree is only declared when
saturation is witnessed on at least two consecutive levels beyond both the
candidate and the largest generator degree, and ``determined`` is False
otherwise.  Truncations are not extrapolated.
"""

import cmath
import re
from dataclasses import dataclass, field

import numpy as np

from . import linalg, monomials
from .config import SPAN_TOL


# -- vector polynomials and their text format ----------------------------


@dataclass(frozen=True)
class VectorPolynomial:
    """Homogeneous E-valued polynomial: terms (exponents, component, coefficient)."""

    degree: int
    terms: tuple

    def __post_init__(self):
        if not self.terms:
            raise ValueError("a generator needs at least one term")
        for alpha, comp, coeff in self.terms:
            if min(alpha, default=0) < 0:
                raise ValueError(f"negative exponent in term {format_term(alpha, comp, coeff)}")
            if sum(alpha) != self.degree:
                raise ValueError(
                    f"inhomogeneous generator: term {alpha} in a degree-"
                    f"{self.degree} polynomial")
            if comp < 0:
                raise ValueError("component indices are nonnegative")


def monomial_generator(alpha, comp=0, coeff=1.0):
    """Convenience constructor for a single-term generator z^alpha (x) e_comp."""
    alpha = tuple(int(a) for a in alpha)
    return VectorPolynomial(sum(alpha), ((alpha, int(comp), complex(coeff)),))


def parse_complex(text):
    """Parse ``a+bi`` style complex scalars (also plain reals, ``2i``, ``-i``)."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError("empty complex literal")
    if "i" in s and any(c not in "0123456789+-.ei" for c in s):
        raise ValueError(f"bad complex literal {text!r}")
    try:
        z = complex(s.replace("i", "j"))
    except ValueError:
        raise ValueError(f"bad complex literal {text!r}") from None
    if not cmath.isfinite(z):
        raise ValueError(f"non-finite complex literal {text!r}")
    return z


def format_complex(z):
    re_part = f"{z.real:.15g}"
    im_part = f"{z.imag:+.15g}"
    return f"{re_part}{im_part}i"


_TERM_RE = re.compile(r"^\s*(?P<coeff>\S+)\s*\((?P<alpha>[^)]*)\)@e(?P<comp>\d+)\s*$")


def parse_generator_line(line, d):
    """One generator per line: ``deg  c (a_1 .. a_d)@e_i + c (a_1 .. a_d)@e_j + ...``

    ``c`` is a complex scalar written ``a+bi`` and component indices are
    1-based.  The leading integer is the declared homogeneous degree and is
    validated against every term.
    """
    stripped = line.strip()
    fields = stripped.split(None, 1)
    if len(fields) != 2:
        raise ValueError(f"malformed generator line: {line!r}")
    try:
        degree = int(fields[0])
    except ValueError:
        raise ValueError(f"missing degree prefix in {line!r}") from None
    terms = []
    for raw in re.split(r"\s\+\s", fields[1]):
        m = _TERM_RE.match(raw)
        if m is None:
            raise ValueError(f"malformed term {raw!r}")
        alpha = tuple(int(tok) for tok in m.group("alpha").split())
        if len(alpha) != d:
            raise ValueError(
                f"term {raw!r} has {len(alpha)} exponents, expected {d}")
        comp = int(m.group("comp"))
        if comp < 1:
            raise ValueError("component indices are 1-based")
        terms.append((alpha, comp - 1, parse_complex(m.group("coeff"))))
    return VectorPolynomial(degree, tuple(terms))


def parse_generators(text, d):
    """Parse a generators file: one VectorPolynomial per nonblank, non-# line."""
    gens = []
    for line in text.splitlines():
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        gens.append(parse_generator_line(line, d))
    return gens


def format_term(alpha, comp, coeff):
    """One term as a generators file writes it: ``c (a_1 .. a_d)@e_i``."""
    return f"{format_complex(complex(coeff))} ({' '.join(str(a) for a in alpha)})@e{comp + 1}"


def format_generator(poly):
    return f"{poly.degree} " + " + ".join(format_term(*term) for term in poly.terms)


def embed_polynomials(module, polys):
    """Coordinate columns of homogeneous polynomials in the orthonormal level basis.

    All polynomials must share one degree; coefficients are rescaled by the
    monomial norms so that spans are taken in the module's inner product.
    """
    if not polys:
        raise ValueError("nothing to embed")
    degree = polys[0].degree
    if any(p.degree != degree for p in polys):
        raise ValueError("polynomials must share one homogeneous degree")
    basis = monomials.monomial_basis(module.d, degree)
    norms = np.sqrt(module.monomial_norms(degree))
    r = module.multiplicity
    out = np.zeros((module.level_dim(degree), len(polys)), dtype=complex)
    for col, poly in enumerate(polys):
        for alpha, comp, coeff in poly.terms:
            if comp >= r:
                raise ValueError(
                    f"component {comp + 1} exceeds multiplicity {r}")
            idx = basis.index(alpha)
            out[idx * r + comp, col] += coeff * norms[idx]
    return out


# -- degree report --------------------------------------------------------


@dataclass(frozen=True)
class DegreeReport:
    """Observed saturation structure of a graded submodule."""

    degree: int | None
    determined: bool
    flags: dict = field(repr=False)   # level k -> M_{k+1} == sum_j Z_j M_k
    window: int
    max_generator_degree: int | None
    degenerate_zero: bool
    witnessed_levels: int


# -- the co-invariant Euler recursion ----------------------------------------


def euler_candidates(module, prev, n):
    """Orthonormal basis of a space inside level n that contains C_n = sum_k Z_k span(prev).

    ``prev`` has orthonormal columns in level n-1.  Its callers solve a
    nullspace problem whose answer lies in C_n and is the same on any
    orthonormal superspace of it (``cosaturation``), so a block of
    d dim(prev) >= dim(level n) columns, which C_n may fill, is never
    formed: the identity of the level is returned.  A narrower block is
    orthonormalized to C_n itself (``linalg.orthonormal_columns``).
    """
    dim = module.level_dim(n)
    if module.d * prev.shape[1] >= dim:
        return np.eye(dim, dtype=complex)
    return linalg.orthonormal_columns(np.hstack(
        [module.shift(k, n - 1, prev) for k in range(1, module.d + 1)]))


def cosaturation(module, quotient_prev, n):
    """Orthonormal basis of R_n = {f in level n : Z_k* f in span(Q_{n-1}) for all k}.

    R_n is the orthocomplement of sum_k Z_k M_{n-1}, given Q_{n-1} = M_{n-1}^perp.
    The row-sum identity sum_k Z_k Z_k* = rho_{n-1}^2 I on level n writes every
    f in R_n as rho_{n-1}^{-2} sum_k Z_k (Z_k* f), so R_n lies in
    C_n = sum_k Z_k Q_{n-1} (Euler's identity, as Z_k* = u(n) d_k), and the
    nullspace of the stacked rows (I - P_{Q_{n-1}}) Z_k* is solved on C_n:
    at most d dim Q_{n-1} columns.  The stacked rows are a compression of
    L_{n-1}*, whose norm is rho_{n-1} exactly, so the rank cut is taken
    relative to rho_{n-1}.  Solving on a superspace of C_n (the whole level,
    for a wide candidate block: ``euler_candidates``) gives the same answer
    with the same cut: for f perpendicular to C_n, Q_{n-1}* Z_k* f = 0 for
    every k, so the rows act on f as L_{n-1}* does, and by the row-sum
    identity f is a right singular vector with singular value rho_{n-1}.
    """
    dim_prev = quotient_prev.shape[1]
    if dim_prev == 0:
        return np.zeros((module.level_dim(n), 0), dtype=complex)
    if dim_prev == module.level_dim(n - 1):
        # M_{n-1} = 0, so nothing constrains level n
        return np.eye(module.level_dim(n), dtype=complex)
    cand = euler_candidates(module, quotient_prev, n)
    rows = module.adjoint_stack(n - 1, cand)
    rows -= quotient_prev @ (quotient_prev.conj().T @ rows)
    return cand @ linalg.nullspace(rows.reshape(-1, cand.shape[1]),
                                   scale=module.rho[n - 1])


# -- graded submodules -----------------------------------------------------


class GradedSubmodule:
    """A graded submodule M of a standard module, held by its quotient side.

    ``quotient_bases[n]`` is an orthonormal basis Q_n of M_n^perp for every
    level n = 0..N of the module.  ``flags`` (level k -> M_{k+1} == sum_j Z_j M_k,
    one per level k < N) come from the construction that built M
    (see the module docstring).  M_n is the complement of Q_n, computed once
    on request.
    """

    def __init__(self, module, quotient_bases, flags, max_generator_degree=None):
        self.module = module
        self.quotient_bases = {}
        for n in range(module.top_level + 1):
            q = np.asarray(quotient_bases[n], dtype=complex)
            if q.ndim != 2 or q.shape[0] != module.level_dim(n):
                raise ValueError(f"level {n} quotient basis has wrong ambient dimension")
            self.quotient_bases[n] = q
        self.max_generator_degree = max_generator_degree
        self._flags = flags
        self._bases = {}

    # construction --------------------------------------------------------

    @classmethod
    def generate(cls, module, generators):
        """Generate levelwise from homogeneous generators: M_n = sum_k Z_k M_{n-1} + gens_n."""
        by_degree = {}
        for g in generators:
            if g.degree > module.top_level:
                raise ValueError(f"generator degree {g.degree} exceeds "
                                 f"the window {module.top_level}")
            by_degree.setdefault(g.degree, []).append(g)
        return cls.from_level_seeds(module, {deg: embed_polynomials(module, polys)
                                             for deg, polys in by_degree.items()})

    @classmethod
    def from_level_seeds(cls, module, seeds):
        """Generate from raw coordinate columns seeded at given levels.

        Q_n = {f in R_n : G_n* f = 0}, level by level (see ``cosaturation``).
        G_n holds the degree-n seeds, orthonormalized.  The flag of level n-1
        is whether the G_n rows cut R_n down; without seeds at n it is True.
        The G_n rows have norm 1 on orthonormal columns, so their rank cut is
        relative to 1.  The largest seed level is the maximal generator
        degree (0 without seeds).  A seed level outside 0..N raises ValueError.
        """
        window = module.top_level
        seeds = {int(n): np.asarray(s, dtype=complex) for n, s in seeds.items()}
        for n in seeds:
            if not 0 <= n <= window:
                raise ValueError(f"seed level {n} is outside the window 0..{window}")
        quotient = {}
        flags = {}
        for n in range(window + 1):
            cosat = (np.eye(module.level_dim(0), dtype=complex) if n == 0
                     else cosaturation(module, quotient[n - 1], n))
            q = cosat
            if n in seeds:
                gens = linalg.orthonormal_columns(seeds[n])
                q = cosat @ linalg.nullspace(gens.conj().T @ cosat, scale=1.0)
            if n > 0:
                flags[n - 1] = q.shape[1] == cosat.shape[1]
            quotient[n] = q
        return cls(module, quotient, flags,
                   max_generator_degree=max(seeds, default=0))

    # queries --------------------------------------------------------------

    def quotient_basis(self, n):
        """Q_n: orthonormal basis of M_n^perp."""
        try:
            return self.quotient_bases[n]
        except KeyError:
            raise ValueError(f"level {n} outside the stored window") from None

    def basis(self, n):
        """Orthonormal basis of M_n: the complement of Q_n, computed once on request."""
        q = self.quotient_basis(n)
        if n not in self._bases:
            self._bases[n] = linalg.complement_basis(q)
        return self._bases[n]

    def dim(self, n):
        q = self.quotient_basis(n)
        return q.shape[0] - q.shape[1]

    def dims(self):
        return [self.dim(n) for n in range(self.module.top_level + 1)]

    def quotient_tuple(self):
        """The compressed tuple of S/M: one (d, dim Q_{n+1}, dim Q_n) stack per level n < N.

        Entry [k-1] of level n is Q_{n+1}* Z_k(n) Q_n, taken as the adjoint of
        each Z_k* Q_{n+1} (``adjoint_stack``) times Q_n.
        """
        q = self.quotient_bases
        return {n: np.asarray([z.conj().T @ q[n] for z in
                               self.module.adjoint_stack(n, q[n + 1])], dtype=complex)
                for n in range(self.module.top_level)}

    def projection_block(self, n):
        """Orthogonal projection onto M_n inside level n: I - Q_n Q_n*."""
        q = self.quotient_basis(n)
        return np.eye(q.shape[0], dtype=complex) - linalg.projector(q)

    def orthonormality_residual(self, bound):
        """max over n of ||Q_n* Q_n - I||, and ``bound`` (``linalg.residual``)."""
        return linalg.largest([linalg.orthonormality_residual(q, bound)
                               for q in self.quotient_bases.values()], bound)

    def invariance_residual(self, bound):
        """max over k and n < N of ||(I - P_{Q_n}) Z_k* Q_{n+1}||, and ``bound``: 0 for a true submodule.

        Every stored level is checked, the top one Q_N included.  This is
        the adjoint of ||(I - P_{M_{n+1}}) Z_k P_{M_n}||: Z_k M_n lies in
        M_{n+1} exactly when Z_k* maps M_{n+1}^perp into M_n^perp.  Each
        level takes one gather, the (d, h_n r, q_{n+1}) stack of the
        Z_k* Q_{n+1} (``adjoint_stack``), and one stacked residual per level,
        which takes no SVD when its Frobenius norm is at most ``bound``.
        """
        values = []
        for n in range(self.module.top_level):
            img = self.module.adjoint_stack(n, self.quotient_basis(n + 1))
            values.append(linalg.containment_residual(img, self.quotient_basis(n), bound))
        return linalg.largest(values, bound)

    def saturation_flags(self):
        """flags[k]: does sum_j Z_j M_k span all of M_{k+1}?

        Equivalently dim Q_{k+1} = dim R_{k+1} (``cosaturation``).  These
        are the flags the construction proved.
        """
        return dict(self._flags)

    def degree_report(self):
        """Degree per the smallest-saturation-level definition, with honesty flags."""
        flags = self.saturation_flags()
        window = self.module.top_level
        degenerate = all(self.dim(n) == 0 for n in range(window + 1))
        false_levels = [k for k, ok in flags.items() if not ok]
        candidate = (max(false_levels) + 1) if false_levels else 0
        g = self.max_generator_degree
        threshold = candidate if g is None else max(candidate, g)
        witnessed = window - threshold  # saturated levels threshold..window-1
        determined = degenerate or witnessed >= 2
        return DegreeReport(
            degree=candidate if determined else None,
            determined=determined,
            flags=flags,
            window=window,
            max_generator_degree=g,
            degenerate_zero=degenerate,
            witnessed_levels=max(witnessed, 0),
        )

    def is_reducing(self):
        """(True, V basis in E) when the submodule is a summand G (x) V; else (False, None).

        Reducing is equivalent to degree 0; the levelwise identity
        Q_n = A_n (x) V^perp is verified against the stored quotient bases.
        """
        report = self.degree_report()
        if not report.determined or report.degree != 0:
            return False, None
        v_perp = self.quotient_basis(0)  # level 0 of S is E itself
        for n in range(self.module.top_level + 1):
            expected = np.kron(
                np.eye(monomials.level_dimension(self.module.d, n)), v_perp)
            if linalg.subspace_distance(expected, self.quotient_basis(n),
                                        SPAN_TOL) > SPAN_TOL:
                return False, None
        return True, self.basis(0)
