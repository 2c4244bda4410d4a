"""Graded submodules of a standard Hilbert module and their quotients.

A submodule is stored levelwise: an orthonormal column basis of M_n inside
the level-n coordinates of the ambient module, for every stored level.
Generation follows the grading: M_n is spanned by the coordinate images of
M_{n-1} together with the degree-n generators, orthonormalized with the
project rank tolerance.

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
from .operators import GradedOperator


# -- vector polynomials and their text format ----------------------------


@dataclass(frozen=True)
class VectorPolynomial:
    """Homogeneous E-valued polynomial: terms (exponents, component, coefficient)."""

    degree: int
    terms: tuple

    def __post_init__(self):
        if not self.terms:
            raise ValueError("a generator needs at least one term")
        for alpha, comp, _ in self.terms:
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


def format_generator(poly):
    parts = [f"{format_complex(complex(c))} ({' '.join(str(a) for a in alpha)})@e{comp + 1}"
             for alpha, comp, c in poly.terms]
    return f"{poly.degree} " + " + ".join(parts)


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
    window: int = 0
    max_generator_degree: int | None = None
    degenerate_zero: bool = False
    witnessed_levels: int = 0


# -- graded submodules -----------------------------------------------------


class GradedSubmodule:
    """Levelwise orthonormal bases of a graded submodule M of a standard module."""

    def __init__(self, module, level_bases, generators=None,
                 max_generator_degree=None, window=None):
        self.module = module
        self.window = module.top_level if window is None else int(window)
        if not 0 <= self.window <= module.top_level:
            raise ValueError("window exceeds the ambient module")
        self.level_bases = {}
        for n in range(self.window + 1):
            b = np.asarray(level_bases.get(n,
                           np.zeros((module.level_dim(n), 0))), dtype=complex)
            if b.shape[0] != module.level_dim(n):
                raise ValueError(f"level {n} basis has wrong ambient dimension")
            self.level_bases[n] = b
        self.generators = tuple(generators) if generators else ()
        self.max_generator_degree = max_generator_degree
        self._degree_report = None
        # levels k with M_{k+1} = sum_j Z_j M_k by construction (set by _grow)
        self._saturated_by_construction = frozenset()

    # construction --------------------------------------------------------

    @classmethod
    def generate(cls, module, generators, window=None):
        """Generate levelwise from homogeneous generators: M_n = sum_k Z_k M_{n-1} + gens_n."""
        window = module.top_level if window is None else int(window)
        by_degree = {}
        for g in generators:
            if g.degree > window:
                raise ValueError(
                    f"generator degree {g.degree} exceeds the window {window}")
            by_degree.setdefault(g.degree, []).append(g)
        seeds = {deg: embed_polynomials(module, polys)
                 for deg, polys in by_degree.items()}
        sub = cls._grow(module, seeds, window)
        sub.generators = tuple(generators)
        sub.max_generator_degree = max(by_degree) if by_degree else None
        return sub

    @classmethod
    def from_level_seeds(cls, module, seeds, max_generator_degree=None, window=None):
        """Generate from raw coordinate columns seeded at given levels."""
        window = module.top_level if window is None else int(window)
        sub = cls._grow(module, {int(n): np.asarray(s, dtype=complex)
                                 for n, s in seeds.items()}, window)
        if max_generator_degree is None and seeds:
            max_generator_degree = max(int(n) for n in seeds)
        sub.max_generator_degree = max_generator_degree
        return sub

    @classmethod
    def _grow(cls, module, seeds, window):
        bases = {}
        saturated = set()
        prev = np.zeros((module.level_dim(0), 0), dtype=complex)
        for n in range(window + 1):
            cols = []
            if n > 0 and prev.shape[1] > 0:
                for k in range(1, module.d + 1):
                    cols.append(module.coordinate_block(k, n - 1) @ prev)
            if n in seeds and seeds[n].shape[1] > 0:
                cols.append(seeds[n])
            elif n > 0:
                # M_n is the span of sum_k Z_k M_{n-1} alone, taken with the
                # rank rule of numerical_rank: the saturation flag of level
                # n-1 is True by construction
                saturated.add(n - 1)
            if cols:
                prev = linalg.orthonormal_columns(np.hstack(cols))
            else:
                prev = np.zeros((module.level_dim(n), 0), dtype=complex)
            bases[n] = prev
        sub = cls(module, bases, window=window)
        sub._saturated_by_construction = frozenset(saturated)
        return sub

    @classmethod
    def zero(cls, module, window=None):
        return cls(module, {}, max_generator_degree=0, window=window)

    @classmethod
    def full(cls, module, window=None):
        window = module.top_level if window is None else int(window)
        return cls(module,
                   {n: np.eye(module.level_dim(n), dtype=complex)
                    for n in range(window + 1)},
                   max_generator_degree=0, window=window)

    # queries --------------------------------------------------------------

    def basis(self, n):
        try:
            return self.level_bases[n]
        except KeyError:
            raise ValueError(f"level {n} outside the stored window") from None

    def dim(self, n):
        return self.basis(n).shape[1]

    def dims(self):
        return [self.dim(n) for n in range(self.window + 1)]

    def projection_block(self, n):
        """Orthogonal projection onto M_n inside level n (Hermitian idempotent)."""
        return linalg.projector(self.basis(n))

    def orthonormality_residual(self):
        return max(linalg.orthonormality_residual(self.basis(n))
                   for n in range(self.window + 1))

    def invariance_residual(self):
        """max over k, n of ||(I - P_{M_{n+1}}) Z_k M_n||: 0 for a true submodule."""
        worst = 0.0
        for n in range(min(self.window, self.module.top_level - 1)):
            outer = self.basis(n + 1)
            for k in range(1, self.module.d + 1):
                img = self.module.coordinate_block(k, n) @ self.basis(n)
                if img.shape[1] == 0:
                    continue
                worst = max(worst, linalg.opnorm(
                    img - outer @ (outer.conj().T @ img)))
        return worst

    def saturation_flags(self):
        """flags[k]: does sum_j Z_j M_k span all of M_{k+1}?

        Levels that ``_grow`` built from sum_j Z_j M_k alone are saturated by
        construction; only the other levels pay a rank decision.
        """
        flags = {}
        for k in range(self.window):
            target = self.dim(k + 1)
            if k in self._saturated_by_construction:
                flags[k] = True
                continue
            if self.dim(k) == 0:
                flags[k] = target == 0
                continue
            spanned = np.hstack([
                self.module.coordinate_block(j, k) @ self.basis(k)
                for j in range(1, self.module.d + 1)])
            flags[k] = linalg.numerical_rank(spanned) == target
        return flags

    def degree_report(self):
        """Degree per the smallest-saturation-level definition, with honesty flags."""
        if self._degree_report is not None:
            return self._degree_report
        flags = self.saturation_flags()
        degenerate = all(self.dim(n) == 0 for n in range(self.window + 1))
        false_levels = [k for k, ok in flags.items() if not ok]
        candidate = (max(false_levels) + 1) if false_levels else 0
        g = self.max_generator_degree
        threshold = candidate if g is None else max(candidate, g)
        witnessed = self.window - threshold  # saturated levels threshold..window-1
        determined = degenerate or witnessed >= 2
        report = DegreeReport(
            degree=candidate if determined else None,
            determined=determined,
            flags=flags,
            window=self.window,
            max_generator_degree=g,
            degenerate_zero=degenerate,
            witnessed_levels=max(witnessed, 0),
        )
        self._degree_report = report
        return report

    @property
    def degree(self):
        return self.degree_report().degree

    def is_reducing(self):
        """(True, V basis in E) when the submodule is a summand G (x) V; else (False, None).

        Reducing is equivalent to degree 0; the levelwise identity
        M_n = A_n (x) V is verified against the stored bases.
        """
        report = self.degree_report()
        if not report.determined or report.degree != 0:
            return False, None
        v = self.basis(0)  # level 0 of S is E itself
        for n in range(self.window + 1):
            expected = np.kron(
                np.eye(monomials.level_dimension(self.module.d, n)), v)
            if linalg.subspace_distance(expected, self.basis(n)) > SPAN_TOL:
                return False, None
        return True, v


# -- quotients ---------------------------------------------------------------


class QuotientModule:
    """Quotient S/M realized on the levelwise orthocomplements of M.

    ``coquotient_bases`` may be supplied to realize the quotient on a
    preferred orthonormal basis of the complement (the linearization theory
    wants specific ones); otherwise complements are computed directly.
    """

    def __init__(self, submodule, coquotient_bases=None):
        self.submodule = submodule
        self.module = submodule.module
        self.window = submodule.window
        self.coquotient_bases = {}
        for n in range(self.window + 1):
            if coquotient_bases is not None and n in coquotient_bases:
                c = np.asarray(coquotient_bases[n], dtype=complex)
                if c.shape != (self.module.level_dim(n),
                               self.module.level_dim(n) - submodule.dim(n)):
                    raise ValueError(f"bad coquotient basis shape at level {n}")
            else:
                c = linalg.complement_basis(submodule.basis(n))
            self.coquotient_bases[n] = c
        self._blocks = {}

    def basis(self, n):
        return self.coquotient_bases[n]

    def dim(self, n):
        return self.basis(n).shape[1]

    def dims(self):
        return [self.dim(n) for n in range(self.window + 1)]

    def block(self, k, n):
        """Compressed coordinate block C_{n+1}* Z_k(n) C_n on the quotient."""
        key = (k, n)
        if key not in self._blocks:
            if not 0 <= n <= self.window - 1:
                raise ValueError(f"no quotient block from level {n}")
            self._blocks[key] = self.basis(n + 1).conj().T \
                @ self.module.coordinate_block(k, n) @ self.basis(n)
        return self._blocks[key]

    def coordinate_tuple(self):
        return [
            GradedOperator(1, {n: self.block(k, n) for n in range(self.window)})
            for k in range(1, self.module.d + 1)
        ]
