import numpy as np
import pytest
from hypothesis import strategies as st

import gradmod as gm

FAMILIES = ("dshift", "hardy", "bergman", "sinsqrt")

# (rows, cols) of operands met in the benchmark's workloads: the largest
# nullspace operand of a ``rank`` pass and of a ``desk`` pass
RANK_SIZED = (828, 27)
DESK_SIZED = (20, 4)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def complex_gaussian(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def counted_lapack(monkeypatch):
    """Record every np.linalg qr and svd call as ("qr", mode) or ("svd", with_u)."""
    calls = []
    qr, svd = np.linalg.qr, np.linalg.svd

    def counting_qr(a, mode="reduced"):
        calls.append(("qr", mode))
        return qr(a, mode)

    def counting_svd(a, full_matrices=True, compute_uv=True, **kwargs):
        calls.append(("svd", compute_uv))
        return svd(a, full_matrices, compute_uv, **kwargs)
    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return calls


def random_generators(rng, d, r, degree, count):
    """Homogeneous generators with complex Gaussian coefficients."""
    basis = gm.monomial_basis(d, degree)
    gens = []
    for _ in range(count):
        terms = []
        for alpha in basis.monomials:
            for comp in range(r):
                c = rng.normal() + 1j * rng.normal()
                terms.append((alpha, comp, complex(c)))
        gens.append(gm.VectorPolynomial(degree, tuple(terms)))
    return gens


def random_subspace(rng, module, dim):
    """Random dim-dimensional subspace of d.E."""
    ambient = module.d * module.multiplicity
    raw = rng.normal(size=(ambient, dim)) + 1j * rng.normal(size=(ambient, dim))
    return gm.SubspaceV.from_matrix(module, raw)


@st.composite
def submodule_inputs(draw):
    """A module with drawn weights and 1-2 generators of degree 2..3.

    The family is drawn, and for sinsqrt so are its bounds 0 < r1 < r2.  The
    generator coefficients are small Gaussian integers.
    """
    family = draw(st.sampled_from(FAMILIES))
    d = draw(st.sampled_from((2, 3)))
    r = draw(st.sampled_from((1, 2)))
    r1 = draw(st.floats(0.25, 2.0))
    r2 = r1 + draw(st.floats(0.25, 4.0))
    mod = gm.StandardModule(
        gm.make_weights(family, 7 if d == 2 else 6, d=d, r1=r1, r2=r2),
        d=d, multiplicity=r)
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        degree = draw(st.integers(2, 3))
        alphas = gm.monomial_basis(d, degree).monomials
        parts = draw(st.lists(st.integers(-2, 2), min_size=2 * len(alphas) * r,
                              max_size=2 * len(alphas) * r))
        coeffs = [complex(a, b) for a, b in zip(parts[0::2], parts[1::2])]
        if not any(coeffs):
            coeffs[0] = 1.0
        gens.append(gm.VectorPolynomial(degree, tuple(
            (alpha, comp, coeffs[i * r + comp])
            for i, alpha in enumerate(alphas) for comp in range(r)
            if coeffs[i * r + comp] != 0)))
    return mod, gens
