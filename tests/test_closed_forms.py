"""CLI reports against the benchmark's closed forms (``perfbench/checks.py``),
and the p = 2 Schatten sums of E_V quotients against exact rationals.

``checks.py`` imports nothing from gradmod: its Hilbert functions of generic
complete intersections, Koszul Betti numbers and E_V dimensions come from
binomials alone.  They do not depend on the weights, so every run here is
checked on all four weight families, over drawn coefficients.  The p = 2
level sums are Hilbert-Schmidt norms of the m-variable module's
self-commutators, computed in ``fractions.Fraction`` from the monomial norms.
"""

import importlib.util
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gradmod as gm
from gradmod import cli
from gradmod.submodules import format_complex, format_generator

from conftest import FAMILIES, random_generators

_spec = importlib.util.spec_from_file_location(
    "perfbench_checks", Path(__file__).resolve().parent.parent / "perfbench" / "checks.py")
checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checks)


def family_flags(family, rng):
    flags = ["--family", family]
    if family == "sinsqrt":
        r1 = float(rng.uniform(0.5, 1.5))
        flags += ["--r1", repr(r1), "--r2", repr(r1 + float(rng.uniform(0.5, 4.0)))]
    return flags


def forms_file(path, rng, d, g, c):
    """c generic forms of degree g in d variables: Gaussian coefficients on every monomial."""
    path.write_text("".join(format_generator(poly) + "\n"
                            for poly in random_generators(rng, d, 1, g, c)))
    return str(path)


def subspace_file(path, rng, rows, m):
    grid = rng.normal(size=(rows, m)) + 1j * rng.normal(size=(rows, m))
    path.write_text("".join(" ".join(format_complex(complex(z)) for z in row) + "\n"
                            for row in grid))
    return str(path)


def run_and_check(outdir, argv, check):
    code = cli.main(argv + ["--out", str(outdir)])
    report = checks.load(outdir, argv[0])
    assert checks.program_verdict(report) == []
    assert code == cli.EXIT_OK
    assert check(outdir) == []


@pytest.mark.parametrize("family", FAMILIES)
@settings(derandomize=True, database=None, max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_reports_match_the_closed_forms(tmp_path_factory, family, seed):
    rng = np.random.default_rng(seed)
    work = tmp_path_factory.mktemp(f"closed-{family}")
    weights = family_flags(family, rng)
    quadrics = forms_file(work / "quadrics.txt", rng, 3, 2, 2)
    cubic = forms_file(work / "cubic.txt", rng, 2, 3, 1)
    runs = [
        (["submodule", "--d", "3", "--N", "6", "--gens", quadrics],
         lambda out: checks.submodule(out, d=3, g=2, c=2, N=6)),
        (["koszul", "--d", "3", "--r", "2", "--N", "5"],
         lambda out: checks.koszul_standard(out, d=3, r=2, N=5)),
        (["koszul", "--d", "3", "--N", "6", "--gens", quadrics],
         lambda out: checks.koszul_quotient(out, d=3, g=2, c=2, N=6)),
        (["linearize", "--d", "2", "--N", "8", "--gens", cubic],
         lambda out: checks.linearize(out, d=2, g=3)),
    ]
    for m in (1, 2):
        v = subspace_file(work / f"v{m}.txt", rng, 3, m)
        runs.append((["ev", "--d", "3", "--N", "6", "--V", v],
                     lambda out, m=m: checks.ev(out, d=3, m=m, N=6)))
    for i, (argv, check) in enumerate(runs):
        run_and_check(work / f"{i}-{argv[0]}", argv + weights, check)


# -- exact p = 2 Schatten sums ----------------------------------------------------


def squared_rho(family, d, k):
    """rho_k^2 of ``make_weights(family, ..., d=d)`` as an exact fraction."""
    return {"dshift": Fraction(1), "hardy": Fraction(k + 1, k + d),
            "bergman": Fraction(k + 1, k + d + 1)}[family]


def exact_hilbert_schmidt_levels(family, d, m, top):
    """sum_{j,k} ||[Z_j*, Z_k](n)||_F^2 for n < top on the m-variable module, exactly.

    The weights are the d-variable family's.  In the orthonormal monomial
    basis Z_k e_alpha = sqrt(N_{alpha+e_k} / N_alpha) e_{alpha+e_k} with the
    squared norms N_alpha = c_n nu_alpha, c_n = (rho_0 ... rho_{n-1})^2 and
    nu_alpha = alpha! / |alpha|!.  So [Z_j*, Z_k] e_alpha = (a - b) e_gamma,
    gamma = alpha + e_k - e_j, where a = N_{alpha+e_k} / sqrt(N_alpha N_gamma)
    and b = sqrt(N_alpha N_gamma) / N_{alpha-e_j} (b = 0 when alpha_j = 0,
    and then a = 0 too unless j = k).  Each column holds one entry, whose
    square a^2 + b^2 - 2ab is rational.
    """
    scale = [Fraction(1)]
    for k in range(top):
        scale.append(scale[-1] * squared_rho(family, d, k))

    def norm(alpha):
        n = sum(alpha)
        nu = Fraction(math.prod(math.factorial(a) for a in alpha), math.factorial(n))
        return scale[n] * nu

    def moved(alpha, i, step):
        return alpha[:i] + (alpha[i] + step,) + alpha[i + 1:]

    sums = []
    for n in range(top):
        total = Fraction(0)
        for alpha in gm.monomial_basis(m, n).monomials:
            for j in range(m):
                for k in range(m):
                    up = moved(alpha, k, 1)
                    if alpha[j] == 0:
                        if j == k:
                            total += norm(up) ** 2 / norm(alpha) ** 2
                        continue
                    gamma, low = moved(up, j, -1), moved(alpha, j, -1)
                    total += (norm(up) ** 2 / (norm(alpha) * norm(gamma))
                              + norm(alpha) * norm(gamma) / norm(low) ** 2
                              - 2 * norm(up) / norm(low))
        sums.append(total)
    return sums


@pytest.mark.parametrize("family", ["dshift", "hardy", "bergman"])
@pytest.mark.parametrize("d,m", [(d, m) for d in (1, 2, 3) for m in range(1, d + 1)])
def test_ev_p2_schatten_sums_match_the_exact_levels(family, d, m):
    # the p = 2 pair sum of H_V is unitary invariant, so for a random V of
    # dimension m it is the m-variable module's, level by level
    top = 9
    rng = np.random.default_rng([d, m, len(family)])
    mod = gm.StandardModule(gm.make_weights(family, top, d=d), d)
    raw = rng.normal(size=(d, m)) + 1j * rng.normal(size=(d, m))
    got = gm.schatten_report(
        gm.ev_space(mod, gm.SubspaceV.from_matrix(mod, raw)).quotient_tuple(), [2.0])
    want = np.cumsum([float(s) for s in exact_hilbert_schmidt_levels(family, d, m, top)])
    assert got[2.0].partial_sums.size == top
    np.testing.assert_allclose(got[2.0].partial_sums, want, rtol=1e-12, atol=0)


def test_ev_trend_ratio_is_the_exact_quarter_ratio(tmp_path):
    # on the 2-variable d-shift the level sums are 2, 1, 1/2, ..., 1/15; the
    # trend compares indices 14..16 (levels 13..15) with indices 8, 9 (levels
    # 7, 8), the last and first geometric quarters of the burn-in range 8..16
    sums = exact_hilbert_schmidt_levels("dshift", 3, 2, 16)
    assert sum(sums[13:16]) / sum(sums[7:9]) == Fraction(2348, 2925)
    v = subspace_file(tmp_path / "v.txt", np.random.default_rng(2925), 3, 2)
    assert cli.main(["ev", "--d", "3", "--N", "16", "--V", v,
                     "--out", str(tmp_path)]) == cli.EXIT_OK
    trend = checks.load(tmp_path, "ev")["quotient_commutators"]["trends"]["2"]
    assert trend["ratio"] == pytest.approx(2348 / 2925, rel=1e-12, abs=0)
    assert trend["trend"] == "diverging"
