"""CLI reports against the benchmark's closed forms (``perfbench/checks.py``).

``checks.py`` imports nothing from gradmod: its Hilbert functions of generic
complete intersections, Koszul Betti numbers and E_V dimensions come from
binomials alone.  They do not depend on the weights, so every run here is
checked on all four weight families, over drawn coefficients.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
