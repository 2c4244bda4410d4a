"""Seeded inputs and experiment lists for the benchmark's workloads.

The seed only draws coefficients: generator coefficients, subspaces V and
the sinsqrt weight bounds.  Degrees, dimensions, truncations and the number
of experiments are fixed per workload, so every seed gives the same shapes,
the same generic ranks and therefore the same work counts.

- ``rank``: stretch-tier rank decisions on large blocks (submodule, Koszul on
  a free and on a complete-intersection quotient module, linearization of a
  cubic and a quartic); no contour quadrature and no E_V.
- ``spectral``: one ``identity`` run (contour quadrature) on the README
  quadric, which does not depend on the seed, and ``ev`` at d = 3 for seeded
  V of dimension 1 and 2 (E_V nullspaces, Schatten SVDs).
- ``desk``: every command except ``identity`` at its README configuration,
  over five seeded replicas: tiny blocks, so per-call overhead dominates.
"""

import shutil
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import checks

WORKLOADS = ("rank", "spectral", "desk")
DESK_REPLICAS = 5

# The README quadric z_1^2 + z_2^2.  ``identity`` fails on every input today
# (the adaptive trapezoid rule never reaches its refinement floor), so its
# input is kept independent of the seed.
README_QUADRIC = "2 1+0i (2 0)@e1 + 1+0i (0 2)@e1\n"


@dataclass(frozen=True)
class Experiment:
    name: str
    argv: tuple                    # gradmod arguments, including --out
    outdir: Path
    check: Callable[[Path], list]  # independent check of the written report

    @property
    def command(self):
        return self.argv[0]


def _monomials(d, n):
    if d == 1:
        return [(n,)]
    return [(first,) + rest for first in range(n, -1, -1)
            for rest in _monomials(d - 1, n - first)]


def _complex(z):
    return f"{z.real:.15g}{z.imag:+.15g}i"


def generic_forms(rng, d, g, c):
    """c homogeneous degree-g forms in d variables with complex Gaussian coefficients."""
    lines = []
    for _ in range(c):
        terms = [f"{_complex(complex(*rng.normal(size=2)))} "
                 f"({' '.join(str(a) for a in alpha)})@e1"
                 for alpha in _monomials(d, g)]
        lines.append(f"{g} " + " + ".join(terms))
    return "\n".join(lines) + "\n"


def generic_subspace(rng, rows, m):
    """Text grid whose m columns span a generic subspace of C^rows."""
    grid = rng.normal(size=(rows, m)) + 1j * rng.normal(size=(rows, m))
    return "".join(" ".join(_complex(z) for z in row) + "\n" for row in grid)


def build(workload, seed, workdir):
    """Empty ``workdir``, write the workload's seeded inputs there; return its experiments.

    ``workdir`` should be relative to the checkout root (the current
    directory), so that reports echo the same paths on every run.
    """
    rng = np.random.default_rng(seed)
    workdir = Path(workdir)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    experiments = []

    def write(name, text):
        path = workdir / name
        path.write_text(text)
        return str(path)

    def add(name, argv, check):
        outdir = workdir / "out" / f"{len(experiments):02d}-{name}"
        experiments.append(Experiment(name, tuple(argv) + ("--out", str(outdir)),
                                      outdir, check))

    if workload == "rank":
        cubics = write("cubics-d3.txt", generic_forms(rng, 3, 3, 2))
        cubic = write("cubic-d3.txt", generic_forms(rng, 3, 3, 1))
        quartic = write("quartic-d2.txt", generic_forms(rng, 2, 4, 1))
        add("submodule-d3-N24", ["submodule", "--d", "3", "--N", "24", "--gens", cubics],
            partial(checks.submodule, d=3, g=3, c=2, N=24))
        add("koszul-free-d4-N9", ["koszul", "--d", "4", "--N", "9"],
            partial(checks.koszul_standard, d=4, r=1, N=9))
        add("koszul-quotient-d3-N12", ["koszul", "--d", "3", "--N", "12", "--gens", cubics],
            partial(checks.koszul_quotient, d=3, g=3, c=2, N=12))
        add("linearize-cubic-d3-N11", ["linearize", "--d", "3", "--N", "11", "--gens", cubic],
            partial(checks.linearize, d=3, g=3))
        add("linearize-quartic-d2-N14",
            ["linearize", "--d", "2", "--N", "14", "--gens", quartic],
            partial(checks.linearize, d=2, g=4))
    elif workload == "spectral":
        quadric = write("quadric-readme.txt", README_QUADRIC)
        add("identity-d2-N7", ["identity", "--d", "2", "--N", "7", "--gens", quadric,
                               "--nodes", "512"], checks.identity)
        for m in (1, 2):
            v = write(f"v-d3-m{m}.txt", generic_subspace(rng, 3, m))
            add(f"ev-d3-N16-m{m}", ["ev", "--d", "3", "--N", "16", "--V", v],
                partial(checks.ev, d=3, m=m, N=16))
    elif workload == "desk":
        for i in range(DESK_REPLICAS):
            r1 = float(rng.uniform(0.5, 1.5))
            r2 = float(rng.uniform(3.0, 5.0))
            quadric = write(f"quadric-{i}.txt", generic_forms(rng, 2, 2, 1))
            v = write(f"v-d2-{i}.txt", generic_subspace(rng, 2, 1))
            add(f"weights-{i}", ["weights", "--family", "sinsqrt", "--r1", repr(r1),
                                 "--r2", repr(r2), "--d", "2", "--N", "2000",
                                 "--p", "3,5"],
                partial(checks.weights, d=2, N=2000, p_list=(3.0, 5.0), r1=r1, r2=r2))
            add(f"submodule-{i}", ["submodule", "--d", "2", "--N", "10", "--gens", quadric],
                partial(checks.submodule, d=2, g=2, c=1, N=10))
            add(f"linearize-{i}", ["linearize", "--d", "2", "--N", "10", "--family",
                                   "hardy", "--gens", quadric],
                partial(checks.linearize, d=2, g=2))
            add(f"ev-{i}", ["ev", "--d", "2", "--N", "8", "--V", v, "--p", "2,3"],
                partial(checks.ev, d=2, m=1, N=8))
            add(f"koszul-{i}", ["koszul", "--d", "2", "--r", "3", "--N", "7"],
                partial(checks.koszul_standard, d=2, r=3, N=7))
            add(f"counterexample-{i}", ["counterexample", "--N", "60"],
                partial(checks.counterexample, N=60))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return experiments
