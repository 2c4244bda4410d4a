"""Submodules grown on their M side: the test oracle for the quotient side.

The package stores a submodule by Q_n = M_n^perp and grows it by the
co-invariant Euler recursion.  This module grows M_n itself instead:
M_n = orth(sum_k Z_k M_{n-1} + G_n), the saturation flag of level k is a
rank decision on sum_j Z_j M_k (True without one where M_{k+1} was built
from sum_j Z_j M_k alone), and a pullback is the preimage of M_{k+1} under
the row block, a nullspace with an absolute floor.  Z_k comes from the
Kronecker blocks of ``structure_oracle``; it shares only the module's row
blocks and the dense helpers of ``gradmod.linalg`` with the package.
"""

import numpy as np

from gradmod import linalg
from gradmod.config import RANK_TOL_FACTOR
from structure_oracle import coordinate_block


def grow(module, seeds, window):
    """(M bases, levels saturated by construction) from seeds {level: columns}."""
    bases = {}
    saturated = set()
    prev = np.zeros((module.level_dim(0), 0), dtype=complex)
    for n in range(window + 1):
        cols = []
        if n > 0 and prev.shape[1] > 0:
            cols.extend(coordinate_block(module, k, n - 1) @ prev
                        for k in range(1, module.d + 1))
        if n in seeds and seeds[n].shape[1] > 0:
            cols.append(seeds[n])
        elif n > 0:
            saturated.add(n - 1)
        prev = (linalg.orthonormal_columns(np.hstack(cols)) if cols
                else np.zeros((module.level_dim(n), 0), dtype=complex))
        bases[n] = prev
    return bases, frozenset(saturated)


def saturation_flags(module, bases, window, saturated=frozenset()):
    flags = {}
    for k in range(window):
        target = bases[k + 1].shape[1]
        if k in saturated:
            flags[k] = True
        elif bases[k].shape[1] == 0:
            flags[k] = target == 0
        else:
            spanned = np.hstack([coordinate_block(module, j, k) @ bases[k]
                                 for j in range(1, module.d + 1)])
            flags[k] = linalg.numerical_rank(spanned) == target
    return flags


def degree_payload(flags, dims, window, max_generator_degree):
    """The fields of ``DegreeReport``, from the definition."""
    degenerate = all(dim == 0 for dim in dims)
    false_levels = [k for k, ok in flags.items() if not ok]
    candidate = max(false_levels) + 1 if false_levels else 0
    g = max_generator_degree
    threshold = candidate if g is None else max(candidate, g)
    witnessed = window - threshold
    determined = degenerate or witnessed >= 2
    return {"degree": candidate if determined else None,
            "determined": determined, "flags": flags, "window": window,
            "max_generator_degree": g, "degenerate_zero": degenerate,
            "witnessed_levels": max(witnessed, 0)}


def report_payload(report):
    return {key: getattr(report, key) for key in (
        "degree", "determined", "flags", "window", "max_generator_degree",
        "degenerate_zero", "witnessed_levels")}


def preimage(block, target):
    """Orthonormal basis of {x : block x in span(target)}.

    That is the nullspace of (I - P_target) block; ``target`` has orthonormal
    columns.  Cutting relative to ||block|| keeps roundoff from counting as
    rank when span(target) contains the range of ``block`` and the
    composition is a true zero map.
    """
    proj_out = block - target @ (target.conj().T @ block)
    return linalg.nullspace(proj_out, scale=linalg.opnorm(block))


def pullback(module, bases, window):
    """Preimages M'_k = L_k^{-1}(M_{k+1}) and the shrunk window."""
    pulled_window = min(window - 1, module.top_level - 1)
    return ({k: preimage(module.row_block(k), bases[k + 1])
             for k in range(pulled_window + 1)}, pulled_window)


def linearize_steps(module, bases, window, max_generator_degree,
                    saturated=frozenset(), max_ambient_dim=200_000):
    """(steps, complete, reason) of the pullback iteration, all on the M side.

    Each step is (multiplicity, degree, window, level dims), as in
    ``LinearizationStep``.
    """
    steps = []
    g = max_generator_degree
    while True:
        flags = saturation_flags(module, bases, window, saturated)
        dims = [bases[n].shape[1] for n in range(window + 1)]
        payload = degree_payload(flags, dims, window, g)
        if not payload["determined"]:
            return steps, False, "window exhausted before the degree was determinable"
        steps.append((module.multiplicity, payload["degree"], window, tuple(dims)))
        if payload["degree"] <= 1:
            return steps, True, ("degree 1 reached" if payload["degree"] == 1
                                 else "degree 0 input")
        if sum(module.level_dim(n) * module.d for n in range(window)) > max_ambient_dim:
            return steps, False, "ambient dimension budget exceeded"
        bases, window = pullback(module, bases, window)
        module, g, saturated = module.row_domain, None, frozenset()


def pullback_span_residual(submodule, pulled):
    """max_k principal-angle distance between L(M'_k) and M_{k+1} (should be 0)."""
    worst = 0.0
    for k in range(pulled.window + 1):
        block = submodule.module.row_block(k)
        u, s, _ = np.linalg.svd(block @ pulled.basis(k), full_matrices=False)
        # absolute floor: kernel directions map to roundoff junk, not rank
        floor = max(RANK_TOL_FACTOR * s[0], 1e-10 * linalg.opnorm(block)) \
            if s.size else 0.0
        image = u[:, :int(np.count_nonzero(s > floor))]
        worst = max(worst, linalg.subspace_distance(image, submodule.basis(k + 1)))
    return worst
