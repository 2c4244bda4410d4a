"""Koszul boundary, exterior-algebra signs, Betti ranks, Dirac square, syzygies."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

import gradmod as gm
from gradmod import cli, linalg
from gradmod.koszul import (betti_numbers, betti_table, build_koszul,
                            creation_matrix, dirac_square_residual, form_subsets,
                            node_labels, solve_syzygy)
from conftest import FAMILIES, submodule_inputs
from koszul_oracle import DenseKoszul, commutation_residual

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_creation_anticommutation(d):
    # build full matrices with explicit offsets
    sizes = [len(form_subsets(d, k)) for k in range(d + 1)]
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    total = offsets[-1]
    cs = []
    for i in range(1, d + 1):
        c = np.zeros((total, total))
        for k in range(d):
            blk = creation_matrix(d, k, i)
            c[offsets[k + 1]:offsets[k + 2], offsets[k]:offsets[k + 1]] = blk
        cs.append(c)
    for i in range(d):
        for j in range(d):
            anti = cs[i] @ cs[j] + cs[j] @ cs[i]
            np.testing.assert_allclose(anti, np.zeros_like(anti), atol=1e-15)
    # CAR relation C_j C_k* + C_k* C_j = delta_jk
    for i in range(d):
        for j in range(d):
            car = cs[i] @ cs[j].T + cs[j].T @ cs[i]
            np.testing.assert_allclose(car, np.eye(total) * (i == j), atol=1e-15)


def test_creation_signs_small():
    # d = 3, k = 1: C_2 sends e_1 to e_2 ^ e_1 = -e_{12}, e_3 to +e_{23}
    c2 = creation_matrix(3, 1, 2)
    subsets1 = form_subsets(3, 1)
    subsets2 = {s: i for i, s in enumerate(form_subsets(3, 2))}
    col_e1 = c2[:, subsets1.index((1,))]
    assert col_e1[subsets2[(1, 2)]] == -1.0
    col_e3 = c2[:, subsets1.index((3,))]
    assert col_e3[subsets2[(2, 3)]] == 1.0


def h2_module(d, r=1, n_levels=8):
    return gm.StandardModule(gm.make_weights("dshift", n_levels), d=d,
                             multiplicity=r)


def sup_norm(ops):
    """Largest spectral norm of a block T_i(n) of the tuple."""
    return max((np.linalg.norm(block, 2) for stack in ops.values()
                for block in stack if block.size), default=0.0)


def test_d1_complex_is_the_operator_itself():
    mod = h2_module(1)
    ops = mod.coordinate_tuple()
    kz = build_koszul(ops)
    for n in range(7):
        np.testing.assert_allclose(kz.boundary_block(0, n), ops[n][0])
    assert kz.bsquared_residual() == 0.0


@pytest.mark.parametrize("d", [2, 3])
def test_bsquared_vanishes(d):
    kz = build_koszul(h2_module(d).coordinate_tuple())
    assert kz.bsquared_residual() <= 1e-12


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(submodule_inputs())
def test_bsquared_vanishes_on_drawn_tuples(case):
    # B^2 = 0 from [T_i, T_j] = 0 and C_i C_j = -C_j C_i, on the standard
    # tuple of drawn weights and on the quotient tuple of drawn generators
    mod, gens = case
    quotient = gm.QuotientModule(gm.GradedSubmodule.generate(mod, gens))
    for ops in (mod.coordinate_tuple(), quotient.coordinate_tuple()):
        scale = sup_norm(ops)
        assert build_koszul(ops).bsquared_residual() <= 1e-12 * max(1.0, scale**2)


def test_noncommuting_input_rejected():
    ops = {n: np.array([[[1.0, 0.0], [0.0, 1.0]],
                        [[0.0, n + 1.0], [n + 1.0, 0.0]]], dtype=complex)
           for n in range(4)}
    with pytest.raises(ValueError, match="does not commute"):
        build_koszul(ops)


def test_inconsistent_stack_shapes_rejected():
    # level 1 maps into 3 rows, but level 2 takes 2 columns
    ops = h2_module(2).coordinate_tuple()
    assert build_koszul(ops).level_dims[2] == 3
    ops[2] = np.zeros((2, 3, 2), dtype=complex)
    with pytest.raises(ValueError, match="inconsistent stack shapes"):
        build_koszul(ops)
    # a level with fewer operators than the others
    ops = h2_module(2).coordinate_tuple()
    ops[3] = ops[3][:1]
    with pytest.raises(ValueError, match="inconsistent stack shapes"):
        build_koszul(ops)


@pytest.mark.parametrize("levels", [(2, 3, 4, 5), (0, 1, 3), (1, 2)])
def test_levels_other_than_zero_to_n_rejected(levels):
    # a shifted or gapped window would build, then fail with KeyError in
    # betti_table or dirac_square_residual; its prefix 0..3 builds
    ops = h2_module(2).coordinate_tuple()
    with pytest.raises(ValueError, match="levels must be 0.."):
        build_koszul({n: ops[n] for n in levels})
    prefix = {n: ops[n] for n in range(4)}
    kz = build_koszul(prefix)
    assert betti_table(kz) == DenseKoszul(prefix).betti_table()
    assert dirac_square_residual(kz, 2) <= 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_labelled_noncommuting_input_rejected(d):
    # scaling one nonzero entry of T_2(3) keeps the zero pattern, so the
    # labels still hold and the checks run on the level classes, but
    # T_1 T_2 != T_2 T_1 on the blocks through that entry
    ops = h2_module(d).coordinate_tuple()
    rows, cols = np.nonzero(ops[3][1])
    ops[3][1, rows[0], cols[0]] *= 1.5
    assert node_labels(ops) is not None
    assert commutation_residual(ops) > 0.1
    with pytest.raises(ValueError, match="does not commute"):
        build_koszul(ops)


@pytest.mark.parametrize("d,r", [(2, 1), (2, 3), (3, 1), (3, 3)])
def test_standard_module_betti_type(d, r):
    mod = h2_module(d, r)
    kz = build_koszul(mod.coordinate_tuple())
    beta = betti_numbers(kz)
    assert beta == (0,) * d + (r,)
    table = betti_table(kz)
    for (k, n), dim in table.items():
        assert dim == (r if (k, n) == (d, 0) else 0)


def test_betti_window_too_small():
    mod = h2_module(3, 1, n_levels=3)
    kz = build_koszul(mod.coordinate_tuple())
    with pytest.raises(ValueError):
        betti_table(kz)        # no interior level at form degree d


def test_betti_ranks_computed_once(monkeypatch):
    kz = build_koszul(h2_module(3).coordinate_tuple())
    interior = [(k, n) for k in range(kz.d + 1) for n in range(kz.top_level)
                if kz.interior(k, n)]
    read = {pair for k, n in interior for pair in ((k, n), (k - 1, n - 1))
            if pair in kz.boundary}
    calls = []
    rank = linalg.numerical_rank

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return rank(*args, **kwargs)

    monkeypatch.setattr(linalg, "numerical_rank", counted)
    assert sorted(betti_table(kz)) == interior
    assert betti_numbers(kz) == (0, 0, 0, 1)
    assert 0 < len(calls) <= len(read)      # one batched SVD per boundary block read
    assert all(len(shape) == 3 for shape in calls)      # each on a stack of gamma-blocks


def test_quotient_by_z1_has_middle_cohomology():
    mod = h2_module(2)
    sub = gm.GradedSubmodule.generate(mod, [gm.monomial_generator((1, 0))])
    kz = build_koszul(gm.QuotientModule(sub).coordinate_tuple())
    table = betti_table(kz)
    assert table[(1, 0)] == 1           # exactness fails at form degree d-1
    assert table[(2, 0)] == 1
    assert betti_numbers(kz) == (0, 1, 1)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_dirac_square_identity(d):
    mod = h2_module(d)
    ops = mod.coordinate_tuple()
    kz = build_koszul(ops)
    for n in range(0, kz.top_level - d):
        assert dirac_square_residual(kz, n) <= 1e-11


def test_dirac_square_on_hardy_levels():
    mod = gm.StandardModule(gm.make_weights("hardy", 8, d=2), d=2)
    ops = mod.coordinate_tuple()
    kz = build_koszul(ops)
    for n in range(1, 7):
        assert dirac_square_residual(kz, n) <= 1e-11
    with pytest.raises(ValueError):
        dirac_square_residual(kz, 99)


def test_dirac_square_normal_tuple():
    # commuting normal (diagonal) blocks: commutator term vanishes, D^2 = F x 1
    diag1 = np.diag([1.0, 2.0]).astype(complex)
    diag2 = np.diag([3.0, -1.0]).astype(complex)
    ops = {n: np.stack([diag1, diag2]) for n in range(5)}
    kz = build_koszul(ops)
    comms = gm.self_commutators(ops)
    for n in range(1, 4):
        assert np.linalg.norm(comms[n][0, 1]) <= 1e-14
        assert dirac_square_residual(kz, n) <= 1e-12


# -- gamma-blocks against the dense complex ---------------------------------------


def assert_matches_dense(ops):
    kz = build_koszul(ops)
    dense = DenseKoszul(ops)
    assert betti_table(kz) == dense.betti_table()
    assert abs(kz.bsquared_residual() - dense.bsquared_residual()) <= 1e-13
    for n in range(kz.top_level):
        if kz.interior(0, n):
            assert abs(dirac_square_residual(kz, n)
                       - dense.dirac_square_residual(n)) <= 1e-13
    assert sorted(kz.boundary) == sorted(dense.boundary)
    for (k, n), block in dense.boundary.items():
        assert np.array_equal(kz.boundary_block(k, n), block)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_gamma_blocks_match_the_dense_complex(family, d, r):
    weights = gm.make_weights(family, {1: 8, 2: 7, 3: 6, 4: 5}[d], d=d, r1=1.0, r2=4.0)
    mod = gm.StandardModule(weights, d=d, multiplicity=r)
    free = mod.coordinate_tuple()
    assert node_labels(free) is not None       # the free complex splits
    assert_matches_dense(free)
    sub = gm.GradedSubmodule.generate(
        mod, [gm.monomial_generator((1,) + (0,) * (d - 1))])
    assert_matches_dense(gm.QuotientModule(sub).coordinate_tuple())


@settings(derandomize=True, database=None, max_examples=15, deadline=None)
@given(submodule_inputs())
def test_gamma_blocks_match_the_dense_complex_on_drawn_quotients(case):
    mod, gens = case
    quotient = gm.QuotientModule(gm.GradedSubmodule.generate(mod, gens))
    assert_matches_dense(quotient.coordinate_tuple())


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_input_checks_on_level_classes_match_the_dense_norms(family, d, r):
    # the level-class stacks are a permutation of each T_i(n) padded with
    # zeros: the tuple's scale and commutation residual are those of the
    # whole blocks, up to the roundoff of the dense SVDs
    weights = gm.make_weights(family, {1: 8, 2: 7, 3: 6, 4: 5}[d], d=d, r1=1.0, r2=4.0)
    mod = gm.StandardModule(weights, d=d, multiplicity=r)
    sub = gm.GradedSubmodule.generate(
        mod, [gm.monomial_generator((1,) + (0,) * (d - 1))])
    for ops in (mod.coordinate_tuple(), gm.QuotientModule(sub).coordinate_tuple()):
        kz = build_koszul(ops)
        scale = sup_norm(ops)
        assert abs(kz.tuple_norm() - scale) <= 1e-15 * scale
        assert abs(kz.commutation_residual()
                   - commutation_residual(ops)) <= 1e-15 * max(scale**2, 1.0)


def test_unlabelled_tuple_keeps_one_class_per_space():
    # a generic quotient has no torus labels: each space is one class and the
    # one block of each B_k(n) is the dense block
    mod = h2_module(2)
    g = gm.VectorPolynomial(2, (((2, 0), 0, 1.0), ((1, 1), 0, 2.0), ((0, 2), 0, 1.0)))
    ops = gm.QuotientModule(gm.GradedSubmodule.generate(mod, [g])).coordinate_tuple()
    assert node_labels(ops) is None
    kz = build_koszul(ops)
    assert all(classes.ids.size <= 1 for classes in kz.classes.values())
    # on the free complex, a class has at most C(d, k) members
    kz = build_koszul(h2_module(3, r=2).coordinate_tuple())
    for (k, _), classes in kz.classes.items():
        assert classes.members.shape[1] <= len(form_subsets(3, k))


def test_koszul_command_takes_only_gamma_sized_svds(monkeypatch, tmp_path):
    # np.linalg.norm(a, 2) calls the svd of numpy's implementation module, not
    # np.linalg.svd, so both are recorded
    shapes = {"direct": [], "norm": []}
    svd = np.linalg.svd
    from numpy.linalg import _linalg as impl

    def recorder(route):
        def recorded(a, *args, **kwargs):
            shapes[route].append(np.shape(a))
            return svd(a, *args, **kwargs)
        return recorded

    monkeypatch.setattr(np.linalg, "svd", recorder("direct"))
    monkeypatch.setattr(impl, "svd", recorder("norm"))
    assert np.linalg.norm(np.eye(3), 2) == 1.0 and shapes["norm"] == [(3, 3)]
    shapes["norm"].clear()
    assert cli.main(["koszul", "--d", "4", "--N", "9", "--out", str(tmp_path)]) == 0
    assert shapes["direct"]
    assert max(shape[-1] for shape in shapes["direct"] + shapes["norm"]) <= 2**4


@pytest.mark.parametrize("argv", [["--d", "4", "--N", "9"],
                                  ["--d", "2", "--r", "3", "--N", "7"]])
def test_koszul_report_is_byte_identical_across_blas_threads(argv, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "gradmod.cli", "koszul", *argv, "--out", str(out)],
            capture_output=True, text=True, timeout=300, env=env)
        assert proc.returncode == 0, proc.stderr
        reports.append((out / "koszul.json").read_bytes())
    assert reports[0] == reports[1]


# -- syzygies -------------------------------------------------------------------


def test_syzygy_explicit_level_one():
    mod = h2_module(2)
    ops = mod.coordinate_tuple()
    xi = [np.array([0.0, 1.0], complex), np.array([-1.0, 0.0], complex)]
    eta, resid = solve_syzygy(ops, xi, 1)
    assert resid <= 1e-12
    # xi = (z_2, -z_1) forces eta_{12} = -1 at level 0
    np.testing.assert_allclose(eta[(1, 2)], [-1.0], atol=1e-12)
    np.testing.assert_allclose(eta[(2, 1)], [1.0], atol=1e-12)


def test_syzygy_zero_input():
    mod = h2_module(2)
    ops = mod.coordinate_tuple()
    eta, resid = solve_syzygy(ops, [np.zeros(3, complex), np.zeros(3, complex)], 2)
    assert resid == 0.0
    assert np.all(eta[(1, 2)] == 0.0)
    eta, resid = solve_syzygy(ops, [np.zeros(1, complex)] * 2, 0)
    assert resid == 0.0 and eta[(1, 2)].size == 0


def test_syzygy_rejects_non_kernel_input():
    mod = h2_module(2)
    ops = mod.coordinate_tuple()
    with pytest.raises(ValueError):
        solve_syzygy(ops, [np.array([1.0, 0.0], complex),
                           np.zeros(2, complex)], 1)


@pytest.mark.parametrize("d,level", [(2, 3), (3, 2), (3, 3)])
def test_syzygy_random_kernel_elements(rng, d, level):
    mod = h2_module(d)
    ops = mod.coordinate_tuple()
    null = linalg.nullspace(mod.row_block(level))
    h = mod.level_dim(level)
    for trial in range(5):
        coef = rng.normal(size=null.shape[1]) + 1j * rng.normal(size=null.shape[1])
        vec = null @ coef
        vec /= np.linalg.norm(vec)
        # copy-major unstack: (d.S)_n index = monomial * d + copy
        stacked = vec.reshape(h, d)
        xi = [stacked[:, i].copy() for i in range(d)]
        eta, resid = solve_syzygy(ops, xi, level)
        assert resid <= 1e-9
        for j in range(1, d + 1):
            for k in range(1, d + 1):
                if j == k:
                    continue
                np.testing.assert_array_equal(eta[(j, k)], -eta[(k, j)])
        # genuine reconstruction, recomputed directly
        for k in range(1, d + 1):
            rebuilt = sum(ops[level - 1][j - 1] @ eta[(j, k)]
                          for j in range(1, d + 1))
            assert np.linalg.norm(rebuilt - xi[k - 1]) <= 1e-9
