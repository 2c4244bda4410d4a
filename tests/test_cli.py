"""Command-line front end: determinism, exit codes, config handling."""

import json
import math
import os
import resource
import shlex
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from gradmod import cli, normality
from gradmod.config import EXACT_TOL, MAX_AMBIENT_DIM
from gradmod.completion import StandardModule, make_weights, summability_report
from gradmod.submodules import GradedSubmodule, VectorPolynomial, format_generator
from conftest import random_generators


def run_cli(argv):
    return cli.main(argv)


README_QUADRIC = "2 1+0i (2 0)@e1 + 1+0i (0 2)@e1\n"


def write_quadric(tmp_path):
    gens = tmp_path / "gens.txt"
    gens.write_text(README_QUADRIC)
    return gens


# -- determinism ----------------------------------------------------------------


@pytest.mark.parametrize("argv_tail,files", [
    (["weights", "--family", "sinsqrt", "--r1", "1", "--r2", "4",
      "--d", "2", "--N", "120", "--p", "3,5"], ["weights.json", "weights.csv"]),
    (["counterexample", "--N", "48"], ["counterexample.json"]),
])
def test_reports_are_byte_identical(tmp_path, argv_tail, files):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert run_cli(argv_tail + ["--out", str(out1)]) == 0
    assert run_cli(argv_tail + ["--out", str(out2)]) == 0
    for name in files:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_submodule_report_deterministic(tmp_path):
    gens = write_quadric(tmp_path)
    argv = ["submodule", "--d", "2", "--N", "8", "--family", "hardy",
            "--gens", str(gens)]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(argv + ["--out", str(out1)]) == 0
    assert run_cli(argv + ["--out", str(out2)]) == 0
    assert (out1 / "submodule.json").read_bytes() \
        == (out2 / "submodule.json").read_bytes()


# -- exit codes -------------------------------------------------------------------


def test_parse_error_exit_codes(tmp_path, capsys):
    assert run_cli(["weights", "--family", "sinsqrt", "--r1", "4", "--r2", "1",
                    "--N", "50", "--out", str(tmp_path)]) == cli.EXIT_PARSE
    assert run_cli(["submodule", "--d", "2", "--N", "8",
                    "--gens", str(tmp_path / "missing.txt"),
                    "--out", str(tmp_path)]) == cli.EXIT_PARSE
    bad = tmp_path / "bad.txt"
    bad.write_text("2 oops (2 0)@e1\n")
    assert run_cli(["submodule", "--d", "2", "--N", "8", "--gens", str(bad),
                    "--out", str(tmp_path)]) == cli.EXIT_PARSE
    assert run_cli(["submodule", "--d", "2",
                    "--gens", str(bad), "--out", str(tmp_path)]) == cli.EXIT_PARSE
    assert run_cli(["weights", "--d", "-1", "--N", "50",
                    "--out", str(tmp_path)]) == cli.EXIT_PARSE
    assert run_cli(["weights", "--d", "2", "--N", "50", "--tail", "0",
                    "--out", str(tmp_path)]) == cli.EXIT_PARSE
    assert run_cli(["identity", "--d", "2", "--N", "6",
                    "--gens", str(write_quadric(tmp_path)), "--nodes", "0",
                    "--out", str(tmp_path)]) == cli.EXIT_PARSE
    capsys.readouterr()
    # non-finite tokens are rejected when parsed, and the message names them
    for token in ("nan", "1e999"):
        bad.write_text(f"2 {token} (2 0)@e1 + 1+0i (0 2)@e1\n")
        assert run_cli(["submodule", "--d", "2", "--N", "8", "--gens", str(bad),
                        "--out", str(tmp_path)]) == cli.EXIT_PARSE
        assert repr(token) in capsys.readouterr().err
    vfile = tmp_path / "V.txt"
    vfile.write_text("nan\n0+0i\n")
    assert run_cli(["ev", "--d", "2", "--N", "8", "--V", str(vfile),
                    "--out", str(tmp_path)]) == cli.EXIT_PARSE
    assert "'nan'" in capsys.readouterr().err
    ufile = tmp_path / "u.txt"
    ufile.write_text("0.5 inf " + "0.25 " * 10 + "\n")
    assert run_cli(["counterexample", "--N", "8", "--u", str(ufile),
                    "--out", str(tmp_path)]) == cli.EXIT_PARSE
    assert "'inf'" in capsys.readouterr().err
    # non-finite float flags and config keys: --tol nan would disable every
    # hard check, since no value compares greater than nan
    quadric = str(write_quadric(tmp_path))
    for flag, token in (("--tol", "nan"), ("--r1", "inf"), ("--r2", "-inf")):
        assert run_cli(["submodule", "--d", "2", "--N", "8", "--gens", quadric,
                        f"{flag}={token}", "--out", str(tmp_path)]) == cli.EXIT_PARSE
        assert repr(token) in capsys.readouterr().err
    conf = tmp_path / "nan.conf"
    for key in ("tol", "r1", "r2"):
        conf.write_text(f"r1 = 1\nr2 = 4\n{key} = nan\n")   # the last value wins
        assert run_cli(["submodule", "--config", str(conf), "--family", "sinsqrt",
                        "--d", "2", "--N", "8", "--gens", quadric,
                        "--out", str(tmp_path)]) == cli.EXIT_PARSE
        assert "'nan'" in capsys.readouterr().err
    assert run_cli(["weights", "--d", "2", "--N", "50", "--p", "2,nan",
                    "--out", str(tmp_path)]) == cli.EXIT_PARSE
    assert "'nan'" in capsys.readouterr().err
    # a first rule with no doubling left under QUAD_MAX_NODES allows no
    # convergence check
    assert run_cli(["identity", "--d", "2", "--N", "6", "--gens", quadric,
                    "--nodes", "100000", "--out", str(tmp_path)]) == cli.EXIT_PARSE
    assert "QUAD_MAX_NODES" in capsys.readouterr().err


def test_negative_exponent_exits_2_naming_the_term(tmp_path, capsys):
    # such a term used to reach the monomial index and end there, with
    # "tuple.index(x): x not in tuple"
    gens = tmp_path / "negative.txt"
    gens.write_text("2 1+0i (3 -1)@e1\n")
    assert run_cli(["submodule", "--d", "2", "--N", "6", "--gens", str(gens),
                    "--out", str(tmp_path / "out")]) == cli.EXIT_PARSE
    assert capsys.readouterr().err.splitlines() == [
        "error: negative exponent in term 1+0i (3 -1)@e1"]
    with pytest.raises(ValueError, match=r"negative exponent in term 2-1i \(-1 0\)@e2"):
        VectorPolynomial(-1, (((-1, 0), 1, 2 - 1j),))


UNREAD_FLAG_CASES = [
    (["weights", "--d", "2", "--N", "40"], ["--tol", "1e-30"]),
    (["submodule", "--d", "2", "--N", "6", "--gens", "{gens}"], ["--nodes", "64"]),
    (["linearize", "--d", "2", "--N", "6", "--gens", "{gens}"], ["--p", "2"]),
    (["ev", "--d", "2", "--N", "6", "--V", "{V}"], ["--gens", "{gens}"]),
    (["koszul", "--d", "2", "--N", "5"], ["--tail", "3"]),
    (["identity", "--d", "2", "--N", "6", "--gens", "{gens}"], ["--V", "{V}"]),
    (["counterexample", "--N", "24"], ["--d", "3"]),
]


@pytest.mark.parametrize("argv,unread", UNREAD_FLAG_CASES,
                         ids=[argv[0] for argv, _ in UNREAD_FLAG_CASES])
def test_flag_a_command_does_not_read_exits_2(tmp_path, capsys, argv, unread):
    files = {"gens": write_quadric(tmp_path), "V": tmp_path / "V.txt"}
    files["V"].write_text("1+0i\n0+0i\n")
    argv = [tok.format(**files) for tok in argv + unread]
    assert run_cli(argv + ["--out", str(tmp_path)]) == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err
    assert not (tmp_path / f"{argv[0]}.json").exists()


TOL_CASES = {
    "submodule": ["--d", "2", "--N", "6", "--gens", "{gens}"],
    "linearize": ["--d", "2", "--N", "6", "--gens", "{gens}"],
    "ev": ["--d", "2", "--N", "6", "--V", "{V}"],
    "koszul": ["--d", "2", "--N", "5"],
    "identity": ["--d", "2", "--N", "6", "--gens", "{gens}"],
}


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", sorted(TOL_CASES))
def test_negative_tol_exits_2(tmp_path, capsys, command, source):
    # exit 1 is reserved for a residual above a tolerance; a negative
    # tolerance is a configuration error, caught before the command runs
    files = {"gens": write_quadric(tmp_path), "V": tmp_path / "V.txt"}
    files["V"].write_text("1+0i\n0+0i\n")
    base = [command] + [tok.format(**files) for tok in TOL_CASES[command]]
    conf = tmp_path / "tol.conf"

    def with_tol(value):
        if source == "flag":
            return base + ["--tol", value]
        conf.write_text(f"tol = {value}\n")
        return base + ["--config", str(conf)]

    assert cli.parse_args(with_tol("0")).tol == 0.0
    assert run_cli(with_tol("-1") + ["--out", str(tmp_path)]) == cli.EXIT_PARSE
    assert "argument --tol" in capsys.readouterr().err
    assert not (tmp_path / f"{command}.json").exists()


def test_argparse_errors_return_exit_code(tmp_path, capsys):
    quadric = str(write_quadric(tmp_path))
    for argv in (["submodule", "--d", "abc", "--N", "6", "--gens", quadric],
                 ["submodule", "--d", "2", "--N", "6", "--gens", quadric,
                  "--family", "nosuch"],
                 ["submodule", "--d", "2", "--N", "6", "--gen", quadric],
                 ["nosuch"], []):
        assert run_cli(argv) == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert "'abc'" in err and "'nosuch'" in err and "--gen " in err


def test_help_exits_0(capsys):
    for argv in (["--help"], ["identity", "--help"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--nodes" in out and "--V" not in out


def test_window_exhaustion_exit_code(tmp_path):
    gens = tmp_path / "tall.txt"
    gens.write_text("7 1+0i (7 0)@e1\n")
    code = run_cli(["submodule", "--d", "2", "--N", "8", "--gens", str(gens),
                    "--out", str(tmp_path)])
    assert code == cli.EXIT_WINDOW
    report = json.loads((tmp_path / "submodule.json").read_text())
    assert report["degree"]["determined"] is False      # partial report exists


def test_tolerance_failure_exit_code(tmp_path):
    gens = write_quadric(tmp_path)
    code = run_cli(["submodule", "--d", "2", "--N", "8", "--gens", str(gens),
                    "--tol", "1e-30", "--out", str(tmp_path)])
    assert code == cli.EXIT_TOLERANCE
    report = json.loads((tmp_path / "submodule.json").read_text())
    assert report["hard_failures"]


def test_within_fails_values_that_are_not_finite():
    checks = [cli.within("ok", 1e-16, 1e-12), cli.within("nan", float("nan"), 1e-12),
              cli.within("inf", float("inf"), 1e-12)]
    assert [c.name for c in checks if not c.passed] == ["nan", "inf"]


def test_overflowing_counterexample_exits_2(tmp_path, capsys):
    # e^1000 overflows; the command refuses the sequence instead of
    # reporting a nan residual and infinite intertwiner extremes
    u = tmp_path / "u.txt"
    u.write_text("1000 0 1 0 -1 0 1 0 1 0 1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli(["counterexample", "--N", "10", "--u", str(u),
                        "--out", str(tmp_path)])
    assert code == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "overflows" in err
    assert not (tmp_path / "counterexample.json").exists()


@pytest.mark.parametrize("argv", [["weights", "--d", "2", "--N", "1000000000000"],
                                  ["weights", "--d", "2", "--N", str(MAX_AMBIENT_DIM + 1)],
                                  ["counterexample", "--N", "1000000000000"],
                                  ["counterexample", "--N", str(MAX_AMBIENT_DIM + 1)]])
def test_a_huge_N_is_refused_before_anything_is_allocated(tmp_path, capsys, monkeypatch,
                                                          argv):
    # both commands allocate N floats at once; at --N 1e12 that ended in a
    # numpy allocation traceback and exit 1
    def allocator_called(*args, **kwargs):
        raise AssertionError("allocator called")
    monkeypatch.setattr(cli, "make_weights", allocator_called)
    monkeypatch.setattr(cli, "alternating_block_sequence", allocator_called)
    assert run_cli(argv + ["--out", str(tmp_path)]) == cli.EXIT_PARSE
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith("error:") and f"MAX_AMBIENT_DIM = {MAX_AMBIENT_DIM}" in line
    assert not any(tmp_path.iterdir())
    # at the bound itself the command goes on to allocate
    argv = argv[:-1] + [str(MAX_AMBIENT_DIM)]
    with pytest.raises(AssertionError, match="allocator called"):
        run_cli(argv + ["--out", str(tmp_path)])


def test_underflowing_counterexample_exits_2(tmp_path, capsys):
    # lambda_n = e^(u_0 + ... + u_n) drifts to e^-798 and underflows to 0, so
    # L is not invertible on the window and the pair is not shown similar
    u = tmp_path / "u.txt"
    u.write_text("0 1\n" + " ".join(["-1"] * 800) + "\n")
    code = run_cli(["counterexample", "--N", "800", "--u", str(u),
                    "--out", str(tmp_path)])
    assert code == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error:") and "underflows" in err
    assert not (tmp_path / "counterexample.json").exists()


# a V whose E_V degree N = 2 cannot determine, and whose roundtrip, route and
# invariance residuals are roundoff (invariance at the top level, Z_k*(1) Q_2),
# so --tol 0 fails them
WINDOW_AND_TOL_V = "1 0.3+0.2i\n0.5-1i 0.1\n0.2 1+1i\n"


def test_failed_hard_check_exits_1_when_the_window_runs_out(tmp_path, capsys):
    vfile = tmp_path / "V.txt"
    vfile.write_text(WINDOW_AND_TOL_V)
    code = run_cli(["ev", "--d", "3", "--N", "2", "--V", str(vfile), "--tol", "0",
                    "--out", str(tmp_path)])
    assert code == cli.EXIT_TOLERANCE
    report = json.loads((tmp_path / "ev.json").read_text())
    assert report["degree"]["determined"] is False
    checks = [f["check"] for f in report["hard_failures"]]
    assert checks == ["roundtrip_V_distance", "adjoint_vs_gradient_route", "invariance"]
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("window exhausted:")
    assert [line.split(":")[0] for line in err[1:]] == [f"FAIL {c}" for c in checks]


def run_with_inputs(workdir, argv, files):
    """Run argv with --out workdir/out and each {input flag: text} written under workdir."""
    inputs = []
    for flag, text in files.items():
        source = workdir / f"input{flag}.txt"
        source.write_text(text)
        inputs += [flag, str(source)]
    return run_cli(argv + inputs + ["--out", str(workdir / "out")])


# sinsqrt weights from 1 to near 1e150 pass the module's range check, but
# |rho_{k+1} - rho_k|^3 and sigma^3 overflow
OVERFLOWING_SUMS = [
    (["weights", "--d", "2", "--N", "10", "--p", "3", "--family", "sinsqrt",
      "--r1", "1", "--r2", "1e300"], {}),
    (["ev", "--d", "2", "--N", "2", "--family", "sinsqrt", "--r1", "1", "--r2", "1e150"],
     {"--V": "1\n0\n"}),
]


@pytest.mark.parametrize("call,what", zip(OVERFLOWING_SUMS, ["summability", "Schatten"]))
def test_overflowing_sums_exit_2(tmp_path, capsys, call, what):
    # a trend call on an infinite sum says nothing, so the run is refused
    # with no report and no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_with_inputs(tmp_path, *call)
    assert code == cli.EXIT_PARSE
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: the p = 3 {what} sums leave the float range"]
    assert not any((tmp_path / "out").iterdir())


def test_constant_weights_sum_to_zero_where_k_to_the_d_overflows(tmp_path):
    # k^(d-1) overflows for k >= 35 at d = 200, but every d-shift step is
    # exactly 0: the sums are 0, not inf * 0 = nan called "diverging"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli(["weights", "--d", "200", "--N", "50", "--out", str(tmp_path)])
    assert code == cli.EXIT_OK
    report = json.loads((tmp_path / "weights.json").read_text())
    for entry in report["summability"].values():
        assert (entry["final_partial_sum"], entry["trend"]) == (0.0, "converging")


def test_level_dimensions_past_the_float_range_exit_2(tmp_path, capsys):
    # C(2219, 219) is past the float range: the number-operator trace is
    # refused with one error line, where it used to end in an OverflowError;
    # one variable fewer, every level dimension is a float and the run passes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli(["weights", "--d", "220", "--N", "2000", "--out", str(tmp_path / "out")])
        assert run_cli(["weights", "--d", "219", "--N", "2000",
                        "--out", str(tmp_path / "ok")]) == cli.EXIT_OK
    assert code == cli.EXIT_PARSE
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: the level dimensions at d = 220, N = 2000 leave the float range"]
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())
    report = json.loads((tmp_path / "ok" / "weights.json").read_text())
    assert report["number_operator_trace"]["2"]["final_partial_sum"] > 1e300


@pytest.mark.parametrize("argv,flag,text", [
    (["ev", "--d", "2", "--N", "6", "--r1", "1e-150", "--r2", "2e-150"],
     "--V", "1 0\n0 1\n"),
    (["identity", "--d", "2", "--N", "6", "--r1", "1e-300", "--r2", "1e300"],
     "--gens", "2 1+0i (2 0)@e1 + 1+0i (0 2)@e1\n"),
    (["koszul", "--d", "2", "--N", "3", "--r1", "1e-300", "--r2", "1e300"], None, None),
], ids=["ev-underflow", "identity-overflow", "koszul-overflow"])
def test_monomial_norms_outside_the_float_range_exit_2(tmp_path, capsys, argv, flag, text):
    # c_n nu_alpha underflows (the first) or overflows (the others) on the
    # window: the module is refused instead of a LinAlgError, an
    # OverflowError or a roundoff failure scaled by rho^2 (B^2 = 2.3e283)
    inputs = []
    if flag is not None:
        source = tmp_path / "input.txt"
        source.write_text(text)
        inputs = [flag, str(source)]
    out = tmp_path / "out"
    code = run_cli(argv + ["--family", "sinsqrt", *inputs, "--out", str(out)])
    assert code == cli.EXIT_PARSE
    assert "monomial norms" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


# the V of the benchmark's first desk replica at seed 11
DESK_V = "0.746885616256544+1.56654877469952i\n-1.84732479897411-0.0964321601556205i\n"


def tolerance_power(check):
    """The power of max rho that scales the tolerance of ``check`` (0: scale-free)."""
    if check.startswith(("compression", "row_sum", "commutator", "dirac_square")):
        return 2
    if check in ("coordinate_invariance", "invariance") \
            or check.startswith("pullback_coinvariance"):
        return 1
    return 0


@pytest.mark.parametrize("argv,r2,gens", [
    (["koszul", "--d", "2", "--N", "5"], "1e8", None),
    (["identity", "--d", "2", "--N", "7"], "1e4", README_QUADRIC),
    (["submodule", "--d", "2", "--N", "10"], "1e10", README_QUADRIC),
    (["submodule", "--d", "2", "--N", "10"], "1e12", README_QUADRIC),
    (["linearize", "--d", "2", "--N", "10"], "1e12", README_QUADRIC),
    (["ev", "--d", "2", "--N", "8"], "1e12", DESK_V),
], ids=["koszul-1e8", "identity-1e4", "submodule-1e10", "submodule-1e12",
        "linearize-1e12", "ev-1e12"])
def test_identity_tolerances_scale_with_the_weights(tmp_path, capsys, argv, r2, gens):
    # the roundoff of an exact identity grows with max rho (invariance and
    # co-invariance apply one block of the tuple) or max rho^2 (the identities
    # quadratic in it); past r2 = 1e10 it exceeds the absolute tolerances
    # alone, while scaled by max(max rho, 1) or max(max rho^2, 1) every check
    # passes, and --tol 0 still fails
    argv = argv + ["--family", "sinsqrt", "--r1", "1", "--r2", r2]
    if gens is not None:
        source = tmp_path / "input.txt"
        source.write_text(gens)
        argv += ["--V" if argv[0] == "ev" else "--gens", str(source)]
    assert run_cli(argv + ["--out", str(tmp_path / "default")]) == cli.EXIT_OK
    assert run_cli(argv + ["--tol", "0", "--out", str(tmp_path / "zero")]) \
        == cli.EXIT_TOLERANCE
    assert run_cli(argv + ["--tol", "1e-30", "--out", str(tmp_path / "tiny")]) \
        == cli.EXIT_TOLERANCE
    capsys.readouterr()
    report = json.loads((tmp_path / "tiny" / f"{argv[0]}.json").read_text())
    rho = float(make_weights("sinsqrt", int(argv[4]), r1=1.0, r2=float(r2)).values.max())
    assert rho > 30
    # boundary_squared and orthonormality keep a floor of EXACT_TOL
    scaled = [(f["tolerance"], tolerance_power(f["check"])) for f in report["hard_failures"]
              if f["check"] not in ("boundary_squared", "level_basis_orthonormality")]
    assert any(power for _, power in scaled)
    assert all(t == pytest.approx(1e-30 * rho ** power, rel=1e-14) for t, power in scaled)


def rank_forms(seed):
    """(two cubics, one cubic) in 3 variables, as the benchmark's ``rank`` workload draws them.

    Each form has one complex Gaussian coefficient per monomial, in the
    benchmark's monomial order, all from one generator seeded with ``seed``.
    """
    rng = np.random.default_rng(seed)
    monomials = [(a, b, 3 - a - b) for a in range(3, -1, -1) for b in range(3 - a, -1, -1)]

    def form():
        return "3 " + " + ".join(
            f"{z.real:.15g}{z.imag:+.15g}i ({' '.join(map(str, alpha))})@e1"
            for alpha in monomials for z in [complex(*rng.normal(size=2))]) + "\n"
    cubics = form() + form()
    return cubics, form()


def svd_callers(monkeypatch):
    """Names of the gradmod functions on the stack of every np.linalg.svd call."""
    calls = []
    svd = np.linalg.svd

    def recording(*args, **kwargs):
        frame, names = sys._getframe(1), set()
        while frame is not None:
            names.add(frame.f_code.co_name)
            frame = frame.f_back
        calls.append(names)
        return svd(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", recording)
    return calls


def test_roundoff_residuals_take_no_svd_below_their_floor(tmp_path, capsys, monkeypatch):
    # submodule --d 3 --N 24 on the rank workload's cubics: both residuals are
    # roundoff, certified by their Frobenius norms below 1e-13
    gens = tmp_path / "cubics.txt"
    gens.write_text(rank_forms(7)[0])
    argv = ["submodule", "--d", "3", "--N", "24", "--gens", str(gens)]
    residuals = ("invariance_residual", "orthonormality_residual")
    calls = svd_callers(monkeypatch)
    assert run_cli(argv + ["--out", str(tmp_path / "default")]) == cli.EXIT_OK
    assert calls and not [c for c in calls if c & set(residuals)]
    report = json.loads((tmp_path / "default" / "submodule.json").read_text())
    assert report["residuals"] == {"invariance": 1e-13, "orthonormality": 1e-13}
    # --tol 0 makes the invariance bound 0: its exact norms are taken, and the
    # roundoff fails; orthonormality keeps its EXACT_TOL floor and its bound
    calls.clear()
    assert run_cli(argv + ["--tol", "0", "--out", str(tmp_path / "zero")]) \
        == cli.EXIT_TOLERANCE
    assert [c for c in calls if "invariance_residual" in c]
    assert not [c for c in calls if "orthonormality_residual" in c]
    report = json.loads((tmp_path / "zero" / "submodule.json").read_text())
    assert [f["check"] for f in report["hard_failures"]] == ["coordinate_invariance"]
    assert 0.0 < report["residuals"]["invariance"] < 1e-13
    assert "FAIL coordinate_invariance" in capsys.readouterr().err


def test_limits_bound_never_exceeds_the_tolerance():
    def limits(tol, default, scale=1.0, floor=0.0):
        return cli.limits(SimpleNamespace(tol=tol), default, scale, floor)
    assert limits(None, 1e-10) == (1e-10, 1e-13)
    assert limits(None, 1e-10, 1e6) == (1e-10 * 1e6, 1e-13 * 1e6)
    assert limits(1e-14, 1e-10) == (1e-14, 1e-14)
    assert limits(0.0, 1e-10, 4.0) == (0.0, 0.0)
    # the floor keeps EXACT_TOL under --tol 0, as orthonormality and B^2 = 0 do
    assert limits(0.0, 1e-10, floor=EXACT_TOL) == (EXACT_TOL, 1e-13)


def test_within_fails_non_finite_residuals():
    for value in (float("nan"), float("inf")):
        assert not cli.within("x", value, float("inf")).passed
    assert cli.within("x", 1e300, float("inf")).passed


def test_tuple_scale_is_one_for_weights_at_most_one():
    for family in ("dshift", "hardy", "bergman"):
        mod = StandardModule(make_weights(family, 6, d=3), 3)
        assert cli.tuple_scale(mod) == cli.linear_scale(mod) == 1.0
    mod = StandardModule(make_weights("sinsqrt", 6, r1=1.0, r2=9.0), 2)
    assert cli.linear_scale(mod) == float(mod.rho.max())
    assert cli.tuple_scale(mod) == float(mod.rho.max()) ** 2


@pytest.mark.parametrize("argv,flag,text,checks", [
    (["ev", "--d", "2", "--N", "8"], "--V", DESK_V, ["invariance"]),
    (["identity", "--d", "2", "--N", "7", "--nodes", "128"], "--gens", README_QUADRIC,
     ["row_sum_identity", "commutator_decomposition"]),
], ids=["ev", "identity"])
def test_tol_reaches_every_residual_check(tmp_path, capsys, argv, flag, text, checks):
    # without --tol each check keeps its default; --tol replaces it, times
    # the check's scale, which is 1 for the Hardy weights (at most 1; and
    # unlike dshift they leave roundoff in every residual)
    source = tmp_path / "input.txt"
    source.write_text(text)
    argv = argv + ["--family", "hardy", flag, str(source)]
    assert run_cli(argv + ["--out", str(tmp_path / "default")]) == cli.EXIT_OK
    assert run_cli(argv + ["--tol", "1e-300", "--out", str(tmp_path / "tiny")]) \
        == cli.EXIT_TOLERANCE
    capsys.readouterr()
    report = json.loads((tmp_path / "tiny" / f"{argv[0]}.json").read_text())
    printed = {f["check"]: f["tolerance"] for f in report["hard_failures"]}
    assert {check: printed.get(check) for check in checks} \
        == {check: 1e-300 for check in checks}


def test_a_nan_row_sum_level_fails_identity(tmp_path, capsys, monkeypatch):
    # the builtin max over levels kept its running value past a NaN, so one
    # NaN level vanished from the row-sum residual and the check passed
    real = cli.row_sum_residual
    monkeypatch.setattr(cli, "row_sum_residual", lambda ops, rho, n, bound: (
        float("nan") if n == 1 else real(ops, rho, n, bound)))
    gens = tmp_path / "quadric.txt"
    gens.write_text(README_QUADRIC)
    argv = ["identity", "--d", "2", "--N", "7", "--nodes", "128", "--family", "hardy",
            "--gens", str(gens), "--out", str(tmp_path)]
    assert run_cli(argv) == cli.EXIT_TOLERANCE
    assert "FAIL row_sum_identity: nan" in capsys.readouterr().err
    report = json.loads((tmp_path / "identity.json").read_text())
    assert report["row_sum_residual"] == "nan"
    assert [f["check"] for f in report["hard_failures"]] == ["row_sum_identity"]


def test_weights_tail_is_bounded_by_the_difference_count(tmp_path, capsys):
    argv = ["weights", "--d", "2", "--N", "10"]
    assert run_cli(argv + ["--tail", "9", "--out", str(tmp_path / "a")]) == cli.EXIT_OK
    report = json.loads((tmp_path / "a" / "weights.json").read_text())
    assert report["oscillation"]["tail_window"] == 9
    capsys.readouterr()
    for tail in ("10", "11"):
        out = tmp_path / f"t{tail}"
        assert run_cli(argv + ["--tail", tail, "--out", str(out)]) == cli.EXIT_PARSE
        assert "--tail" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())


def test_ev_with_undetermined_degree_exits_3(tmp_path):
    # V = span(1, 0) at N = 2 leaves the degree undetermined; the partial
    # report is written, as for submodule, and N = 3 already decides it
    vfile = tmp_path / "V.txt"
    vfile.write_text("1\n0\n")
    for n, code, determined in ((2, cli.EXIT_WINDOW, False), (3, cli.EXIT_OK, True),
                                (4, cli.EXIT_OK, True)):
        out = tmp_path / f"N{n}"
        assert run_cli(["ev", "--d", "2", "--N", str(n), "--V", str(vfile),
                        "--out", str(out)]) == code
        report = json.loads((out / "ev.json").read_text())
        assert report["degree"]["determined"] is determined


# -- the exit-code contract on drawn invocations ------------------------------


def v_grid(kind, d):
    """Text grid for --V: zero, full, partial, rank-deficient, a wrong row count or empty."""
    if kind == "empty":
        return "# no columns\n"
    rows = {"zero": [["0"]] * d,
            "full": [["1" if i == j else "0" for j in range(d)] for i in range(d)],
            "partial": [["1"]] + [["0"]] * (d - 1),
            "deficient": [["1", "2"]] + [["0", "0"]] * (d - 1),
            "wrong-rows": [["1"]] * (d + 1)}[kind]
    return "".join(" ".join(row) + "\n" for row in rows)


def generator_file(kind, d):
    """--gens text: constant, linear, a quadric, a component out of range, zero,
    inhomogeneous (terms of degrees 2 and 1 in one line), two degrees (a linear
    form and a quadric), a negative exponent, or empty."""
    def term(first, component, coeff="1+0i", second=0):
        exponents = " ".join(str(a) for a in ([first, second] + [0] * (d - 2))[:max(d, 1)])
        return f"{coeff} ({exponents})@e{component}"

    def line(degree, first, component, coeff="1+0i"):
        return f"{degree} {term(first, component, coeff)}\n"
    return {"constant": line(0, 0, 1), "linear": line(1, 1, 1),
            "quadric": line(2, 2, 1), "out-of-range": line(1, 1, 2),
            "zero": line(2, 2, 1, "0+0i"),
            "inhomogeneous": f"2 {term(2, 1)} + {term(1, 1)}\n",
            "two-degrees": line(1, 1, 1) + line(2, 2, 1),
            "negative": f"2 {term(-1, 1, second=3)}\n",
            "empty": ""}[kind]


# config lines: unknown keys (for every command, or only for some), a repeated
# key, and values that are not finite, out of range or of the wrong type
CONFIG_LINES = ["bogus = 1", "nodes = 16", "N = 3", "N = 4", "tol = nan", "tol = 1e-9",
                "r1 = inf", "r2 = -inf", "p = inf", "p = 2", "d = nan", "r = 2",
                "family = hardy", "N = 1e3"]


def sinsqrt_bound(draw, low, high):
    """A bound m * 10^e, low <= e <= high, with a drawn mantissa 1 <= m < 10."""
    mantissa = draw(st.sampled_from(["1", "1.5", "3", "7.25", "9.99"]))
    return f"{mantissa}e{draw(st.integers(low, high))}"


@st.composite
def invocations(draw):
    """(argv without --out, {input flag: file text}) of one drawn CLI call."""
    command = draw(st.sampled_from(["ev", "counterexample", "submodule", "linearize",
                                    "identity", "koszul", "weights"]))
    # weights runs in milliseconds even at N = 3000, so it draws far past the
    # flag bounds; the module commands stay at desk size
    n = draw(st.integers(0, 3000) if command == "weights" else st.integers(0, 6))
    files = {}
    if draw(st.integers(0, 3)) == 0:
        files["--config"] = "".join(
            line + "\n" for line in draw(st.lists(st.sampled_from(CONFIG_LINES),
                                                   min_size=1, max_size=3)))
    if command == "counterexample":
        # partial sums drift (large negative steps underflow the intertwiner)
        # or overflow; u hits (0, 1) at n = 0
        step = draw(st.sampled_from([-400.0, -1.0, 0.0, 1.0, 400.0]))
        files["--u"] = "0 1 " + " ".join([repr(step)] * (n + 1)) + "\n"
        return [command, "--N", str(n)], files
    if command == "weights":
        # d = 219 and 220 straddle the overflow of C(N+d-1, d-1) at N = 2000
        d = draw(st.one_of(st.sampled_from([0, 1, 2, 3, 219, 220, 400]),
                           st.integers(0, 400)))
    else:
        d = draw(st.sampled_from([0, 1, 2, 2, 3, 3, 4]))
    argv = [command, "--d", str(d), "--N", str(n)]
    if command != "weights":
        argv += ["--r", str(draw(st.integers(0, 3)))] if draw(st.booleans()) else []
    if draw(st.booleans()):
        # sinsqrt bounds between 1e-300 and 1e300, mantissas included: the
        # monomial norms c_n nu_alpha may leave the float range, and r1 >= r2
        # may be drawn
        low = draw(st.integers(-300, 299))
        argv += ["--family", "sinsqrt", "--r1", sinsqrt_bound(draw, low, low),
                 "--r2", sinsqrt_bound(draw, low, 300)]
    if command == "weights":
        tail = draw(st.sampled_from([None, 1, n - 1, n, n + 1]))
        return argv + ([] if tail is None else ["--tail", str(tail)]), files
    tol = draw(st.sampled_from([None, None, None, "0", "1e-30", "1e-9", "1", "1e300",
                                "-1", "nan"]))
    if tol is not None:
        argv += ["--tol", tol]
    if command == "identity":
        nodes = draw(st.sampled_from([None, "-2", "0", "1", "2", "16"]))
        argv += [] if nodes is None else ["--nodes", nodes]
    if command == "ev":
        kind = draw(st.sampled_from(["zero", "full", "partial", "deficient",
                                     "wrong-rows", "empty"]))
        files["--V"] = v_grid(kind, d)
        return argv, files
    kind = draw(st.sampled_from(["constant", "linear", "quadric", "out-of-range", "zero",
                                 "inhomogeneous", "two-degrees", "negative", "empty"]
                                + (["none"] if command == "koszul" else [])))
    if kind != "none":
        files["--gens"] = generator_file(kind, d)
    return argv, files


def complex_grid(rows):
    """Text grid of complex entries, one line per row, at full precision."""
    return "".join(" ".join(f"{z.real:.17g}{z.imag:+.17g}i" for z in row) + "\n"
                   for row in rows)


@st.composite
def exact_invocations(draw):
    """(argv, files, True): a module command on an input with an exact answer.

    A generated submodule is invariant, its pullbacks are co-invariant, and
    E_V^perp is a submodule, for any generic forms and subspace V; B^2 = 0
    and the Dirac square hold on every standard module and quotient, and the
    compression and ambient identities on every invariant subspace.  So a
    failed tolerance there is roundoff that the scaled tolerances missed.
    ``koszul`` runs free or on the README quadric, ``identity`` on the
    README quadric (so at d = 2).  The weights are sinsqrt, the one family
    whose scale is not at most 1, with r1 log-uniform in [0.1, 10) and r2
    log-uniform up to 1e12.  Everything is drawn from one seeded generator,
    so the draws spread evenly; --tol keeps its default.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    command = str(rng.choice(["submodule", "linearize", "ev", "koszul", "identity"]))
    on_quadric = command == "identity" or (command == "koszul" and rng.random() < 0.5)
    d, r = 2 if on_quadric else int(rng.integers(1, 4)), int(rng.integers(1, 3))
    n = int(rng.integers(4, 8)) if command in ("koszul", "identity") else \
        int(rng.integers(4, 10 if d < 3 else 8))
    high = rng.uniform(0.0, 12.0)
    argv = [command, "--d", str(d), "--r", str(r), "--N", str(n), "--family", "sinsqrt",
            "--r1", repr(10.0 ** rng.uniform(-1.0, min(high, 1.0) - 0.1)),
            "--r2", repr(10.0 ** high)]
    if command in ("koszul", "identity"):
        return argv, {"--gens": README_QUADRIC} if on_quadric else {}, True
    if command == "ev":
        dim = int(rng.integers(0, d * r + 1))
        raw = rng.normal(size=(d * r, dim)) + 1j * rng.normal(size=(d * r, dim))
        return argv, {"--V": complex_grid(raw)}, True
    gens = random_generators(rng, d, r, int(rng.integers(1, 4)), int(rng.integers(1, 3)))
    return argv, {"--gens": "".join(format_generator(g) + "\n" for g in gens)}, True


def printed_verdicts(obj):
    """Every determined, converged and complete value anywhere in a report."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            if key in ("determined", "converged", "complete"):
                yield value
            yield from printed_verdicts(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from printed_verdicts(value)


@settings(derandomize=True, database=None, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.booleans().flatmap(
    lambda exact: exact_invocations() if exact else invocations().map(lambda c: (*c, False))))
@example((["submodule", "--d", "2", "--N", "10", "--family", "sinsqrt", "--r1", "1",
           "--r2", "1e10"], {"--gens": README_QUADRIC}, True))
@example((["linearize", "--d", "2", "--N", "10", "--family", "sinsqrt", "--r1", "1",
           "--r2", "1e12"], {"--gens": README_QUADRIC}, True))
@example((["ev", "--d", "2", "--N", "8", "--family", "sinsqrt", "--r1", "1",
           "--r2", "1e12"], {"--V": DESK_V}, True))
@example((["koszul", "--d", "2", "--N", "6", "--family", "sinsqrt", "--r1", "1",
           "--r2", "1e12"], {"--gens": README_QUADRIC}, True))
@example((["identity", "--d", "2", "--N", "7", "--family", "sinsqrt", "--r1", "1",
           "--r2", "1e12"], {"--gens": README_QUADRIC}, True))
@example((["ev", "--d", "2", "--N", "2"], {"--V": "1\n0\n"}, False))
@example((["counterexample", "--N", "5"], {"--u": "0 1 -400 -400 -400 -400\n"}, False))
@example((["ev", "--d", "3", "--N", "2", "--tol", "0"], {"--V": WINDOW_AND_TOL_V}, False))
@example((["identity", "--d", "2", "--N", "6", "--family", "sinsqrt", "--r1", "1e-300",
           "--r2", "1e300"], {"--gens": generator_file("quadric", 2)}, False))
@example((*OVERFLOWING_SUMS[0], False))
@example((*OVERFLOWING_SUMS[1], False))
@example((["weights", "--d", "200", "--N", "50"], {}, False))
@example((["weights", "--d", "220", "--N", "2000"], {}, False))
@example((["weights", "--d", "2", "--N", "10", "--tail", "10"], {}, False))
@example((["koszul", "--d", "2", "--N", "5", "--family", "sinsqrt", "--r1", "1",
           "--r2", "1e8"], {}, False))
@example((["weights", "--d", "2", "--N", "1000000000000"], {}, False))
@example((["counterexample", "--N", "1000000000000"], {}, False))
def test_exit_code_contract_holds_on_drawn_invocations(tmp_path, capsys, call):
    argv, files, exact = call
    workdir = Path(tempfile.mkdtemp(dir=tmp_path))
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_with_inputs(workdir, argv, files)
    captured = capsys.readouterr()
    assert [str(w.message) for w in caught] == []
    assert code in (cli.EXIT_OK, cli.EXIT_TOLERANCE, cli.EXIT_PARSE, cli.EXIT_WINDOW)
    assert "Traceback" not in captured.out + captured.err
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    path = workdir / "out" / f"{argv[0]}.json"
    assert (code == cli.EXIT_PARSE) == (len(errors) == 1 and not path.exists())
    if code == cli.EXIT_PARSE:
        return
    # an exact input satisfies every identity the command checks: its
    # residuals are roundoff, which the scaled tolerances must absorb
    assert not (exact and code == cli.EXIT_TOLERANCE), captured.err
    report = json.loads(path.read_text())
    assert (code == cli.EXIT_TOLERANCE) == bool(report["hard_failures"])
    if code == cli.EXIT_OK:
        assert all(value is True for value in printed_verdicts(report))
        if argv[0] == "counterexample":
            # L e_n = lambda_n e_n must be invertible for the pair to be similar
            assert report["intertwiner_extremes"][0] > 0.0


# -- config files ------------------------------------------------------------------


def test_config_file_and_flag_override(tmp_path):
    conf = tmp_path / "exp.conf"
    conf.write_text(
        "# quadric experiment\n"
        "d = 2\nN = 6\nfamily = hardy\n")
    gens = write_quadric(tmp_path)
    out = tmp_path / "out"
    code = run_cli(["submodule", "--config", str(conf), "--gens", str(gens),
                    "--N", "8", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "submodule.json").read_text())
    assert report["config"]["N"] == 8          # flag beats file
    assert report["config"]["family"] == "hardy"
    assert report["config"]["d"] == 2


def test_unknown_config_key_exits_2(tmp_path, capsys):
    gens = write_quadric(tmp_path)
    conf = tmp_path / "typo.conf"
    for key in ("tl", "nodse", "p"):       # typos, and a key submodule never reads
        conf.write_text(f"d = 2\nN = 6\n{key} = 1\n")
        assert run_cli(["submodule", "--config", str(conf), "--gens", str(gens),
                        "--out", str(tmp_path)]) == cli.EXIT_PARSE
        assert f"{conf}:3: unknown key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "submodule.json").exists()


def test_config_value_errors_name_the_key(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text("d = two\nN = 6\n")
    assert run_cli(["koszul", "--config", str(conf),
                    "--out", str(tmp_path)]) == cli.EXIT_PARSE
    assert "--d: invalid int value: 'two'" in capsys.readouterr().err


def test_repeated_p_keys_join_in_order(tmp_path):
    vfile = tmp_path / "V.txt"
    vfile.write_text("1+0i\n0+0i\n")
    conf = tmp_path / "ev.conf"
    # 3, 5 rather than 2, 3: the default list would hide lost keys
    conf.write_text(f"d = 2\nN = 6\nV = {vfile}\np = 3\np = 5\n")
    for flags, expected in (([], [3.0, 5.0]), (["--p", "2"], [2.0])):
        out = tmp_path / f"out{len(flags)}"
        assert run_cli(["ev", "--config", str(conf), *flags, "--out", str(out)]) == 0
        report = json.loads((out / "ev.json").read_text())
        assert report["config"]["p"] == expected
        assert sorted(report["quotient_commutators"]["trends"]) \
            == sorted(f"{p:.15g}" for p in expected)


def test_config_out_key_sets_output_directory(tmp_path):
    conf = tmp_path / "exp.conf"
    conf.write_text(f"N = 24\nout = {tmp_path / 'from-file'}\n")
    assert run_cli(["counterexample", "--config", str(conf)]) == 0
    assert (tmp_path / "from-file" / "counterexample.json").exists()
    assert run_cli(["counterexample", "--config", str(conf),
                    "--out", str(tmp_path / "from-flag")]) == 0
    assert (tmp_path / "from-flag" / "counterexample.json").exists()


def test_readme_examples_parse():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    examples = [shlex.split(line)[1:] for line in readme.read_text().splitlines()
                if line.startswith("gradmod ")]
    parser = cli.build_parser()
    assert {parser.parse_args(argv).command for argv in examples} == set(cli.COMMANDS)


def test_malformed_config_rejected(tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text("no equals sign here\n")
    assert run_cli(["weights", "--config", str(conf), "--N", "50",
                    "--out", str(tmp_path)]) == cli.EXIT_PARSE


# -- report contents ----------------------------------------------------------------


def test_weights_csv_shape(tmp_path):
    assert run_cli(["weights", "--family", "hardy", "--d", "2", "--N", "40",
                    "--p", "2", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "weights.csv").read_text().strip().splitlines()
    assert lines[0] == "k,rho,diff,psum_p2"
    assert len(lines) == 41
    first = lines[1].split(",")
    assert first[0] == "0" and abs(float(first[1]) - 0.5**0.5) < 1e-12


def weights_csv_oracle(values, sums, p_list):
    """weights.csv formatted one row and one numpy scalar at a time."""
    fmt = cli._fmt
    n_weights = len(values)
    rows = ["k,rho,diff," + ",".join(f"psum_p{fmt(p)}" for p in p_list)]
    for k in range(n_weights):
        diff = values[k + 1] - values[k] if k <= n_weights - 2 else None
        cells = [str(k), fmt(values[k]), fmt(diff) if diff is not None else ""]
        for p in p_list:
            in_range = 1 <= k <= n_weights - 2
            cells.append(fmt(sums[p][k - 1]) if in_range else "")
        rows.append(",".join(cells))
    return "\n".join(rows) + "\n"


@pytest.mark.parametrize("family", ["dshift", "hardy", "bergman", "sinsqrt"])
@pytest.mark.parametrize("n_weights", [3, 4, 2000])
@pytest.mark.parametrize("p_list", [[2.0], [1.0, 2.5, 7.0]])
@pytest.mark.parametrize("tail", [None, 1])
def test_weights_csv_matches_the_row_by_row_oracle(tmp_path, family, n_weights, p_list, tail):
    d = 3
    argv = ["weights", "--family", family, "--d", str(d), "--N", str(n_weights),
            "--p", ",".join(map(str, p_list))]
    if family == "sinsqrt":
        argv += ["--r1", "0.5", "--r2", "3"]
    if tail is not None:
        argv += ["--tail", str(tail)]
    assert run_cli(argv + ["--out", str(tmp_path)]) == 0
    weights = make_weights(family, n_weights, d=d, r1=0.5, r2=3.0)
    sums = {p: summability_report(weights, d, p).partial_sums for p in p_list}
    want = weights_csv_oracle(weights.values, sums, p_list)
    got = (tmp_path / "weights.csv").read_text()
    assert got == want
    if family == "dshift":
        assert {row.split(",")[2] for row in got.splitlines()[1:-1]} == {"0"}


def test_ev_report(tmp_path):
    vfile = tmp_path / "V.txt"
    vfile.write_text("1+0i\n0+0i\n")
    assert run_cli(["ev", "--d", "2", "--N", "8", "--V", str(vfile),
                    "--p", "2", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "ev.json").read_text())
    assert report["schema"] == 3
    assert report["ev_dims"] == [1] * 9
    assert report["degree"]["degree"] == 1
    # E_V^perp is generated at level 1
    assert report["degree"]["max_generator_degree"] == 1
    assert report["quotient_commutators"]["note"] == "evidence, not proof"


def test_koszul_report(tmp_path):
    assert run_cli(["koszul", "--d", "2", "--r", "3", "--N", "7",
                    "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "koszul.json").read_text())
    assert report["betti_numbers"] == [0, 0, 3]
    assert report["bsquared_residual"] <= 1e-12


def test_linearize_report(tmp_path):
    gens = write_quadric(tmp_path)
    assert run_cli(["linearize", "--d", "2", "--N", "9", "--family", "bergman",
                    "--gens", str(gens), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "linearize.json").read_text())
    assert report["complete"] is True
    assert report["final_degree"] == 1
    assert report["final_multiplicity"] == 2


def test_identity_report(tmp_path):
    gens = write_quadric(tmp_path)
    assert run_cli(["identity", "--d", "2", "--N", "6", "--gens", str(gens),
                    "--nodes", "128", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "identity.json").read_text())
    assert report["resolvent"]["converged"] is True
    assert report["resolvent"]["distance_to_oracle"] <= 1e-8
    assert all(c["slack"] >= 0 for c in report["resolvent"]["bound_checks"])


def test_identity_builds_each_level_stack_once(tmp_path, monkeypatch):
    # every check reads one Z tuple and one Fock tuple, built once per run,
    # and the quadrature's transforms come from the same Z stack
    built = []
    level_stack = StandardModule._level_stack

    def counted_stack(self, n, fock=False):
        built.append((n, fock))
        return level_stack(self, n, fock)
    monkeypatch.setattr(StandardModule, "_level_stack", counted_stack)
    gens = write_quadric(tmp_path)
    assert run_cli(["identity", "--d", "2", "--N", "7", "--gens", str(gens),
                    "--nodes", "512", "--out", str(tmp_path)]) == 0
    assert sorted(built) == [(n, fock) for n in range(7) for fock in (False, True)]


def test_identity_unconverged_quadrature_fails(tmp_path, monkeypatch):
    # a zero refinement floor is never reached; the cap allows one doubling
    monkeypatch.setattr(normality, "QUAD_REFINE_FLOOR", 0.0)
    monkeypatch.setattr(normality, "QUAD_MAX_NODES", 128)
    gens = write_quadric(tmp_path)
    assert run_cli(["identity", "--d", "2", "--N", "6", "--gens", str(gens),
                    "--nodes", "1", "--out", str(tmp_path)]) == cli.EXIT_TOLERANCE
    report = json.loads((tmp_path / "identity.json").read_text())
    assert report["resolvent"]["converged"] is False
    assert report["resolvent"]["nodes"] == 128
    assert [f["check"] for f in report["hard_failures"]] == ["resolvent_converged"]


@pytest.mark.parametrize("argv,check,target,name,patch", [
    (["ev", "--d", "2", "--N", "8", "--V", "{V}"], "degree_at_most_1",
     GradedSubmodule, "degree_report",
     lambda real: lambda self: replace(real(self), degree=2)),
    (["counterexample", "--N", "12"], "a_self_commutator_rank",
     cli, "similarity_counterexample",
     lambda real: lambda u, n: replace(real(u, n), a_commutator_rank=2)),
], ids=["ev", "counterexample"])
def test_flag_checks_fail_with_int_entries(tmp_path, capsys, monkeypatch,
                                           argv, check, target, name, patch):
    # ev's degree_at_most_1 and counterexample's a_self_commutator_rank are
    # not residuals: each fires on a degree or a rank of 2, printed as ints
    monkeypatch.setattr(target, name, patch(getattr(target, name)))
    vfile = tmp_path / "V.txt"
    vfile.write_text(DESK_V)
    argv = [tok.format(V=vfile) for tok in argv]
    assert run_cli(argv + ["--out", str(tmp_path)]) == cli.EXIT_TOLERANCE
    assert capsys.readouterr().err.splitlines() == [f"FAIL {check}: 2 > 1"]
    [entry] = json.loads((tmp_path / f"{argv[0]}.json").read_text())["hard_failures"]
    assert entry == {"check": check, "value": 2, "tolerance": 1}
    assert type(entry["value"]) is type(entry["tolerance"]) is int


def reports_under_blas_threads(tmp_path, argv, files):
    """The report files of one CLI run under 1 and under 2 OpenBLAS threads."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "gradmod.cli", *argv, "--out", str(out)],
            capture_output=True, text=True, timeout=300, env=env)
        assert proc.returncode == 0, proc.stderr
        reports.append([(out / name).read_bytes() for name in files])
    return reports


def test_identity_report_is_byte_identical_across_blas_threads(tmp_path):
    # the contour rule's stacked solves and products must not depend on the
    # BLAS thread count
    gens = write_quadric(tmp_path)
    first, second = reports_under_blas_threads(
        tmp_path, ["identity", "--d", "2", "--N", "7", "--gens", str(gens),
                   "--nodes", "512"], ["identity.json"])
    assert first == second


@pytest.mark.parametrize("argv,files", [
    (["weights", "--family", "sinsqrt", "--r1", "1", "--r2", "4", "--d", "2",
      "--N", "2000", "--p", "3,5"], ["weights.json", "weights.csv"]),
    (["counterexample", "--N", "60"], ["counterexample.json"]),
    # the identity checks' broadcast products, on generators of degrees 1 and 2
    (["identity", "--d", "3", "--N", "6", "--r", "2", "--family", "hardy", "--gens",
      "1 1+0i (1 0 0)@e1 + 0.5-1i (0 1 0)@e2\n2 1+0i (0 0 2)@e1 + 2+0.5i (1 1 0)@e2\n"],
     ["identity.json"]),
    # the rank workload's rank-heavy runs: their residuals print at the floor
    *[(["submodule", "--d", "3", "--N", "24", "--gens", rank_forms(seed)[0]],
       ["submodule.json"]) for seed in (7, 11)],
    *[(["linearize", "--d", "3", "--N", "11", "--gens", rank_forms(seed)[1]],
       ["linearize.json"]) for seed in (7, 11)],
    # the Koszul complex of the free module, read from its level entries
    (["koszul", "--d", "4", "--N", "9"], ["koszul.json"]),
    # and its Koszul complex on the quotient tuple of two cubics
    *[(["koszul", "--d", "3", "--N", "12", "--gens", rank_forms(seed)[0]],
       ["koszul.json"]) for seed in (7, 11)],
])
def test_reports_are_byte_identical_across_blas_threads(tmp_path, argv, files):
    if "--gens" in argv:
        # the value after --gens is the generators' text; pass it as a file
        at = argv.index("--gens") + 1
        (tmp_path / "gens.txt").write_text(argv[at])
        argv = argv[:at] + [str(tmp_path / "gens.txt")] + argv[at + 1:]
    first, second = reports_under_blas_threads(tmp_path, argv, files)
    assert first == second


def test_console_entry_point(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "gradmod.cli", "counterexample", "--N", "24",
         "--out", str(tmp_path)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert (tmp_path / "counterexample.json").exists()


def capped_run(argv, cwd, cap=1 << 30):
    """One CLI run in a subprocess under a ``cap``-byte address space and a timeout."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "gradmod.cli", *argv, "--out", str(cwd / "out")],
        capture_output=True, text=True, timeout=120, cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1"),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))


@pytest.mark.parametrize("argv", [
    # level 6 alone has 82.5M monomials: this run used to end in a
    # MemoryError traceback from the monomial tables and exit 1
    ["submodule", "--d", "60", "--N", "6", "--gens", "{gens}"],
    ["linearize", "--d", "1", "--N", "1000000000000", "--gens", "{gens}"],
    ["ev", "--d", "2", "--N", "6", "--r", "20000", "--V", "{V}"],
    ["koszul", "--d", "12", "--N", "12"],
    ["identity", "--d", "3", "--N", "200", "--gens", "{gens}"],
], ids=["submodule-d60", "linearize-N1e12", "ev-r20000", "koszul-d12", "identity-N200"])
def test_oversize_configurations_exit_2(tmp_path, argv):
    gens, v = tmp_path / "gens.txt", tmp_path / "V.txt"
    gens.write_text(README_QUADRIC)
    v.write_text("1\n0\n")
    proc = capped_run([tok.format(gens=gens, V=v) for tok in argv], tmp_path)
    assert proc.returncode == cli.EXIT_PARSE, proc.stderr[-2000:]
    [line] = proc.stderr.splitlines()
    assert line.startswith("error:") and "MAX_AMBIENT_DIM = 200000" in line
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


def test_the_coordinate_budget_is_C_N_plus_d_choose_d_times_r():
    budget = MAX_AMBIENT_DIM
    assert not cli.window_exceeds_budget(1, budget - 1, 1)     # C(N+1, 1) = N+1
    assert cli.window_exceeds_budget(1, budget, 1)
    assert not cli.window_exceeds_budget(2, 6, budget // 28)   # C(8, 2) = 28
    assert cli.window_exceeds_budget(2, 6, budget // 28 + 1)
    assert cli.window_exceeds_budget(60, 6, 1)
    # the stretch tier stays well inside: d = 3, N = 24 has 2,925 coordinates
    # and d = 4, N = 22 has 14,950
    for d, top, count in ((3, 24, 2925), (4, 22, 14950)):
        assert math.comb(top + d, d) == count
        assert not cli.window_exceeds_budget(d, top, 1)
