"""Command-line front end: determinism, exit codes, config handling."""

import functools
import json
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from gradmod import cli, normality
from gradmod.completion import StandardModule


def run_cli(argv):
    return cli.main(argv)


def write_quadric(tmp_path):
    gens = tmp_path / "gens.txt"
    gens.write_text("2 1+0i (2 0)@e1 + 1+0i (0 2)@e1\n")
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


def test_hard_check_fails_values_that_are_not_finite():
    failures = []
    cli.hard_check(failures, "ok", 1e-16, 1e-12)
    cli.hard_check(failures, "nan", float("nan"), 1e-12)
    cli.hard_check(failures, "inf", float("inf"), 1e-12)
    assert [f["check"] for f in failures] == ["nan", "inf"]


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


def test_ev_report(tmp_path):
    vfile = tmp_path / "V.txt"
    vfile.write_text("1+0i\n0+0i\n")
    assert run_cli(["ev", "--d", "2", "--N", "8", "--V", str(vfile),
                    "--p", "2", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "ev.json").read_text())
    assert report["ev_dims"] == [1] * 9
    assert report["degree"]["degree"] == 1
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


def test_identity_builds_level_blocks_once_per_check(tmp_path, monkeypatch):
    # the identities are checked one level at a time: each check builds the
    # blocks of a level once for all d^2 pairs (6 interior levels x 2 levels
    # x 2 variables, for the compression identities and for the ambient
    # decomposition), the row sums 7 x 2, and the quadrature's transforms 2
    counts = {"coordinate_block": 0, "fock_block": 0}
    for name in counts:
        original = getattr(StandardModule, name)

        def counted(self, *args, _name=name, _original=original):
            counts[_name] += 1
            return _original(self, *args)
        monkeypatch.setattr(StandardModule, name, counted)
    gens = write_quadric(tmp_path)
    assert run_cli(["identity", "--d", "2", "--N", "7", "--gens", str(gens),
                    "--nodes", "512", "--out", str(tmp_path)]) == 0
    assert counts["coordinate_block"] <= 64
    assert counts["fock_block"] <= 24


def test_identity_unconverged_quadrature_fails(tmp_path, monkeypatch):
    # a zero refinement floor is never reached; the cap allows one doubling
    monkeypatch.setattr(cli, "resolvent_projection", functools.partial(
        normality.resolvent_projection, refine_floor=0.0))
    monkeypatch.setattr(normality, "QUAD_MAX_NODES", 128)
    gens = write_quadric(tmp_path)
    assert run_cli(["identity", "--d", "2", "--N", "6", "--gens", str(gens),
                    "--nodes", "1", "--out", str(tmp_path)]) == cli.EXIT_TOLERANCE
    report = json.loads((tmp_path / "identity.json").read_text())
    assert report["resolvent"]["converged"] is False
    assert report["resolvent"]["nodes"] == 128
    assert [f["check"] for f in report["hard_failures"]] == ["resolvent_converged"]


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
])
def test_reports_are_byte_identical_across_blas_threads(tmp_path, argv, files):
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
