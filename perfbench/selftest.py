#!/usr/bin/env python3
"""Mutation test of the benchmark's checkers.

Runs one experiment per checker through ``gradmod.cli.main``, confirms that
the checker accepts the real report, then alters one value of the report
(or one cell of the weights CSV) and confirms that the checker rejects it.
Two more cases confirm that a false verdict flag and a hard failure are
caught.  Run from the checkout root:

    python3 perfbench/selftest.py

It prints one line per case and exits 1 if any clean report is rejected or
any altered one is accepted.
"""

import contextlib
import io
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = Path("perfbench") / "_work" / "selftest"
KNOWN_FAULT = "resolvent.converged is false"


def edit_json(outdir, command, key_path, value):
    """Set report[key_path[0]][key_path[1]]... = value in <outdir>/<command>.json."""
    path = Path(outdir) / f"{command}.json"
    report = json.loads(path.read_text())
    node = report
    for key in key_path[:-1]:
        node = node[key]
    node[key_path[-1]] = value
    path.write_text(json.dumps(report))


def edit_csv_cell(outdir, row, column, factor):
    path = Path(outdir) / "weights.csv"
    lines = path.read_text().splitlines()
    col = lines[0].split(",").index(column)
    cells = lines[row + 1].split(",")
    cells[col] = repr(float(cells[col]) * factor)
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _set(command, key_path, value):
    return lambda outdir: edit_json(outdir, command, key_path, value)


# (experiment, what is altered, mutation, whose check must reject it)
CASES = [
    ("submodule-0", "submodule_dims[5] = 5 (closed form 4)",
     _set("submodule", ["submodule_dims", 5], 5), "checker"),
    ("koszul-0", "betti_table[2,0] = 4 (closed form 3)",
     _set("koszul", ["betti_table", "2,0"], 4), "checker"),
    ("koszul-quotient-d3-N12", "betti_table[2,2] = 3 (closed form 2)",
     _set("koszul", ["betti_table", "2,2"], 3), "checker"),
    ("linearize-0", "steps[1].multiplicity = 3 (closed form 2)",
     _set("linearize", ["steps", 1, "multiplicity"], 3), "checker"),
    ("ev-d3-N16-m2", "ev_dims[4] = 6 (closed form 5)",
     _set("ev", ["ev_dims", 4], 6), "checker"),
    ("identity-d2-N7", "distance_to_oracle = 2e-8",
     _set("identity", ["resolvent", "distance_to_oracle"], 2e-8), "checker"),
    ("weights-0", "psum_p3 at k = 1000 times (1 + 1e-6)",
     lambda outdir: edit_csv_cell(outdir, 1000, "psum_p3", 1.0 + 1e-6), "checker"),
    ("counterexample-0", "[B*,B] at the flag n = 8 set to e^2",
     _set("counterexample", ["b_self_commutator_diag_at_flags", 2], 7.38905609893065),
     "checker"),
    ("submodule-0", "degree.determined = false",
     _set("submodule", ["degree", "determined"], False), "verdict"),
    ("ev-0", "hard_failures = [one entry]",
     _set("ev", ["hard_failures"], [{"check": "x", "value": 1, "tolerance": 0}]),
     "verdict"),
]


def main():
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    import gradmod.cli as cli
    import workloads

    experiments = {}
    for workload in workloads.WORKLOADS:
        for exp in workloads.build(workload, 1, WORKDIR / workload):
            experiments.setdefault(exp.name, exp)

    def verdict(exp):
        return checks.program_verdict(checks.load(exp.outdir, exp.command))

    bad = 0
    for name in sorted({case[0] for case in CASES}):
        exp = experiments[name]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(exp.argv))
        clean = [p for p in exp.check(exp.outdir) + verdict(exp) if p != KNOWN_FAULT]
        ok = code == 0 and not clean
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}: real report accepted"
              + ("" if ok else f" (exit {code}, {clean})"))
        snapshot = {path: path.read_bytes() for path in exp.outdir.iterdir()}
        for _, label, mutate, by in (case for case in CASES if case[0] == name):
            mutate(exp.outdir)
            problems = exp.check(exp.outdir) if by == "checker" else verdict(exp)
            bad += not problems
            print(f"{'ok  ' if problems else 'FAIL'} {name}: {label} -> "
                  + (problems[0] if problems else "ACCEPTED"))
            for path, data in snapshot.items():
                path.write_bytes(data)
    shutil.rmtree(WORKDIR, ignore_errors=True)
    print(f"{'PASS' if not bad else 'FAIL'}: {bad} case(s) wrong")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
