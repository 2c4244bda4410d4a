"""Independent checks of gradmod reports.

Every expected value here comes from a closed form (binomials, Hilbert
series, the weight formula, the weighted-shift algebra), never from gradmod
itself: this module imports nothing from the package.  Each checker takes the
experiment's output directory and returns a list of problems; an empty list
means the report agrees with the closed form.
"""

import csv
import json
import math
from math import comb
from pathlib import Path

VERDICT_FLAGS = ("converged", "determined", "complete")


def load(outdir, command):
    return json.loads((Path(outdir) / f"{command}.json").read_text())


def program_verdict(report):
    """Failures the program itself reports: hard failures and false verdict flags."""
    problems = [f"hard failure {f.get('check')}" for f in report.get("hard_failures", [])]

    def walk(node, path):
        if isinstance(node, dict):
            for key, value in node.items():
                if key in VERDICT_FLAGS and value is False:
                    problems.append(f"{path}{key} is false")
                walk(value, f"{path}{key}.")
        elif isinstance(node, list):
            for value in node:
                walk(value, path)

    walk(report, "")
    return problems


def _expect(problems, label, got, want):
    if got != want:
        problems.append(f"{label}: got {got!r}, expected {want!r}")


def _close(problems, label, got, want, rtol):
    if not math.isclose(float(got), float(want), rel_tol=rtol, abs_tol=0.0):
        problems.append(f"{label}: got {got!r}, expected {want!r}")


def level_dims(d, top, r=1):
    return [r * comb(n + d - 1, d - 1) for n in range(top + 1)]


def hilbert_quotient(d, g, c, top):
    """Coefficients of (1 - t^g)^c / (1 - t)^d through t^top."""
    numerator = {j * g: (-1) ** j * comb(c, j) for j in range(c + 1)}
    return [sum(coeff * comb(n - shift + d - 1, d - 1)
                for shift, coeff in numerator.items() if shift <= n)
            for n in range(top + 1)]


def interior_pairs(d, top):
    """(form degree k, level n) pairs the Koszul report covers: n + k <= N - 1."""
    return {(k, n) for k in range(d + 1) for n in range(top) if n + k <= top - 1}


def _betti_table(report):
    table = {}
    for key, value in report["betti_table"].items():
        k, n = (int(tok) for tok in key.split(","))
        table[(k, n)] = value
    return table


# -- per-command checkers ------------------------------------------------------


def submodule(outdir, d, g, c, N):
    """c <= d generic forms of degree g: dims from (1 - t^g)^c / (1 - t)^d, degree g."""
    rep = load(outdir, "submodule")
    problems = []
    ambient = level_dims(d, N)
    quotient = hilbert_quotient(d, g, c, N)
    _expect(problems, "generator_count", rep["generator_count"], c)
    _expect(problems, "ambient_dims", rep["ambient_dims"], ambient)
    _expect(problems, "quotient_dims", rep["quotient_dims"], quotient)
    _expect(problems, "submodule_dims", rep["submodule_dims"],
            [a - q for a, q in zip(ambient, quotient)])
    _expect(problems, "degree", rep["degree"]["degree"], g)
    return problems


def _koszul(rep, d, top, expected):
    problems = []
    table = _betti_table(rep)
    interior = interior_pairs(d, top)
    _expect(problems, "betti_table pairs", sorted(table), sorted(interior))
    for pair in sorted(table):
        _expect(problems, f"betti_table {pair}", table[pair], expected.get(pair, 0))
    beta = [0] * (d + 1)
    for (k, n), value in expected.items():
        if (k, n) in interior:
            beta[k] += value
    _expect(problems, "betti_numbers", rep["betti_numbers"], beta)
    return problems


def koszul_standard(outdir, d, r, N):
    """Free module: cohomology r at form degree d, level 0; Betti (0, ..., 0, r)."""
    return _koszul(load(outdir, "koszul"), d, N, {(d, 0): r})


def koszul_quotient(outdir, d, g, c, N):
    """Complete intersection of c degree-g forms: C(c, j) at (d - j, j (g - 1))."""
    expected = {(d - j, j * (g - 1)): comb(c, j) for j in range(c + 1)}
    return _koszul(load(outdir, "koszul"), d, N, expected)


def linearize(outdir, d, g, r=1):
    """Degrees fall g, g-1, ..., 1 while the multiplicity grows by d per step."""
    rep = load(outdir, "linearize")
    problems = []
    _expect(problems, "step degrees", [s["degree"] for s in rep["steps"]],
            list(range(g, 0, -1)))
    _expect(problems, "step multiplicities", [s["multiplicity"] for s in rep["steps"]],
            [r * d**i for i in range(g)])
    _expect(problems, "final_degree", rep["final_degree"], 1)
    _expect(problems, "final_multiplicity", rep["final_multiplicity"], r * d ** (g - 1))
    return problems


def ev(outdir, d, m, N):
    """r = 1, dim V = m: dim E_V(n) = C(n + m - 1, m - 1) and degree <= 1."""
    rep = load(outdir, "ev")
    problems = []
    ev_dims = level_dims(m, N)
    _expect(problems, "V_dim", rep["V_dim"], m)
    _expect(problems, "ev_dims", rep["ev_dims"], ev_dims)
    _expect(problems, "orthocomplement_dims", rep["orthocomplement_dims"],
            [a - e for a, e in zip(level_dims(d, N), ev_dims)])
    degree = rep["degree"]["degree"]
    if degree is None or degree > 1:
        problems.append(f"degree: got {degree!r}, expected at most 1")
    return problems


def identity(outdir):
    """Resolvent projection within 1e-8 of the eigendecomposition oracle, slack >= 0."""
    rep = load(outdir, "identity")
    quad = rep["resolvent"]
    if quad is None:
        return ["resolvent section missing"]
    problems = []
    if not quad["distance_to_oracle"] <= 1e-8:
        problems.append(f"distance_to_oracle {quad['distance_to_oracle']!r} > 1e-8")
    for i, check in enumerate(quad["bound_checks"]):
        if not check["slack"] >= 0.0 or not check["bound"] - check["measured"] >= 0.0:
            problems.append(f"bound_checks[{i}] violated: {check!r}")
    return problems


def _sinsqrt(r1, r2, k):
    return math.sqrt(r1 + (r2 - r1) * (1.0 + math.sin(math.sqrt(k))) / 2.0)


def weights(outdir, d, N, p_list, r1, r2):
    """CSV and JSON partial sums recomputed from the sinsqrt weight formula."""
    outdir = Path(outdir)
    rep = load(outdir, "weights")
    problems = []
    rho = [_sinsqrt(r1, r2, k) for k in range(N)]
    with open(outdir / "weights.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    _expect(problems, "csv rows", len(rows), N)
    sums = {p: 0.0 for p in p_list}
    for k, row in enumerate(rows[:N]):
        _expect(problems, f"csv k at row {k}", row["k"], str(k))
        _close(problems, f"rho[{k}]", row["rho"], rho[k], 1e-12)
        for p in p_list:
            col = f"psum_p{p:.15g}"
            if 1 <= k <= N - 2:
                sums[p] += k ** (d - 1) * abs(rho[k + 1] - rho[k]) ** p
                _close(problems, f"{col}[{k}]", row[col], sums[p], 1e-9)
            elif row[col] != "":
                problems.append(f"{col}[{k}] should be empty")
    for p in p_list:
        key = f"{p:.15g}"
        _close(problems, f"summability {key}",
               rep["summability"][key]["final_partial_sum"], sums[p], 1e-9)
        trace = math.fsum((n + 1.0) ** (-p) * comb(n + d - 1, d - 1)
                          for n in range(N + 1))
        _close(problems, f"number_operator_trace {key}",
               rep["number_operator_trace"][key]["final_partial_sum"], trace, 1e-12)
    return problems


def counterexample(outdir, N):
    """Default u = 0, 1, 0, -1, ...: flags at n = 0 mod 4 and the shift's [B*, B].

    For the unilateral weighted shift B e_n = e^{u_{n+1}} e_{n+1} the diagonal of
    [B*, B] at n is e^{2 u_{n+1}} - e^{2 u_n}, except at n = 0 where B* e_0 = 0
    leaves e^{2 u_1}: so e^2 at the flag n = 0 and e^2 - 1 at every later flag.
    """
    rep = load(outdir, "counterexample")
    problems = []
    flags = [n for n in range(N) if n % 4 == 0]
    e2 = math.exp(2.0)
    _expect(problems, "flagged_indices", rep["flagged_indices"], flags)
    _expect(problems, "flagged_count", rep["flagged_count"], len(flags))
    _expect(problems, "intertwining_residual", rep["intertwining_residual"], 0.0)
    _expect(problems, "a_self_commutator_rank", rep["a_self_commutator_rank"], 1)
    diag = rep["b_self_commutator_diag_at_flags"]
    _expect(problems, "b_self_commutator_diag_at_flags length", len(diag), len(flags))
    for n, value in zip(flags, diag):
        _close(problems, f"[B*,B] at {n}", value, e2 if n == 0 else e2 - 1.0, 1e-13)
    for n, value in zip(flags, rep["b_ratio_diag_at_flags"]):
        _close(problems, f"ratio at {n}", value, e2, 1e-13)
    return problems
