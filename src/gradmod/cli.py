"""Batch command-line front end.

Each invocation runs one experiment.  ``main`` writes its deterministic JSON
report ``<command>.json`` into the output directory (``weights`` also writes
the table ``weights.csv``): identical configurations produce byte-identical
files.  Floats are rounded to 15 significant digits, keys are sorted, and no
timestamps or machine data are embedded.  The residual of an exact identity
prints as max(||X||_2, bound) with bound = min(RESIDUAL_FLOOR * scale,
tolerance) (``limits``), so roundoff below the bound prints as the bound
whatever the BLAS thread count.

Each command returns its report, its list of ``Check`` records and the
reason its truncation window ran out (None if it did not).  ``main`` alone
turns the failed checks into the report's ``hard_failures`` and the ``FAIL``
lines, and picks the exit code: 0 all hard identity residuals within
tolerance; 1 a tolerance failed; 2 configuration or input-file parse error,
including a flag or config key the command does not read; 3 truncation
window exhausted and no tolerance failed (partial report written).

Each flag is declared once in ``FLAGS``, and ``COMMAND_FLAGS`` lists the
flags each command reads; a command accepts only those, plus ``--config``
and ``--out``.  Config files are flat ``key = value`` text, one experiment
per file, ``#`` starting a comment, and each key must be a flag of the
command.  Their lines become ``--key=value`` tokens placed before the
command-line flags and go through the same parse, so flags override file
keys; repeated ``p`` keys join into one list.
"""

import argparse
import functools
import json
import math
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import config as cfg
from . import linalg
from .completion import (StandardModule, make_weights, number_trace_report,
                         oscillation_report, summability_report)
from .koszul import betti_numbers, betti_table, build_koszul, dirac_square_residuals
from .linearize import (ev_gradient_levels, ev_space, linearize_full,
                        parse_subspace, pullback_quotient, recover_subspace)
from .normality import (alternating_block_sequence,
                        commutator_decomposition_residual,
                        compression_identity_residuals, resolvent_projection,
                        row_sum_residual, schatten_report,
                        similarity_counterexample, spectral_projection_oracle)
from .submodules import GradedSubmodule, parse_generators

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_PARSE = 2
EXIT_WINDOW = 3

UNDETERMINED = "degree not determinable at this truncation"


class ParseFailure(Exception):
    pass


class Check(NamedTuple):
    """One hard check of a report; a failed one sets the exit code to 1."""
    name: str
    value: float
    tolerance: float
    passed: bool


# -- deterministic serialization -----------------------------------------


def _canonical(obj):
    """Round floats to 15 significant digits and flatten numpy containers."""
    if isinstance(obj, dict):
        return {str(k): _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return float(f"{x:.15g}") if np.isfinite(x) else repr(x)
    if isinstance(obj, (np.complexfloating, complex)):
        z = complex(obj)
        return {"re": _canonical(z.real), "im": _canonical(z.imag)}
    if isinstance(obj, (np.integer, int, np.bool_, bool, str)) or obj is None:
        if isinstance(obj, (np.integer, np.bool_)):
            return obj.item()
        return obj
    if isinstance(obj, np.ndarray):
        return [_canonical(v) for v in obj.tolist()]
    raise TypeError(f"cannot serialize {type(obj)!r}")


def report_json(report):
    return json.dumps(_canonical(report), indent=2, sort_keys=True) + "\n"


def write_output(path, text):
    path.write_text(text)
    print(f"wrote {path}")


def _fmt(x):
    return f"{float(x):.15g}"


# -- flags, config files and parsing -------------------------------------------


def finite_float(text):
    """float() for flags and config keys; nan and infinities are rejected."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def tolerance(text):
    """The ``--tol`` value: a finite float >= 0, since no residual is negative."""
    value = finite_float(text)
    if value < 0:
        raise ValueError(f"negative tolerance {text!r}")
    return value


def schatten_list(text):
    """The ``--p`` value: a comma list of finite Schatten exponents >= 1."""
    try:
        values = [finite_float(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad p list: {exc}") from exc
    if not values or any(p < 1 for p in values):
        raise argparse.ArgumentTypeError(f"p values must be >= 1, got {text!r}")
    return values


# Every flag a command may read, declared once; a command's parser takes only
# the flags ``COMMAND_FLAGS`` lists for it, plus --config and --out.
FLAGS = {
    "d": dict(type=int, help="number of variables"),
    "r": dict(type=int, default=1, help="multiplicity dim E (default 1)"),
    "N": dict(type=int, help="truncation degree"),
    "family": dict(choices=["dshift", "hardy", "bergman", "sinsqrt"],
                   default="dshift", help="weight family (default dshift)"),
    "r1": dict(type=finite_float, help="sinsqrt lower bound"),
    "r2": dict(type=finite_float, help="sinsqrt upper bound"),
    "p": dict(type=schatten_list, default=(2.0, 3.0),
              help="comma list of Schatten exponents (default 2,3)"),
    "gens": dict(help="generators file (one per line: "
                      "'deg c (a_1 .. a_d)@e_i + ...', c in a+bi form)"),
    "V": dict(help="subspace file: rows of complex entries, columns span V in d.E"),
    "u": dict(help="file of u_n values (default: an alternating block sequence)"),
    "tol": dict(type=tolerance, help="override hard-check tolerance (>= 0)"),
    "nodes": dict(type=int, default=cfg.QUAD_DEFAULT_NODES,
                  help="contour quadrature nodes"),
    "tail": dict(type=int, help="tail window for oscillation (default max(2, N // 2))"),
}

MODULE_FLAGS = ("d", "r", "N", "family", "r1", "r2")
COMMAND_FLAGS = {
    "weights": ("d", "N", "family", "r1", "r2", "p", "tail"),
    "submodule": MODULE_FLAGS + ("gens", "tol"),
    "linearize": MODULE_FLAGS + ("gens", "tol"),
    "ev": MODULE_FLAGS + ("V", "p", "tol"),
    "koszul": MODULE_FLAGS + ("gens", "tol"),
    "identity": MODULE_FLAGS + ("gens", "tol", "nodes"),
    "counterexample": ("N", "u"),
}

COMMAND_HELP = {
    "weights": "weight table, slow-oscillation and summability diagnostics "
               "(CSV columns: k, rho, diff = rho_{k+1}-rho_k, cumulative "
               "psum_p<P> = sum k^{d-1}|diff|^p from k=1)",
    "submodule": "generate a graded submodule, report dimensions/degree/reducing",
    "linearize": "iterate the row-operator pullback down to degree 1",
    "ev": "E_V spaces of a subspace V of d.E and the quotient commutator trends",
    "koszul": "Koszul boundary, Betti table and Dirac-square residuals",
    "identity": "compression identities, row sums, resolvent projection bound",
    "counterexample": "similar pair LA = BL with only one side essentially normal",
}


class _Parser(argparse.ArgumentParser):
    """Reports every parse error as a ParseFailure instead of exiting."""

    def error(self, message):
        raise ParseFailure(f"{self.prog}: {message}")


@functools.cache
def build_parser():
    """The command-line parser, built once per process; parsing never changes it."""
    parser = _Parser(
        prog="gradmod",
        description="Graded Hilbert module experiments with deterministic reports.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in COMMAND_HELP.items():
        p = sub.add_parser(name, help=help_text, description=help_text,
                           allow_abbrev=False)
        p.add_argument("--config", help="flat key = value file of this command's flags")
        p.add_argument("--out", default=".", help="output directory")
        for flag in COMMAND_FLAGS[name]:
            p.add_argument(f"--{flag}", **FLAGS[flag])
    return parser


def config_tokens(path, command):
    """A flat ``key = value`` file as ``--key=value`` tokens for ``command``.

    Each key must be a flag of the command (or ``out``).  Repeated ``p`` keys
    join into one comma list; any other repeated key keeps every token, so
    the last one wins.
    """
    allowed = COMMAND_FLAGS[command] + ("out",)
    entries = {}
    text = read_text_file(path, "config")
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, eq, value = (part.strip() for part in stripped.partition("="))
        if not eq:
            raise ParseFailure(f"{path}:{lineno}: expected 'key = value'")
        if key not in allowed:
            raise ParseFailure(f"{path}:{lineno}: unknown key {key!r}; "
                               f"{command} takes {', '.join(allowed)}")
        entries.setdefault(key, []).append(value)
    if "p" in entries:
        entries["p"] = [",".join(entries["p"])]
    return [f"--{key}={value}" for key, values in entries.items() for value in values]


def parse_args(argv):
    """Parse the command line; a --config file's keys go in before its flags.

    The top-level parser takes no options, so ``argv[0]`` is the command.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    return parser.parse_args([argv[0], *config_tokens(args.config, args.command),
                              *argv[1:]])


def window_exceeds_budget(d, top, r):
    """C(top+d, d) r > MAX_AMBIENT_DIM, stopping at the first C(top+i, i) r past it.

    A d or r below 1 counts as 1, so a huge window is refused whatever else is wrong.
    """
    count = max(r, 1)
    for i in range(1, max(d, 1) + 1):
        count = count * (top + i) // i
        if count > cfg.MAX_AMBIENT_DIM:
            return True
    return False


def build_module(args):
    if args.d is None:
        raise ParseFailure("missing dimension --d")
    if args.N is None:
        raise ParseFailure("missing truncation --N")
    if args.N < 2:
        raise ParseFailure("need N >= 2")
    if window_exceeds_budget(args.d, args.N, args.r):
        raise ParseFailure(f"d = {args.d}, N = {args.N}, r = {args.r} has more than MAX_AMBIENT_DIM"
                           f" = {cfg.MAX_AMBIENT_DIM} coordinates C(N+d, d) r over the window")
    try:
        weights = make_weights(args.family, args.N, d=args.d, r1=args.r1, r2=args.r2)
        return StandardModule(weights, d=args.d, multiplicity=args.r)
    except ValueError as exc:
        raise ParseFailure(str(exc)) from exc


def config_echo(args, **extra):
    """The report's ``config`` block.

    ``r`` and ``tol`` are echoed only by the commands that read them (so not
    by ``weights``); ``r1`` and ``r2`` only when set.
    """
    echo = {"family": args.family, "d": args.d, "N": args.N}
    for key in ("r", "tol"):
        if key in vars(args):
            echo[key] = getattr(args, key)
    for key in ("r1", "r2"):
        if getattr(args, key) is not None:
            echo[key] = getattr(args, key)
    echo.update(extra)
    return echo


def within(name, value, tol):
    """The check value <= tol; a NaN or infinite value never passes."""
    return Check(name, value, tol, math.isfinite(value) and value <= tol)


def limits(args, default, scale=1.0, floor=0.0):
    """(tol, bound) of a residual check: its scaled tolerance and printed bound.

    tol = max(--tol or else ``default``, ``floor``) * ``scale``, where
    ``scale`` is 1, ``linear_scale`` or ``tuple_scale``, and bound =
    min(RESIDUAL_FLOOR * scale, tol).  The report prints max(||X||_2, bound)
    (``linalg.residual``), and since bound <= tol that value passes ``tol``
    exactly when ||X||_2 does: the verdict is the raw one, and a failing
    residual prints its exact 2-norm.
    """
    tol = max(args.tol if args.tol is not None else default, floor) * scale
    return tol, min(cfg.RESIDUAL_FLOOR * scale, tol)


def linear_scale(module):
    """max(max rho, 1): the scale of a residual linear in the coordinate tuple.

    ||Z_k(n)|| <= rho_n, so the roundoff of an exact identity that applies
    one block of the tuple (invariance, co-invariance) grows with max rho;
    its tolerance is scaled by this factor, which is 1 for weights at most 1.
    Residuals built from isometries (L/rho, orthonormal bases, subspace
    distances) are scale-free and keep scale 1.
    """
    return max(float(module.rho.max()), 1.0)


def tuple_scale(module):
    """max(max rho^2, 1): the scale of a residual quadratic in the coordinate tuple.

    An exact identity that multiplies two blocks of the tuple has roundoff
    growing with max rho^2: the square of ``linear_scale``.
    """
    return linear_scale(module) ** 2


def read_text_file(path, what):
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ParseFailure(f"cannot read {what} file {path}: {exc}") from exc


def load_generators(args, module):
    if args.gens is None:
        raise ParseFailure("this command needs --gens FILE")
    text = read_text_file(args.gens, "generators")
    try:
        gens = parse_generators(text, module.d)
        if not gens:
            raise ValueError("no generators in file")
        return GradedSubmodule.generate(module, gens), gens
    except ValueError as exc:
        raise ParseFailure(str(exc)) from exc


def _series(reports, total):
    """The payload of ``{p: trends.SummabilityReport}``: the last partial sum as ``total``."""
    return {_fmt(p): {total: float(rep.partial_sums[-1]),
                      "trend": rep.trend.trend,
                      "ratio": rep.trend.ratio} for p, rep in reports.items()}


# -- commands ----------------------------------------------------------------


def cmd_weights(args, outdir):
    d, n_weights = args.d, args.N
    if d is None:
        raise ParseFailure("weights needs --d (the summability weight k^(d-1))")
    if d < 1:
        raise ParseFailure("weights needs --d >= 1")
    if n_weights is None or n_weights < 3:
        raise ParseFailure("weights needs --N >= 3")
    if n_weights > cfg.MAX_AMBIENT_DIM:
        raise ParseFailure(f"weights needs --N <= MAX_AMBIENT_DIM = {cfg.MAX_AMBIENT_DIM}")
    try:
        weights = make_weights(args.family, n_weights, d=d, r1=args.r1, r2=args.r2)
    except ValueError as exc:
        raise ParseFailure(str(exc)) from exc
    p_list = args.p
    tail = max(2, n_weights // 2) if args.tail is None else args.tail
    if not 1 <= tail <= n_weights - 1:
        raise ParseFailure("weights needs 1 <= --tail <= N - 1 (N weights have "
                           "N - 1 differences)")

    osc = oscillation_report(weights, tail)
    try:
        reports = {p: summability_report(weights, d, p) for p in p_list}
        trace = {p: number_trace_report(d, p, n_weights) for p in p_list}
    except ValueError as exc:
        raise ParseFailure(str(exc)) from exc

    report = {
        "schema": 2,
        "command": "weights",
        "config": config_echo(args, p=p_list, tail=tail),
        "bounds": {"min": weights.bounds[0], "max": weights.bounds[1]},
        "rho_head": weights.values[:8],
        "oscillation": {
            "tail_max": osc.tail_max,
            "slope": osc.slope,
            "tail_window": osc.tail_window,
        },
        "summability": _series(reports, "final_partial_sum"),
        "number_operator_trace": _series(trace, "final_partial_sum"),
    }

    # one column at a time: the cells are the strings _fmt gives, and a psum
    # column is blank on the first and last rows, which have no partial sum
    fmt = "{:.15g}".format
    rho = weights.values
    columns = [map(str, range(n_weights)), map(fmt, rho.tolist()),
               [*map(fmt, np.diff(rho).tolist()), ""]]
    columns += [["", *map(fmt, reports[p].partial_sums.tolist()), ""] for p in p_list]
    rows = ["k,rho,diff," + ",".join(f"psum_p{_fmt(p)}" for p in p_list)]
    rows += map(",".join, zip(*columns))
    write_output(outdir / "weights.csv", "\n".join(rows) + "\n")
    return report, [], None


def _degree_payload(report):
    return {
        "degree": report.degree,
        "determined": report.determined,
        "flags": {str(k): bool(v) for k, v in report.flags.items()},
        "window": report.window,
        "max_generator_degree": report.max_generator_degree,
        "degenerate_zero": report.degenerate_zero,
        "witnessed_levels": report.witnessed_levels,
    }


def cmd_submodule(args, outdir):
    module = build_module(args)
    sub, gens = load_generators(args, module)
    report_deg = sub.degree_report()
    reducing, v_basis = sub.is_reducing()

    ortho_tol, ortho_bound = limits(args, cfg.SPAN_TOL, floor=cfg.EXACT_TOL)
    invariance_tol, invariance_bound = limits(args, cfg.SPAN_TOL, linear_scale(module))
    orthonormality = sub.orthonormality_residual(ortho_bound)
    invariance = sub.invariance_residual(invariance_bound)
    checks = [within("level_basis_orthonormality", orthonormality, ortho_tol),
              within("coordinate_invariance", invariance, invariance_tol)]

    report = {
        "schema": 3,
        "command": "submodule",
        "config": config_echo(args, gens=args.gens),
        "generator_count": len(gens),
        "ambient_dims": [module.level_dim(n) for n in range(module.top_level + 1)],
        "submodule_dims": sub.dims(),
        "quotient_dims": [q.shape[1] for q in sub.quotient_bases.values()],
        "degree": _degree_payload(report_deg),
        "reducing": {"is_reducing": reducing,
                     "V_dim": None if v_basis is None else v_basis.shape[1]},
        "residuals": {
            "orthonormality": orthonormality,
            "invariance": invariance,
        },
    }
    return report, checks, None if report_deg.determined else UNDETERMINED


def cmd_linearize(args, outdir):
    module = build_module(args)
    sub, _ = load_generators(args, module)
    coinvariance_tol, coinvariance_bound = limits(args, cfg.SPAN_TOL, linear_scale(module))
    kernel_tol, kernel_bound = limits(args, cfg.SPAN_TOL)
    result = linearize_full(sub, coinvariance_bound, kernel_bound)

    checks = [within(f"pullback_coinvariance_step_{i}", resid, coinvariance_tol)
              for i, resid in enumerate(result.coinvariance_residuals)]
    checks += [within(f"kernel_containment_step_{i}", resid, kernel_tol)
               for i, resid in enumerate(result.kernel_residuals)]

    report = {
        "schema": 3,
        "command": "linearize",
        "config": config_echo(args, gens=args.gens),
        "complete": result.complete,
        "reason": result.reason,
        "steps": [{
            "multiplicity": s.multiplicity,
            "degree": s.degree,
            "window": s.window,
            "level_dims": list(s.level_dims),
        } for s in result.steps],
        "coinvariance_residuals": list(result.coinvariance_residuals),
        "kernel_containment_residuals": list(result.kernel_residuals),
        "final_degree": result.steps[-1].degree if result.steps else None,
        "final_multiplicity": result.final.module.multiplicity,
    }
    return report, checks, None if result.complete else result.reason


def cmd_ev(args, outdir):
    module = build_module(args)
    if args.V is None:
        raise ParseFailure("ev needs --V FILE (column vectors in d.E)")
    try:
        v = parse_subspace(read_text_file(args.V, "subspace"), module)
    except ValueError as exc:
        raise ParseFailure(str(exc)) from exc
    tol, bound = limits(args, cfg.ROUNDTRIP_TOL)
    invariance_tol, invariance_bound = limits(args, cfg.SPAN_TOL, linear_scale(module))
    p_list = args.p

    sub = ev_space(module, v)
    ev = sub.quotient_bases
    ev_grad = ev_gradient_levels(module, v)
    route_gap = linalg.largest(
        [linalg.subspace_distance(ev[n], ev_grad[n], bound) for n in ev], 0.0)
    deg = sub.degree_report()
    recovered = recover_subspace(sub)
    roundtrip = linalg.subspace_distance(v.basis, recovered.basis, bound)
    try:
        en = schatten_report(sub.quotient_tuple(), p_list)
    except ValueError as exc:
        raise ParseFailure(str(exc)) from exc

    checks = [within("roundtrip_V_distance", roundtrip, tol),
              within("adjoint_vs_gradient_route", route_gap, tol),
              within("level0_component", float(sub.dim(0)), 0.0),
              within("invariance", sub.invariance_residual(invariance_bound),
                     invariance_tol)]
    if deg.determined:
        checks.append(within("degree_at_most_1", deg.degree, 1))

    report = {
        "schema": 3,
        "command": "ev",
        "config": config_echo(args, V=args.V, p=p_list),
        "V_dim": v.dim,
        "ev_dims": [int(ev[n].shape[1]) for n in sorted(ev)],
        "orthocomplement_dims": sub.dims(),
        "degree": _degree_payload(deg),
        "roundtrip_V_distance": roundtrip,
        "adjoint_vs_gradient_route": route_gap,
        "quotient_commutators": {
            "note": "evidence, not proof",
            "trends": _series(en, "cumulative"),
        },
    }
    return report, checks, None if deg.determined else UNDETERMINED


def cmd_koszul(args, outdir):
    module = build_module(args)
    scale = tuple_scale(module)
    dirac_tol, dirac_bound = limits(args, cfg.IDENTITY_TOL, scale)
    bsquared_tol, bsquared_bound = limits(args, cfg.IDENTITY_TOL, scale, cfg.EXACT_TOL)
    if args.gens is None:
        ops = module.coordinate_entries()
        subject = "standard module"
    else:
        sub, _ = load_generators(args, module)
        ops = sub.quotient_tuple()
        subject = "quotient module"
    try:
        complex_ = build_koszul(ops)
        table = betti_table(complex_)
    except ValueError as exc:
        raise ParseFailure(str(exc)) from exc
    dirac = dirac_square_residuals(complex_, dirac_bound)
    bsquared = complex_.bsquared_residual(bsquared_bound)
    checks = [within("boundary_squared", bsquared, bsquared_tol)]
    checks += [within(f"dirac_square_level_{n}", resid, dirac_tol)
               for n, resid in dirac.items()]

    report = {
        "schema": 2,
        "command": "koszul",
        "config": config_echo(args, gens=args.gens),
        "subject": subject,
        "bsquared_residual": bsquared,
        "betti_numbers": list(betti_numbers(table)),
        "betti_table": {f"{k},{n}": int(dim) for (k, n), dim in sorted(table.items())},
        "dirac_residuals": {str(n): resid for n, resid in dirac.items()},
    }
    return report, checks, None


def cmd_identity(args, outdir):
    module = build_module(args)
    sub, _ = load_generators(args, module)
    scale = tuple_scale(module)
    comp_tol, comp_bound = limits(args, cfg.IDENTITY_TOL, scale)
    exact_tol, exact_bound = limits(args, cfg.EXACT_TOL, scale)
    nodes = args.nodes
    if nodes <= 0:
        raise ParseFailure("identity needs --nodes >= 1")
    ops, fock_ops = module.coordinate_tuple(), module.fock_tuple()

    # compression identities on all interior levels, all pairs at once
    comp = {}
    for n in range(1, module.top_level):
        pairs = compression_identity_residuals(ops, sub, n, comp_bound)
        comp[str(n)] = linalg.largest(pairs, 0.0)

    # ambient exact identities
    row_res = linalg.largest([row_sum_residual(ops, module.rho, n, exact_bound)
                              for n in range(module.top_level)], 0.0)
    dec_res = linalg.largest(
        [commutator_decomposition_residual(ops, fock_ops, module.rho, n, exact_bound)
         for n in range(1, module.top_level)], 0.0)
    checks = [within("compression_identities",
                     linalg.largest(list(comp.values()), 0.0), comp_tol),
              within("row_sum_identity", row_res, exact_tol),
              within("commutator_decomposition", dec_res, exact_tol)]

    # resolvent projection at a mid level
    level = min(2, module.top_level - 2)
    lmat = module.row_block(level)
    pulled = pullback_quotient(module, sub.quotient_basis(level + 1), level)
    b = lmat @ (np.eye(lmat.shape[1]) - linalg.projector(pulled)) @ lmat.conj().T
    eigs = np.linalg.eigvalsh(b)
    positive = eigs[eigs > cfg.RANK_TOL_FACTOR * max(eigs.max(initial=0.0), 1.0)]
    quad_report = None
    if positive.size:
        gap = float(positive.min())
        up = ops[level + 1]
        y_ops = linalg.adjoint(up) @ up      # Y_k = Z_k* Z_k
        try:
            rep = resolvent_projection(b, gap, nodes=nodes, transforms=y_ops,
                                       p_values=[1.0])
        except ValueError as exc:
            raise ParseFailure(f"identity: {exc}") from exc
        oracle = spectral_projection_oracle(b, gap)
        distance = linalg.opnorm(rep.projection - oracle)
        checks += [Check("resolvent_converged", rep.successive_difference,
                         cfg.QUAD_REFINE_FLOOR, rep.converged),
                   within("resolvent_vs_eigendecomposition", distance, 1e-8)]
        checks += [within(f"commutator_bound_{i}", -c.slack, 0.0)
                   for i, c in enumerate(rep.bound_checks)]
        quad_report = {
            "level": level,
            "gap": gap,
            "nodes": rep.nodes,
            "converged": rep.converged,
            "successive_difference": rep.successive_difference,
            "distance_to_oracle": distance,
            "bound_checks": [{
                "p": c.p, "measured": c.measured,
                "bound": c.bound, "slack": c.slack,
            } for c in rep.bound_checks],
        }

    report = {
        "schema": 2,
        "command": "identity",
        "config": config_echo(args, gens=args.gens, nodes=nodes),
        "compression_identity_residuals": comp,
        "row_sum_residual": row_res,
        "commutator_decomposition_residual": dec_res,
        "resolvent": quad_report,
    }
    return report, checks, None


def cmd_counterexample(args, outdir):
    n_levels, u_path = args.N, args.u
    if n_levels is None or n_levels < 5:
        raise ParseFailure("counterexample needs --N >= 5")
    if n_levels > cfg.MAX_AMBIENT_DIM:
        raise ParseFailure("counterexample needs --N <= MAX_AMBIENT_DIM = "
                           f"{cfg.MAX_AMBIENT_DIM}")
    if u_path is None:
        u = alternating_block_sequence(n_levels + 1)
    else:
        tokens = read_text_file(u_path, "u sequence").split()
        try:
            u = np.array([float(tok) for tok in tokens])
        except ValueError as exc:
            raise ParseFailure(f"bad u file: {exc}") from exc
        for tok, x in zip(tokens, u):
            if not math.isfinite(x):
                raise ParseFailure(f"bad u file: non-finite value {tok!r}")
    try:
        rep = similarity_counterexample(u, n_levels)
    except ValueError as exc:
        raise ParseFailure(str(exc)) from exc

    checks = [within("intertwining_LA_equals_BL", rep.intertwining_residual, 0.0),
              Check("a_self_commutator_rank", rep.a_commutator_rank, 1,
                    rep.a_commutator_rank == 1)]

    report = {
        "schema": 1,
        "command": "counterexample",
        "config": {"N": n_levels, "u": u_path or "alternating-default"},
        "flagged_indices": rep.flagged_indices,
        "flagged_count": int(rep.flagged_indices.size),
        "intertwining_residual": rep.intertwining_residual,
        "a_self_commutator_rank": rep.a_commutator_rank,
        "b_self_commutator_diag_at_flags":
            rep.b_commutator_diag[rep.flagged_indices],
        "b_ratio_diag_at_flags": rep.b_ratio_diag[rep.flagged_indices],
        "max_partial_sum": rep.max_partial_sum,
        "intertwiner_extremes": list(rep.intertwiner_extremes),
        "b_weights": np.exp(rep.u[1:]),
    }
    return report, checks, None


COMMANDS = {
    "weights": cmd_weights,
    "submodule": cmd_submodule,
    "linearize": cmd_linearize,
    "ev": cmd_ev,
    "koszul": cmd_koszul,
    "identity": cmd_identity,
    "counterexample": cmd_counterexample,
}


def main(argv=None):
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
        outdir = Path(args.out)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ParseFailure(f"cannot create output directory: {exc}") from exc
        report, checks, window = COMMANDS[args.command](args, outdir)
    except ParseFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE

    failures = [c for c in checks if not c.passed]
    report["hard_failures"] = [{"check": c.name, "value": c.value, "tolerance": c.tolerance}
                               for c in failures]
    write_output(outdir / f"{args.command}.json", report_json(report))
    if window is not None:
        print(f"window exhausted: {window}", file=sys.stderr)
    for c in failures:
        print(f"FAIL {c.name}: {c.value} > {c.tolerance}", file=sys.stderr)
    if failures:
        return EXIT_TOLERANCE
    return EXIT_OK if window is None else EXIT_WINDOW


if __name__ == "__main__":
    sys.exit(main())
