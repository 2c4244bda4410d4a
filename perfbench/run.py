#!/usr/bin/env python3
"""Seeded benchmark of gradmod experiments: end-to-end times and a per-layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rank --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

One run is one fresh process.  It imports gradmod from ``src/``, writes the
workload's seeded inputs under ``perfbench/_work/`` and then runs passes: a
pass calls ``gradmod.cli.main(argv)`` once per experiment of the workload,
one at a time (a closed loop with one client).  Whole passes run until the
run is as near ``--seconds`` as it can get; every report is checked against
closed forms after its pass.  Pass times are reported in units of a
reference kernel timed during the pass (``HostSpeed``), which cancels the
host's drifting speed.  With ``--trace 1`` the run times untraced passes for
half the budget, then runs one pass under the outside-in tracer and reports
the per-layer metrics.  The last line of stdout is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
WORK = Path("perfbench") / "_work"     # relative to ROOT, so reports echo stable paths
OUT = Path("perfbench") / "out"
SETUP_PROBES = 9
BLAS_THREADS = 1       # pinned OpenBLAS threads; one was as fast as two on 2 CPUs, and steadier
CHILD_TIMEOUT_S = 170


def setup(workload, seed, workdir):
    """Import gradmod from src/ and write the workload's seeded inputs."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import gradmod.cli as cli
    except ImportError as exc:
        raise SystemExit(f"error: cannot import gradmod from {src}: {exc}") from exc
    if src.resolve() not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"error: gradmod was imported from {cli.__file__}, not {src}")
    import workloads
    return cli, workloads.build(workload, seed, workdir)


def setup_probe(args, speed):
    """Set-up time of one fresh child process: (seconds, kernels).

    The kernel is timed just before and just after the child runs; the whole
    run is pinned to one CPU, so the child runs on the CPU the kernel times.
    """
    first = len(speed.samples)
    for _ in range(3):
        speed.sample()
    probe_dir = WORK / f"{args.workload}-setup"
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe", str(probe_dir)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"error: setup probe failed:\n{proc.stderr}")
    seconds = float(proc.stdout.split()[-1]) - start
    shutil.rmtree(probe_dir, ignore_errors=True)
    for _ in range(3):
        speed.sample()
    return seconds, seconds / statistics.median(speed.samples[first:])


class HostSpeed:
    """Times a fixed reference kernel every PERIOD_S seconds while a pass runs
    (and around each setup probe).

    The speed of a shared 2-vCPU host drifts by up to 2x within seconds and
    over minutes, so pass times in seconds spread by 20-35% between runs of
    the same code.  The kernel, timed from a SIGALRM handler in the same
    process, slows by about the same factor as the pass around it, so a
    pass's time in kernel units holds steady.  The kernel has one part of
    each kind of work gradmod does: tiny complex solves with a Python loop
    (the contour quadrature), a small SVD (rank decisions) and building a
    dict of small objects (parsing, reports).  It imports nothing from
    gradmod, its inputs do not depend on the seed, and it takes about 2% of
    a pass, which the caller subtracts.
    """

    PERIOD_S = 0.05
    NOMINAL_S = 0.001  # seconds a kernel counts for in setup_s, near its time here

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self._solve, self._svd = np.linalg.solve, np.linalg.svd
        self._a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) + 4 * np.eye(4)
        self._eye = np.eye(4, dtype=complex)
        self._block = rng.normal(size=(32, 32)) + 1j * rng.normal(size=(32, 32))
        self.samples = []

    def sample(self, signum=None, frame=None):
        start = time.perf_counter()
        for _ in range(20):
            self._solve(self._a, self._eye)
        total = 0
        for i in range(1000):
            total += i * i
        self._svd(self._block)
        table = {}
        for i in range(500):
            table[i, i % 7] = [i, str(i)]
        self.samples.append(time.perf_counter() - start)

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def run_pass(cli, experiments):
    """One pass over the experiments; returns (wall seconds, exit codes)."""
    codes = []
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        for exp in experiments:
            try:
                codes.append(cli.main(list(exp.argv)))
            except SystemExit as exc:
                codes.append(exc.code)
            except Exception as exc:  # a traceback is a failed experiment
                codes.append(repr(exc))
        wall = time.perf_counter() - start
    return wall, codes


def evaluate(exp, code):
    """(failures the program reports, problems the independent check finds)."""
    if code != 0:
        return [f"exit {code}"], []
    try:
        report = checks.load(exp.outdir, exp.command)
    except (OSError, ValueError) as exc:
        return [f"no readable report: {exc}"], []
    try:
        problems = exp.check(exp.outdir)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        problems = [f"report does not have the expected form: {exc!r}"]
    return checks.program_verdict(report), problems


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.reasons = {}

    def add(self, experiments, codes):
        for exp, code in zip(experiments, codes):
            self.attempted += 1
            failures, problems = evaluate(exp, code)
            if failures or problems:
                self.failed += 1
                self.reasons.setdefault(exp.name, failures + problems)
            if problems and not failures:
                self.correct = False


def report_bytes(experiments):
    return sum(f.stat().st_size for exp in experiments for f in exp.outdir.iterdir())


def git_sha():
    """HEAD commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {"git_sha": git_sha(), "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": openblas, "blas_threads": BLAS_THREADS,
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace}


def run_workload(args):
    # One CPU for the run and its setup probes, so that the kernel times the
    # CPU the work runs on: the two vCPUs of the host slow down mostly apart.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    cli, experiments = setup(args.workload, args.seed, WORK / args.workload)
    tally = Tally()

    budget = args.seconds / 2 if args.trace else args.seconds
    spent = 0.0        # seconds of passes and checks, which the budget bounds
    walls = []         # seconds of gradmod per pass, kernel samples taken out
    norms = []         # the same in units of the kernel sampled during that pass
    setup_probes = []  # (seconds, kernels) per probe
    speed = HostSpeed()
    while True:
        started = time.perf_counter()
        first = len(speed.samples)
        with speed.sampling():
            wall, codes = run_pass(cli, experiments)
        walls.append(wall - sum(speed.samples[first:]))
        if len(speed.samples) == first:      # a pass shorter than the sampling period
            speed.sample()
        norms.append(walls[-1] / statistics.fmean(speed.samples[first:]))
        tally.add(experiments, codes)
        spent += time.perf_counter() - started
        # another pass only if the run then ends nearer the budget than it does now
        done = spent + statistics.median(walls) / 2 > budget
        # The host's speed drifts over seconds to minutes, so the setup probes
        # are spread over the run instead of being taken in one burst.
        due = SETUP_PROBES if done else SETUP_PROBES * spent / budget
        while not args.trace and len(setup_probes) < due:
            setup_probes.append(setup_probe(args, speed))
        if done:
            break
    wall_s = statistics.median(walls)

    env = environment(args)
    print(json.dumps({"env": env}))
    print(json.dumps({"pass_wall_s": walls, "pass_wall_norm": norms,
                      "setup_probe_s": [seconds for seconds, _ in setup_probes],
                      "setup_probe_kernels": [kernels for _, kernels in setup_probes]}))
    if args.trace:
        from tracer import PER_LAYER, Tracer
        tracer = Tracer()
        tracer.install()
        try:
            traced_wall, codes = run_pass(cli, experiments)
        finally:
            tracer.uninstall()
        tally.add(experiments, codes)
        values = tracer.metrics()
        values["cli.report_bytes"] = report_bytes(experiments)
        values["trace.overhead_s"] = traced_wall - wall_s
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(str(OUT / f"trace-{args.workload}"),
                     {"env": env, "metrics": metrics, "traced_wall_s": traced_wall,
                      "untraced_wall_s": wall_s})
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"wall_norm": {"value": statistics.median(norms), "unit": "kernels"},
                   "setup_s": {"value": HostSpeed.NOMINAL_S * statistics.median(
                       kernels for _, kernels in setup_probes), "unit": "s"},
                   "peak_rss_mb": {"value": rss_mb, "unit": "MB"}}
    if tally.reasons:
        print(json.dumps({"failed_experiments": tally.reasons}))
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def run_all(args, names):
    """Run every workload in its own fresh process and print its metrics by name."""
    results = {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results[name] = result
        for metric, m in result["metrics"].items():
            print(f"{name:9s} {metric:32s} {m['value']:>14.6g} {m['unit']}")
        print(f"{name:9s} attempted {result['attempted']} failed {result['failed']} "
              f"correct {str(result['correct']).lower()}")
    print(json.dumps(results))
    return 0


def main(argv=None):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.chdir(ROOT)
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR",
                        help="set up into DIR, print the monotonic clock and exit")
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup(args.workload, args.seed, Path(args.setup_probe))
        print(repr(time.monotonic()))
        return 0
    if args.workload == "all":
        return run_all(args, workloads.WORKLOADS)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
