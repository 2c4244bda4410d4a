"""Outside-in tracer for the benchmark's traced pass.

The tracer changes no gradmod source.  ``install`` wraps, from outside:

- every public function and class method of each gradmod module (plus
  ``__init__`` and the arithmetic operators), at every module namespace and
  module-level dict where the object is bound, because ``cli`` imports names
  such as ``ev_space`` directly and dispatches through its ``COMMANDS`` table;
- every public function of ``numpy.linalg`` (the ``lapack`` leaf layer),
  counting calls with their shapes;
- ``normality._contour_nodes``, only to count the contour nodes evaluated.

Each call becomes a span with its parent, kept in memory in flat arrays;
self time is a span's duration minus the time of its child spans.
``uninstall`` restores every binding.  The untraced passes never call
``install``.
"""

import functools
import hashlib
import importlib
import inspect
import json
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("monomials", "completion", "operators", "linalg", "submodules",
          "linearize", "koszul", "normality", "trends", "cli")
LEAF = "lapack"
COMMANDS = ("weights", "submodule", "linearize", "ev", "koszul", "identity",
            "counterexample")
WRAPPED_DUNDERS = {"__init__", "__matmul__", "__add__", "__sub__", "__neg__",
                   "__rmul__", "__mul__"}

# Per-layer metric names, units and better directions (BENCHMARK.json lists
# the same names).  ``trace.overhead_s`` and ``cli.report_bytes`` are measured
# by the runner; the rest come from ``Tracer.metrics``.
PER_LAYER = (
    [(f"{layer}.calls", "count", "lower") for layer in LAYERS + (LEAF,)]
    + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS + (LEAF,)]
    + [("normality.quad_nodes", "count", "lower"),
       ("normality.quad_s", "s", "lower"),
       ("lapack.solve_calls", "count", "lower"),
       ("linearize.ev_space_calls", "count", "lower"),
       ("lapack.svd_work", "count", "lower"),
       ("linalg.distinct_ratio", "ratio", "higher"),
       ("koszul.rank_calls", "count", "lower"),
       ("submodules.residual_calls", "count", "lower"),
       ("lapack.svd_calls", "count", "lower"),
       ("lapack.norm2_calls", "count", "lower"),
       ("completion.row_operator_builds", "count", "lower"),
       ("completion.module_builds", "count", "lower"),
       ("cli.report_bytes", "B", "lower")]
    + [(f"cli.{cmd}_s", "s", "lower") for cmd in COMMANDS]
    + [("trace.overhead_s", "s", "lower")]
)


def _digest(args):
    """Content hash of a call's array arguments (shape, dtype and bytes)."""
    h = hashlib.blake2b(digest_size=16)
    for a in args:
        if isinstance(a, np.ndarray):
            h.update(repr((a.shape, a.dtype.str)).encode())
            h.update(np.ascontiguousarray(a).data)
        else:
            h.update(repr(a).encode())
    return h.digest()


class Tracer:
    def __init__(self):
        self.names = []                  # name id -> span name
        self.layer = []                  # name id -> layer
        self._ids = {}
        self.t0 = array("d")             # per span
        self.t1 = array("d")
        self.parent = array("q")
        self.name_id = array("l")
        self._stack = []                 # open spans: [span id, name id, child time]
        self.calls = Counter()           # name -> calls
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.edges = Counter()           # (parent name, child name) -> calls
        self.lapack_shapes = Counter()   # (function, shapes) -> calls
        self.svd_work = 0
        self.norm2_calls = 0
        self.linalg_outer_calls = 0
        self.linalg_inputs = set()
        self.quad_nodes = 0
        self._patches = []

    # -- spans ---------------------------------------------------------------

    def _name(self, name, layer):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer.append(layer)
        return nid

    def _wrap(self, fn, name, layer, on_call=None):
        nid = self._name(name, layer)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            sid = len(self.t0)
            self.parent.append(stack[-1][0] if stack else -1)
            self.name_id.append(nid)
            self.t1.append(0.0)
            frame = [sid, nid, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            self.t0.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self.t1[sid] = t1
                duration = t1 - t0
                self.calls[name] += 1
                self.inclusive[name] += duration
                self.self_time[name] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                    self.edges[(self.names[stack[-1][1]], name)] += 1

        return traced

    def _caller_layer(self):
        return self.layer[self._stack[-1][1]] if self._stack else None

    # -- counters at layer boundaries ---------------------------------------

    def _on_linalg(self, args, kwargs):
        if self._caller_layer() == "linalg":
            return
        self.linalg_outer_calls += 1
        self.linalg_inputs.add(_digest(args + tuple(kwargs.values())))

    def _on_lapack(self, fname):
        def hook(args, kwargs):
            a = args[0] if args else None
            shape = tuple(np.shape(a)) if a is not None else ()
            self.lapack_shapes[(fname, shape)] += 1
            runs_svd = fname == "svd"
            if fname == "norm":
                order = args[1] if len(args) > 1 else kwargs.get("ord")
                if order == 2 and len(shape) == 2:
                    self.norm2_calls += 1
                    runs_svd = True
            if runs_svd and len(shape) >= 2:
                m, n = shape[-2:]
                self.svd_work += int(np.prod(shape[:-2], dtype=np.int64)) * m * n * min(m, n)
        return hook

    # -- installing and removing the wrappers --------------------------------

    def _set(self, target, key, value):
        if isinstance(target, dict):
            self._patches.append((target, key, target[key]))
            target[key] = value
        else:
            # vars(), not getattr(): a classmethod must come back as itself
            self._patches.append((target, key, vars(target)[key]))
            setattr(target, key, value)

    def _wrap_class(self, cls, layer):
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in WRAPPED_DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(value):
                self._set(cls, attr, self._wrap(value, name, layer))
            elif isinstance(value, (classmethod, staticmethod)):
                self._set(cls, attr, type(value)(self._wrap(value.__func__, name, layer)))

    def install(self):
        gradmod = importlib.import_module("gradmod")
        modules = {layer: importlib.import_module(f"gradmod.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    hook = self._on_linalg if layer == "linalg" else None
                    wrappers[id(obj)] = self._wrap(obj, f"{layer}.{name}", layer, hook)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer)
        for mod in (gradmod, *modules.values()):
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._set(mod, name, wrappers[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in wrappers:
                            self._set(obj, key, wrappers[id(value)])

        for fname in np.linalg.__all__:
            fn = getattr(np.linalg, fname)
            if callable(fn) and not inspect.isclass(fn):
                self._set(np.linalg, fname,
                          self._wrap(fn, f"{LEAF}.{fname}", LEAF, self._on_lapack(fname)))

        contour = getattr(modules["normality"], "_contour_nodes", None)
        if contour is not None:
            def counted(*args, **kwargs):
                out = contour(*args, **kwargs)
                self.quad_nodes += len(out[0])
                return out
            self._set(modules["normality"], "_contour_nodes", counted)

    def uninstall(self):
        while self._patches:
            target, key, original = self._patches.pop()
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)

    # -- results -------------------------------------------------------------

    def metrics(self):
        """Per-layer values of one traced pass (all but the runner's own two)."""
        calls, incl = self.calls, self.inclusive
        out = {}
        for layer in LAYERS + (LEAF,):
            names = [n for n, lay in zip(self.names, self.layer) if lay == layer]
            out[f"{layer}.calls"] = sum(calls[n] for n in names)
            out[f"{layer}.self_s"] = sum(self.self_time[n] for n in names)
        out["normality.quad_nodes"] = self.quad_nodes
        out["normality.quad_s"] = incl["normality.resolvent_projection"]
        out["lapack.solve_calls"] = calls["lapack.solve"]
        out["linearize.ev_space_calls"] = calls["linearize.ev_space"]
        out["lapack.svd_work"] = self.svd_work
        out["linalg.distinct_ratio"] = (len(self.linalg_inputs) / self.linalg_outer_calls
                                        if self.linalg_outer_calls else 0.0)
        out["koszul.rank_calls"] = sum(
            c for (parent, child), c in self.edges.items()
            if child == "linalg.numerical_rank"
            and self.layer[self._ids[parent]] == "koszul")
        out["submodules.residual_calls"] = (
            calls["submodules.GradedSubmodule.invariance_residual"]
            + calls["submodules.GradedSubmodule.orthonormality_residual"])
        out["lapack.svd_calls"] = calls["lapack.svd"]
        out["lapack.norm2_calls"] = self.norm2_calls
        out["completion.row_operator_builds"] = calls["linearize.RowOperator.__init__"]
        out["completion.module_builds"] = calls["completion.StandardModule.__init__"]
        for cmd in COMMANDS:
            out[f"cli.{cmd}_s"] = incl[f"cli.cmd_{cmd}"]
        return out

    def write(self, stem, extra):
        """Write the spans (``<stem>.npz``) and a JSON summary (``<stem>.json``)."""
        np.savez(f"{stem}.npz", t0=np.asarray(self.t0, dtype=float),
                 t1=np.asarray(self.t1, dtype=float),
                 parent=np.asarray(self.parent, dtype=np.int64),
                 name_id=np.asarray(self.name_id, dtype=np.int64),
                 names=np.asarray(self.names), layers=np.asarray(self.layer))
        summary = dict(extra)
        summary["functions"] = {
            name: {"calls": self.calls[name], "inclusive_s": self.inclusive[name],
                   "self_s": self.self_time[name]}
            for name in sorted(self.calls)}
        summary["edges"] = [[p, c, n] for (p, c), n in sorted(self.edges.items())]
        summary["lapack_shapes"] = [[f, list(s), n] for (f, s), n
                                    in sorted(self.lapack_shapes.items())]
        with open(f"{stem}.json", "w") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
