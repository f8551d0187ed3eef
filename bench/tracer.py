"""Span tracer that times qopt's layers from outside the program.

``Tracer.install`` replaces every public function of each layer module, and
every public method of the classes those modules define, with a timing
wrapper.  The wrapper is bound in every ``qopt`` module namespace that holds
the original, so that, for example, ``qopt.gaussian``'s imported
``extend_hermite_table`` is timed as a ``hermite`` call.  Functions a later
version of the program removes are simply absent and report zero calls.

Spans are held in memory.  Each thread keeps its own stack, so grid jobs
that evaluate on worker threads stay correct: a span that starts on an empty
worker stack is parented to the innermost open span of the installing
thread.  A span's self time is its duration minus the union of its
children's intervals; an exception counts against a layer when it escapes
to a caller outside that layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time

import numpy as np

LAYERS = ("hermite", "gaussian", "cats", "tomography", "dynamics", "parametric",
          "verification", "cli")


def _points(arr, n_modes):
    return int(np.size(arr)) // max(1, int(n_modes))


def _ts_steps(result):
    return len(result.ts) - 1


# (layer, function) -> counts taken from the call; "pre" runs before the call.
COUNTERS = {
    ("hermite", "mv_hermite_table_linear"): lambda a, r, pre: {"entries": len(r)},
    ("hermite", "extend_hermite_table"): lambda a, r, pre: {"entries": len(a[0]) - pre},
    ("gaussian", "photon_pnd_table"): lambda a, r, pre: {"probabilities": len(r.probabilities)},
    ("gaussian", "photon_pnd"): lambda a, r, pre: {"probabilities": 1},
    ("gaussian", "wigner_eval"): lambda a, r, pre: {"grid_points": _points(a[1], 2 * a[0].n_modes)},
    ("gaussian", "q_eval"): lambda a, r, pre: {"grid_points": _points(a[1], a[0].n_modes)},
    ("cats", "cat_pnd"): lambda a, r, pre: {"probabilities": 1},
    ("cats", "cat_wigner_eval"): lambda a, r, pre: {
        "grid_points": _points(np.broadcast(a[1], a[2]), a[0].n_modes)},
    ("cats", "cat_q_eval"): lambda a, r, pre: {"grid_points": _points(a[1], a[0].n_modes)},
    ("tomography", "forward_marginal_numeric"): lambda a, r, pre: {"lines": r.values.size},
    ("tomography", "gaussian_sinogram"): lambda a, r, pre: {"lines": r.values.size},
    ("tomography", "inverse_radon"): lambda a, r, pre: {
        "backprojected_points": a[0].n_angles * r.values.size},
    ("dynamics", "integrate_symplectic_flow"): lambda a, r, pre: {
        "ode_steps": _ts_steps(r), "solves": 1},
    ("dynamics", "integrate_complex_flow"): lambda a, r, pre: {
        "ode_steps": _ts_steps(r), "solves": 1},
    ("parametric", "solve_epsilon"): lambda a, r, pre: (
        {} if r.profile.kind.startswith("preset_") else {"ode_steps": _ts_steps(r), "solves": 1}),
    ("verification", "run_verification"): lambda a, r, pre: {"checks": len(r)},
    ("cli", "write_output"): lambda a, r, pre: {
        "bytes_out": sum(len(text.encode("utf-8")) for text in a[0].values())},
}
PRE = {("hermite", "extend_hermite_table"): lambda a: len(a[0])}

# Functions whose time makes up the named per-layer figures.
FORWARD = {"forward_marginal_numeric", "gaussian_sinogram", "forward_marginal_gaussian",
           "wigner_grid_from_callable", "symplectic_marginal"}
INVERSE = {"inverse_radon", "wigner_from_symplectic"}
READERS = {"sinogram_from_csv", "wigner_grid_from_csv"}
PROBABILITY_FNS = {"photon_pnd_table", "photon_pnd"}
GRID_FNS = {"wigner_eval", "q_eval", "cat_wigner_eval", "cat_q_eval"}


class Span:
    __slots__ = ("layer", "name", "start", "end", "parent", "counts", "error", "children")

    def __init__(self, layer, name, parent):
        self.layer, self.name, self.parent = layer, name, parent
        self.counts, self.error, self.children = None, False, []
        self.start = self.end = 0.0


def _union_length(intervals):
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Tracer:
    """Collects spans of qopt layer calls; ``summary`` reduces them to sums."""

    def __init__(self):
        self._local = threading.local()
        self._owner = None
        self._lock = threading.Lock()
        self._roots = []
        self._patched = []

    # -- installation -------------------------------------------------------
    def install(self):
        self._owner = self._stack()
        modules = [importlib.import_module(f"qopt.{layer}") for layer in LAYERS]
        wrapped = {}
        for layer, module in zip(LAYERS, modules):
            for name, obj in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrapped[id(obj)] = self._wrap(layer, name, obj)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for attr, member in list(vars(obj).items()):
                        if not attr.startswith("_") and inspect.isfunction(member):
                            self._patch(obj, attr, self._wrap(layer, f"{name}.{attr}", member))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "qopt" or mod_name.startswith("qopt.")):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped and inspect.isfunction(obj):
                    self._patch(module, attr, wrapped[id(obj)])

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, old in reversed(self._patched):
            setattr(owner, attr, old)
        self._patched.clear()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer, name, fn):
        counter = COUNTERS.get((layer, name))
        pre_fn = PRE.get((layer, name))
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif stack is not tracer._owner and tracer._owner:
                parent = tracer._owner[-1]
            else:
                parent = None
            span = Span(layer, name, parent)
            pre = pre_fn(args) if pre_fn is not None else None
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                with tracer._lock:
                    (parent.children if parent is not None else tracer._roots).append(span)
            if counter is not None:
                span.counts = counter(args, result, pre)
            return result

        return wrapper

    # -- reduction ----------------------------------------------------------
    def summary(self) -> dict:
        """Additive sums over every finished span; safe to add across processes."""
        out = {}

        def add(key, value):
            out[key] = out.get(key, 0.0) + value

        def visit(span):
            dur = span.end - span.start
            self_time = dur - _union_length([(c.start, c.end) for c in span.children])
            layer, fn = span.layer, span.name
            add(f"{layer}.calls", 1)
            add(f"{layer}.self_s", self_time)
            if span.error and (span.parent is None or span.parent.layer != layer):
                add(f"{layer}.errors", 1)
            outermost = span.parent is None or span.parent.layer != layer
            for key, value in (span.counts or {}).items():
                # a table built inside the layer is counted once, where it leaves it
                if key != "entries" or outermost:
                    add(f"{layer}.{key}", value)
            if fn in FORWARD:
                add("tomography.forward_s", self_time)
            elif fn in INVERSE:
                add("tomography.inverse_s", self_time)
            elif fn in READERS:
                add("tomography.read_s", dur)
            elif fn in PROBABILITY_FNS:
                add("gaussian.probability_span_s", dur)
            elif fn in GRID_FNS:
                add(f"{layer}.grid_span_s", dur)
            elif fn == "parse_config":
                add("cli.parse_s", dur)
            elif fn == "main":
                add("cli.parse_s", self_time)
                add("trace.covered_s", dur - self_time)
            elif fn == "execute_job":
                add("cli.format_s", self_time)
            elif fn == "write_output":
                add("cli.write_s", dur)
            for child in span.children:
                visit(child)

        with self._lock:
            roots = list(self._roots)
        for root in roots:
            visit(root)
        return out
