"""Span tracer that instruments geomqm from outside the package.

`Tracer.install` replaces every public function of the nine geomqm
modules, in every geomqm namespace that binds it (the package itself,
the defining module, and modules that import it by name such as
`scenario.build_lattice` or `holonomy.eigenvalues`), with a wrapper that
records a span.  The per-element methods named in `CLASS_METHODS` are
wrapped at their class.  Nothing under `src/` is edited: `uninstall`
puts every original binding back.

A span is (name, start, end, parent); spans are kept in flat arrays in
memory and written out only when asked.  A span's self time is its
duration minus the durations of its direct children, so the self times
of all spans sum to the time covered by root spans, and adding the time
outside any span gives the traced wall time.

Counters are computed from call arguments and results (matrix sizes,
step counts, bytes written); they repeat exactly between runs of the
same input.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = (
    "lattice",
    "profiles",
    "operators",
    "reconstruct",
    "geometry",
    "maxwell",
    "holonomy",
    "evolution",
    "scenario",
)

# Namespaces that may bind a layer function: the package, the layers,
# and the command line module (which binds scenario.run_scenario).
NAMESPACES = ("geomqm",) + tuple(f"geomqm.{m}" for m in LAYERS) + ("geomqm.cli",)

# (module, class, method) -> span name
CLASS_METHODS = {
    ("lattice", "Lattice", "link_index"): "lattice.link_index",
    ("lattice", "Lattice", "graph_distance"): "lattice.graph_distance",
    ("lattice", "Lattice", "minimal_image_displacement"): "lattice.minimal_image_displacement",
    ("geometry", "AnalyticMetric", "lower"): "geometry.metric_lower",
    ("geometry", "LatticeMetricInterpolant", "lower"): "geometry.metric_lower",
}


def _dir_bytes(path):
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def _count_nnz(counters, args, kwargs, result):
    counters["operators.hamiltonian_nnz"] += result.mat.nnz


def _count_eig_flops(counters, args, kwargs, result):
    n = len(result)
    counters["operators.eigenvalues.flops_computed"] += n**3


def _count_cells(counters, args, kwargs, result):
    for k in range(4):
        counters[f"maxwell.cells_k{k}"] += result.n_cells(k)


def _steps_counter(fn):
    sig = inspect.signature(fn)

    def count(counters, args, kwargs, result):
        counters["evolution.propagator.steps"] += int(sig.bind(*args, **kwargs).arguments["steps"])

    return count


def _out_bytes_counter(fn):
    sig = inspect.signature(fn)

    def count(counters, args, kwargs, result):
        # report.json carries wall_time_s, whose digit count varies from
        # run to run; leave those digits out so the count repeats exactly.
        out_dir = sig.bind(*args, **kwargs).arguments["out_dir"]
        counters["scenario.out_bytes"] += (_dir_bytes(out_dir)
                                           - len(json.dumps(result.wall_time_s)))

    return count


# span name -> counter factory (called with the original function)
COUNTERS = {
    "operators.build_hamiltonian": lambda fn: _count_nnz,
    "operators.load_operator": lambda fn: _count_nnz,
    "operators.eigenvalues": lambda fn: _count_eig_flops,
    "maxwell.build_spacetime_complex": lambda fn: _count_cells,
    "evolution.propagator": _steps_counter,
    "scenario.run_scenario": _out_bytes_counter,
}


class Tracer:
    """Records nested spans around geomqm calls while installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._name_ids = {}
        self._wrappers = {}
        self._patched = []
        self.reset()

    def reset(self):
        """Drop recorded spans and counters (wrappers stay installed)."""
        self.name_id = array("q")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack = []
        self.counters = defaultdict(int)

    def _id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name, fn, count=None):
        """Return `fn` wrapped in a span called `name`."""
        nid = self._id(name)
        clock = self.clock
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                stack.pop()
            if count is not None:
                count(tracer.counters, args, kwargs, result)
            return result

        return traced

    def _wrapper_for(self, name, fn):
        # One wrapper per function, shared by all its bindings; the stored
        # original keeps its id from being reused.
        key = id(fn)
        if key not in self._wrappers:
            factory = COUNTERS.get(name)
            self._wrappers[key] = (fn, self.wrap(name, fn, factory(fn) if factory else None))
        return self._wrappers[key][1]

    def _patch(self, owner, attr, new):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        """Wrap the public layer functions everywhere geomqm binds them."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        layer_modules = {f"geomqm.{m}" for m in LAYERS}
        for ns_name in NAMESPACES:
            ns = importlib.import_module(ns_name)
            for attr, value in list(vars(ns).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(value)
                    or value.__module__ not in layer_modules
                ):
                    continue
                name = f"{value.__module__.split('.', 1)[1]}.{value.__name__}"
                self._patch(ns, attr, self._wrapper_for(name, value))
        for (mod, cls_name, meth), name in CLASS_METHODS.items():
            cls = getattr(importlib.import_module(f"geomqm.{mod}"), cls_name)
            self._patch(cls, meth, self._wrapper_for(name, cls.__dict__[meth]))

    def uninstall(self):
        """Restore every binding `install` replaced."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def spans(self):
        """Recorded spans as arrays: name index, start, end, parent index."""
        return (
            np.array(self.name_id, dtype=np.int64),
            np.array(self.start, dtype=float),
            np.array(self.end, dtype=float),
            np.array(self.parent, dtype=np.int64),
        )

    def self_times(self):
        """Per-span self time: duration minus the direct children's durations."""
        _, start, end, parent = self.spans()
        dur = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        return dur - covered

    def summary(self, wall):
        """Per-span-name calls and self seconds, per-layer self seconds, and
        the time of `wall` outside any span."""
        ids, start, end, parent = self.spans()
        selfs = self.self_times()
        n_names = len(self.names)
        calls = np.bincount(ids, minlength=n_names)
        self_s = np.bincount(ids, weights=selfs, minlength=n_names)
        spans = {
            name: {"calls": int(calls[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }
        layers = dict.fromkeys(LAYERS, 0.0)
        for name, stats in spans.items():
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + stats["self_s"]
        root = parent < 0
        outside = wall - float(np.sum(end[root] - start[root]))
        return {"spans": spans, "layers": layers, "outside_s": outside,
                "counters": dict(self.counters), "n_spans": int(len(ids))}

    def save(self, path):
        """Write the recorded spans to an .npz file."""
        ids, start, end, parent = self.spans()
        np.savez(path, names=np.array(self.names), name_id=ids, start=start,
                 end=end, parent=parent)
