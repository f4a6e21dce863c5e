"""Bounded-memory span tracer installed from outside the program.

Spans are kept in memory as parallel arrays with parent links; a span's
self time is its duration minus the part its children cover, computed at
the end from those links.  Calls made
millions of times (``ml_neg``, ``RngStream.normals``) are leaves: they store
no span, only a count, a time and a unit total per (parent span, layer).

Wrappers go on the name each caller looks up, e.g. ``stochastic.ml_neg``
rather than ``specfun.ml_neg``, because ``from x import f`` copies the name.
Calls are strictly nested (one thread, ``workers=1``), so child coverage is
the sum of the children's durations.
"""

import importlib
import os
import time
from array import array

import numpy as np


def _ml_evals(args, kwargs, result):
    x = args[1] if len(args) > 1 else kwargs["x"]
    return x.size if isinstance(x, np.ndarray) else 1


def _normals_drawn(args, kwargs, result):
    return args[4] if len(args) > 4 else kwargs["n"]


def _csv_bytes(args, kwargs, result):
    return os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


def _image_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    base, _ = os.path.splitext(path)
    return sum(os.path.getsize(p) for p in (path, base + ".json", base + ".png")
               if os.path.exists(p))


# (module, attribute path, layer, kind, units): one entry per name a caller
# looks up.  "span" records a span; "leaf" aggregates under the open span.
WRAP_POINTS = [
    ("fracsphere.stochastic", "ml_neg", "specfun.ml_neg", "leaf", _ml_evals),
    ("fracsphere.spectra", "ml_neg", "specfun.ml_neg", "leaf", _ml_evals),
    ("fracsphere.synthesis", "_norm_assoc_rows", "specfun.legendre_rows", "leaf", None),
    ("fracsphere.stochastic", "sigma_squared", "stochastic.sigma_squared", "span", None),
    ("fracsphere.experiments", "sigma_squared", "stochastic.sigma_squared", "span", None),
    ("fracsphere.stochastic", "cross_sigma", "stochastic.cross_sigma", "span", None),
    ("fracsphere.experiments", "cross_sigma", "stochastic.cross_sigma", "span", None),
    ("fracsphere.stochastic", "RngStream.normals", "stochastic.rng", "leaf", _normals_drawn),
    ("fracsphere.experiments", "sample_combined", "stochastic.sampler", "span", None),
    ("fracsphere.experiments", "sample_combined_pair", "stochastic.sampler", "span", None),
    ("fracsphere.experiments", "sample_combined_times", "stochastic.sampler", "span", None),
    ("fracsphere.stochastic", "CoefficientSet.degree_power", "stochastic.degree_power",
     "leaf", None),
    ("fracsphere.experiments", "bound_q_combined", "spectra.bounds", "span", None),
    ("fracsphere.experiments", "increment_bound", "spectra.bounds", "span", None),
    ("fracsphere.experiments", "measured_increment_c", "spectra.bounds", "span", None),
    ("fracsphere.experiments", "synthesize", "synthesis.synthesize", "span", None),
    ("fracsphere.experiments", "write_map_csv", "synthesis.write_map_csv", "span", _csv_bytes),
    ("fracsphere.experiments", "write_map_image", "synthesis.write_map_image", "span",
     _image_bytes),
    ("fracsphere.cli", "truncation_error_curve", "experiments", "span", None),
    ("fracsphere.cli", "increment_curve", "experiments", "span", None),
    ("fracsphere.cli", "evolution_snapshots", "experiments", "span", None),
]

# the span around fracsphere.cli.main, wrapped by the child process itself
ROOT_LAYER = "cli"

clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.layers = []            # layer names; spans store the index
        self._layer_ids = {}
        self.layer = array("i")     # per span
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.units = array("q")
        self.leaves = {}            # (parent span, layer id) -> [calls, seconds, units]
        self._open = [-1]

    def _id(self, layer):
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self._layer_ids[layer]

    def span(self, layer, fn, units=None):
        """Wrap fn so that each call records one span."""
        lid = self._id(layer)

        def traced(*args, **kwargs):
            idx = len(self.start)
            parent = self._open[-1]
            self.layer.append(lid)
            self.parent.append(parent)
            self.units.append(0)
            self.end.append(0.0)
            self._open.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._open.pop()
            if units is not None:
                self.units[idx] = units(args, kwargs, result)
            return result

        return traced

    def leaf(self, layer, fn, units=None):
        """Wrap fn so that calls aggregate under the currently open span."""
        lid = self._id(layer)

        def traced(*args, **kwargs):
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                key = (self._open[-1], lid)
                rec = self.leaves.get(key)
                if rec is None:
                    rec = self.leaves[key] = [0, 0.0, 0]
                rec[0] += 1
                rec[1] += dt
            rec[2] += 1 if units is None else units(args, kwargs, result)
            return result

        return traced

    def summary(self):
        """Per layer: calls, self_s, units, and the units of each leaf layer
        recorded directly under its spans (``under``).  A span's children
        are found through the parent links; its self time is its duration
        minus theirs."""
        n = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                covered[self.parent[i]] += duration[i]
        out = {name: {"calls": 0, "self_s": 0.0, "units": 0, "under": {}}
               for name in self.layers}
        for (parent, lid), (calls, seconds, units) in self.leaves.items():
            name = self.layers[lid]
            rec = out[name]
            rec["calls"] += calls
            rec["self_s"] += seconds
            rec["units"] += units
            if parent >= 0:
                covered[parent] += seconds
                under = out[self.layers[self.layer[parent]]]["under"]
                under[name] = under.get(name, 0) + units
        for i in range(n):
            rec = out[self.layers[self.layer[i]]]
            rec["calls"] += 1
            rec["self_s"] += duration[i] - covered[i]
            rec["units"] += self.units[i]
        return out


def install(tracer):
    """Replace every wrap point with its traced version.  A missing name is
    an error: tracing a renamed function silently would report zeros."""
    for module, path, layer, kind, units in WRAP_POINTS:
        owner, attr = _resolve(module, path)
        wrap = tracer.span if kind == "span" else tracer.leaf
        setattr(owner, attr, wrap(layer, getattr(owner, attr), units))


def _resolve(module, path):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


# Progress marks for untraced runs: a run's time split at the same program
# points in every run with the same seed, so that each stretch can be timed
# in the run that the host slowed least.  Each wrap point marks on every
# call, the kernel variances only on every MARK_STRIDE-th, which keeps the
# cost to a counter increment per call (~0.1 µs).
MARK_POINTS = [(module, path) for module, path, layer, kind, _ in WRAP_POINTS
               if kind == "span" or layer == "specfun.legendre_rows"]
MARK_STRIDE = {("fracsphere.stochastic", "sigma_squared"): 64,
               ("fracsphere.stochastic", "cross_sigma"): 64,
               ("fracsphere.experiments", "sigma_squared"): 4,  # cold, one per degree
               ("fracsphere.experiments", "cross_sigma"): 64}


class Marks:
    def __init__(self):
        self.wall = array("d")
        self.cpu = array("d")

    def mark(self):
        self.wall.append(clock())
        self.cpu.append(time.process_time())

    def wrap(self, fn, stride):
        calls = [0]
        mark = self.mark

        def marked(*args, **kwargs):
            calls[0] += 1
            if calls[0] % stride == 0:
                mark()
            return fn(*args, **kwargs)

        return marked

    def segments(self):
        """Wall and CPU seconds between consecutive marks; the CPU list starts
        with the CPU time used before the first mark."""
        wall = [b - a for a, b in zip(self.wall, self.wall[1:])]
        cpu = [self.cpu[0]] + [b - a for a, b in zip(self.cpu, self.cpu[1:])]
        return wall, cpu


def install_marks(marks):
    for module, path in MARK_POINTS:
        owner, attr = _resolve(module, path)
        setattr(owner, attr, marks.wrap(getattr(owner, attr),
                                        MARK_STRIDE.get((module, path), 1)))
