"""Spans around the public functions of the dynsfm modules, from outside.

The tracer never edits the package. It replaces module attributes: every
``dynsfm.*`` module attribute bound to a public function is rebound to a
wrapper that records a span (name, start, end, parent) and then calls the
original. ``reconstruct`` and the CLI look their callees up as module
globals at call time, so the wrappers see every nested call. Spans live in
memory and are written once, when the run ends.
"""

import functools
import inspect
import json
import os
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager

# The package's modules, one layer each, in call order of the pipeline.
LAYERS = ("config", "simulate", "derivatives", "solver", "so3", "evaluate",
          "baseline", "jsonio", "cli")

# Functions whose returned arrays are the dense stand-ins for block-banded
# operators; their nbytes is summed into solver.dense_operator_bytes.
DENSE_OPERATORS = ("solver.assemble_C", "solver.rotation_regularizer",
                   "solver.translation_system")
RESIDUAL_KEYS = ("sigma_ratio", "rotation_cond", "translation_cond",
                 "rotation_normal_ratio", "translation_normal_ratio")
STAGE_PEAKS = ("factor_rank4", "recover_rotation_blocks",
               "extract_rotations_structure", "recover_translations")

# Per-layer metrics reported by a traced run. "fn" is a function's
# inclusive time per op, "calls" its call count per op, "self" a layer's
# self time per op and "layer" a layer's inclusive time per op.
SPAN_METRICS = {
    "solver.recover_translations_s": ("fn", "solver.recover_translations"),
    "solver.recover_rotation_blocks_s": ("fn", "solver.recover_rotation_blocks"),
    "solver.lstsq_checked_s": ("fn", "solver.lstsq_checked"),
    "solver.lstsq_checked.calls": ("calls", "solver.lstsq_checked"),
    "solver.translation_system_s": ("fn", "solver.translation_system"),
    "solver.factor_rank4_s": ("fn", "solver.factor_rank4"),
    "solver.assemble_W_s": ("fn", "solver.assemble_W"),
    "solver.extract_rotations_structure_s":
        ("fn", "solver.extract_rotations_structure"),
    "solver.assemble_C_s": ("fn", "solver.assemble_C"),
    "solver.fix_similarity_s": ("fn", "solver.fix_similarity"),
    "solver.center_structure_s": ("fn", "solver.center_structure"),
    "solver.metric_upgrade_s": ("fn", "solver.metric_upgrade"),
    "solver.reconstruct_s": ("fn", "solver.reconstruct"),
    "derivatives.omega_dot_series_s": ("fn", "derivatives.omega_dot_series"),
    "derivatives.differentiate_tracks_s":
        ("fn", "derivatives.differentiate_tracks"),
    "simulate.simulate_dataset_s": ("fn", "simulate.simulate_dataset"),
    "simulate.generate_trajectory_s": ("fn", "simulate.generate_trajectory"),
    "simulate.synthesize_images_s": ("fn", "simulate.synthesize_images"),
    "simulate.add_noise_s": ("fn", "simulate.add_noise"),
    "so3.hat.calls": ("calls", "so3.hat"),
    "so3.exp_so3.calls": ("calls", "so3.exp_so3"),
    "so3.project_to_so3.calls": ("calls", "so3.project_to_so3"),
    "so3.log_so3.calls": ("calls", "so3.log_so3"),
    "evaluate.evaluate_s": ("fn", "evaluate.evaluate"),
    "evaluate.procrustes_no_scale.calls": ("calls", "evaluate.procrustes_no_scale"),
    "baseline.dead_reckon_s": ("layer", "baseline"),
    "jsonio.write_json_s": ("fn", "jsonio.write_json"),
    "jsonio.write_csv_s": ("fn", "jsonio.write_csv"),
    "config.config_from_dict.calls": ("calls", "config.config_from_dict"),
    **{f"{layer}.self_s": ("self", layer) for layer in LAYERS},
}
COUNTER_METRICS = ("solver.dense_operator_bytes", "jsonio.bytes_written")
# Times of layers that only reference_pipeline runs (and, for
# differentiate_tracks, the numeric-flow workloads). Elsewhere they read 0
# on every run, so they are printed but left out of the result line and of
# BENCHMARK.json, whose per-layer metrics every workload measures.
PRINTED_ONLY = ("derivatives.differentiate_tracks_s", "baseline.dead_reckon_s",
                "jsonio.write_json_s", "jsonio.write_csv_s", "config.self_s",
                "baseline.self_s", "jsonio.self_s", "cli.self_s")


def dyn(name):
    """A dynsfm submodule. Fetched from sys.modules because the package
    re-exports the function evaluate under the name of its module."""
    return sys.modules[f"dynsfm.{name}"]


def _package_modules():
    return [mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "dynsfm" or key.startswith("dynsfm."))]


@contextmanager
def rebound(replacements):
    """Rebind every dynsfm module attribute bound to `old` to `new`, for
    each `replacements[id(old)] == (old, new)`; undo on exit."""
    undo = []
    try:
        for mod in _package_modules():
            for attr, value in list(vars(mod).items()):
                new = replacements.get(id(value))
                if new is not None and new[0] is value:
                    setattr(mod, attr, new[1])
                    undo.append((mod, attr, value))
        yield
    finally:
        for mod, attr, value in reversed(undo):
            setattr(mod, attr, value)


def public_functions():
    """(span name, function) for each public function defined in a layer."""
    out = []
    for layer in LAYERS:
        mod = dyn(layer)
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and getattr(obj, "__module__", None) == mod.__name__):
                out.append((f"{layer}.{attr}", obj))
    return out


def _nbytes(value):
    if isinstance(value, tuple):
        return sum(_nbytes(v) for v in value)
    return int(getattr(value, "nbytes", 0))


class Tracer:
    """In-memory spans grouped into units (one op, or one input build)."""

    def __init__(self):
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self.units = []        # (kind, root span index, counters dict)
        self._stack = []
        self._counters = None

    def _wrap(self, name, fn):
        names, starts, ends, parents = (self.names, self.starts, self.ends,
                                        self.parents)
        stack, clock = self._stack, time.perf_counter

        def hook(args, out):
            if name in DENSE_OPERATORS:
                self._add("solver.dense_operator_bytes", _nbytes(out))
            elif name in ("jsonio.write_json", "jsonio.write_csv"):
                self._add("jsonio.bytes_written", os.path.getsize(args[0]))
            elif name == "solver.reconstruct":
                for key in RESIDUAL_KEYS:
                    self._counters[f"solver.{key}"] = float(out.residuals[key])

        watch = name in DENSE_OPERATORS or name in (
            "jsonio.write_json", "jsonio.write_csv", "solver.reconstruct")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if watch:
                hook(args, out)
            return out
        return wrapper

    def _add(self, key, value):
        self._counters[key] = self._counters.get(key, 0) + value

    @contextmanager
    def unit(self, kind):
        """Trace one unit of work: wrappers are installed only inside it."""
        root = len(self.names)
        self.names.append(f"bench.{kind}")
        self.parents.append(-1)
        self.ends.append(0.0)
        self._counters = {}
        self.units.append((kind, root, self._counters))
        swaps = {id(fn): (fn, self._wrap(name, fn))
                 for name, fn in public_functions()}
        with rebound(swaps):
            self._stack.append(root)
            self.starts.append(time.perf_counter())
            try:
                yield
            finally:
                self.ends[root] = time.perf_counter()
                self._stack.pop()

    def unit_tables(self):
        """Per unit: (kind, {metric name: value})."""
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        bounds = [root for _, root, _ in self.units] + [n]
        tables = []
        for u, (kind, root, counters) in enumerate(self.units):
            fn_s, calls, self_s, layer_s = {}, {}, {}, {}
            for i in range(root + 1, bounds[u + 1]):
                name = self.names[i]
                dur = self.ends[i] - self.starts[i]
                layer = name.split(".")[0]
                fn_s[name] = fn_s.get(name, 0.0) + dur
                calls[name] = calls.get(name, 0) + 1
                self_s[layer] = self_s.get(layer, 0.0) + dur - child[i]
                parent = self.parents[i]
                if self.names[parent].split(".")[0] != layer:
                    layer_s[layer] = layer_s.get(layer, 0.0) + dur
            kinds = {"fn": fn_s, "calls": calls, "self": self_s,
                     "layer": layer_s}
            row = {metric: kinds[k][key]
                   for metric, (k, key) in SPAN_METRICS.items()
                   if key in kinds[k]}
            row.update(counters)
            duration = self.ends[root] - self.starts[root]
            row["trace.accounted_share"] = (
                sum(self_s.values()) / duration if duration > 0 else 0.0)
            tables.append((kind, row))
        return tables

    def per_layer(self):
        """Median per op of every per-layer metric.

        A metric that no traced op produces (on the library workloads,
        the simulator, which runs while set-up builds the inputs) is the
        median over the traced input builds instead; 0 if neither has it.
        """
        tables = self.unit_tables()
        names = (list(SPAN_METRICS) + list(COUNTER_METRICS)
                 + [f"solver.{k}" for k in RESIDUAL_KEYS]
                 + ["trace.accounted_share"])
        out = {}
        for metric in names:
            for kind in ("op", "build"):
                rows = [row for k, row in tables if k == kind]
                if any(metric in row for row in rows):
                    out[metric] = statistics.median(
                        row.get(metric, 0) for row in rows)
                    break
            else:
                out[metric] = 0
        return out

    def dump(self, path):
        """Write every span, columnar, to a JSON file."""
        doc = {"names": self.names, "starts": self.starts, "ends": self.ends,
               "parents": self.parents,
               "units": [[kind, root] for kind, root, _ in self.units]}
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


@contextmanager
def stage_peaks(into):
    """Record, in MB, the tracemalloc peak above entry of each solver
    stage in STAGE_PEAKS while the context is open. Call while tracemalloc
    is tracing."""
    solver = dyn("solver")

    def wrap(stage, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] - base
                into[f"solver.{stage}.peak_mb"] = peak / 1e6
        return wrapper

    swaps = {}
    for stage in STAGE_PEAKS:
        fn = getattr(solver, stage)
        swaps[id(fn)] = (fn, wrap(stage, fn))
    with rebound(swaps):
        yield
