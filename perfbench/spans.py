"""Spans around the library's public functions, and the per-layer metrics.

The traced run wraps every public function of the layer modules at every
place the `purcell` package binds it, so calls between modules pass through
the wrapper too.  Nothing under `src/` changes: the wrappers are installed
from here and removed again afterwards.

A span is (name, start, end, parent, op), timed on the same CPU clock as
the ops (speed.py); the speed sampler's kernel runs land in whichever span
is open, about 1 % of it.  Spans live in flat arrays in memory; the parent of a span is always recorded before it, and a layer's
self time is its span time minus the time of its direct children (in one
thread, children never overlap).  `se2` functions are counted but get no
span: they are called several times per integration step and are too short
to time one by one.
"""

import importlib
import inspect
import math
import os
import sys
from array import array
from collections import Counter
import numpy as np

from speed import clock

SPAN_LAYERS = ("model", "lie", "simulate", "planner", "gaits", "report")
COUNT_LAYERS = ("se2",)

# Span names the per-layer metrics are defined on.
L0 = "model.body_velocity_components"      # one connection evaluation
BASIS = "lie.bracket_basis"                # one 5x5 bracket basis
INTEGRATE = "simulate.simulate_velocity_model"  # one schedule integration
CALIBRATE = "planner.calibrate"
COMPILE = "planner.compile_maneuvers"
TRACK = "planner.tracking_report"
CSV = "report.write_trajectory_csv"


class Tracer:
    """Span and count recorder for one process; single-threaded use only."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self._stack = [-1]
        self.op_id = -1            # -1 while setting up, else the op index
        self.op_counts = Counter()
        self.setup_counts = Counter()

    def _name_id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name):
        """Start a span under the innermost open one; returns its index."""
        t = clock()
        i = len(self.start)
        self.start.append(t)
        self.end.append(math.nan)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self._stack.append(i)
        return i

    def close(self, i):
        self.end[i] = clock()
        self._stack.pop()

    def count(self, key, value=1):
        (self.op_counts if self.op_id >= 0 else self.setup_counts)[key] += value

    def wrap(self, fn, name, after=None):
        """fn with a span around every call; `after(tracer, args, kwargs, result)`
        records counts once the span has closed.

        The same bookkeeping as open/close, inlined: this runs on every
        connection evaluation.  The clock is read last before the call and
        first after it, so the bookkeeping lands in the parent's self time.
        """
        tracer, nid = self, self._name_id(name)
        starts, ends, names, parents, ops, stack = (
            self.start, self.end, self.name, self.parent, self.op, self._stack)

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.op_id)
            ends.append(math.nan)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counted(self, fn, key):
        tracer = self

        def counting(*args, **kwargs):
            (tracer.op_counts if tracer.op_id >= 0 else tracer.setup_counts)[key] += 1
            return fn(*args, **kwargs)

        counting.__wrapped__ = fn
        return counting

    def arrays(self):
        """(start, end, name, parent, op) as numpy arrays."""
        return (np.frombuffer(self.start, dtype=float).copy(),
                np.frombuffer(self.end, dtype=float).copy(),
                np.frombuffer(self.name, dtype=np.int32).astype(np.int64),
                np.frombuffer(self.parent, dtype=np.int32).astype(np.int64),
                np.frombuffer(self.op, dtype=np.int32).astype(np.int64))

    def write(self, path):
        start, end, name, parent, op = self.arrays()
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path, start=start, end=end, name=name, parent=parent, op=op,
                 names=np.array(self.names))


def _arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs[key]


def _after_integrate(tracer, args, kwargs, traj):
    schedule = _arg(args, kwargs, 0, "schedule")
    tracer.count("simulate.segments", sum(1 for s in schedule.segments if s.duration > 0.0))
    tracer.count("simulate.steps", len(traj) - 1)
    tracer.count("simulate.traj_bytes_computed",
                 sum(v.nbytes for v in vars(traj).values() if isinstance(v, np.ndarray)))


def _after_compile(tracer, args, kwargs, compiled):
    tracer.count("planner.cycles", sum(abs(s.cycles) for s in compiled.spans))


def _after_gaits(tracer, args, kwargs, result):
    segments = getattr(result, "segments", None)
    if isinstance(segments, tuple):
        tracer.count("gaits.segments_built", len(segments))


def _after_csv(tracer, args, kwargs, path):
    tracer.count("report.rows", len(_arg(args, kwargs, 0, "traj")))
    tracer.count("report.bytes", os.path.getsize(path))


def _after_svg(tracer, args, kwargs, path):
    tracer.count("report.bytes", os.path.getsize(path))


_AFTER = {
    INTEGRATE: _after_integrate,
    COMPILE: _after_compile,
    CSV: _after_csv,
    "report.write_plot_svg": _after_svg,
}


def _public_functions(module):
    for attr, obj in vars(module).items():
        if (not attr.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__):
            yield attr, obj


def install(tracer):
    """Wrap the layer functions everywhere `purcell` binds them; returns a
    function that puts the originals back."""
    replacement = {}
    for layer in SPAN_LAYERS + COUNT_LAYERS:
        module = importlib.import_module(f"purcell.{layer}")
        for attr, fn in _public_functions(module):
            name = f"{layer}.{attr}"
            if layer in COUNT_LAYERS:
                replacement[fn] = tracer.counted(fn, f"{layer}.calls")
            else:
                after = _AFTER.get(name, _after_gaits if layer == "gaits" else None)
                replacement[fn] = tracer.wrap(fn, name, after)
    patched = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "purcell" or mod_name.startswith("purcell.")):
            continue
        for attr, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in replacement:
                setattr(module, attr, replacement[obj])
                patched.append((module, attr, obj))

    def restore():
        for module, attr, obj in patched:
            setattr(module, attr, obj)

    return restore


def self_times(start, end, parent):
    """Span duration minus the time covered by its direct children."""
    dur = end - start
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - child


def under(parent, name, target):
    """Mask of spans that have a strict ancestor with name id `target`."""
    has = parent >= 0
    up = np.where(has, parent, 0)
    flag = has & (name[up] == target)
    while True:  # one pass per nesting level
        grown = flag | (has & flag[up])
        if np.array_equal(grown, flag):
            return flag
        flag = grown


def _ratio(num, base):
    return num / base if base else 0.0


def layer_metrics(tracer, untraced_s, traced_s, speed=1.0):
    """Per-layer metrics over the spans of the traced ops (op >= 0).

    Totals cover the traced op pass; planner.calibrate_s covers set-up.
    Span times are multiplied by `speed`, the factor to reference speed.
    Every ratio's base is itself reported: model.calls, lie.bases,
    simulate.steps, planner.cycles, report.rows, and the untraced time of
    the same ops for trace.overhead_frac.
    """
    start, end, name, parent, op = tracer.arrays()
    own = speed * self_times(start, end, parent)
    dur = speed * (end - start)
    in_ops = op >= 0
    ids = {n: i for i, n in enumerate(tracer.names)}

    def named(span_name):
        return in_ops & (name == ids.get(span_name, -1))

    def layer_self(prefix):
        layer_ids = [i for n, i in ids.items() if n.startswith(prefix + ".")]
        return float(own[in_ops & np.isin(name, layer_ids)].sum())

    in_basis = under(parent, name, ids.get(BASIS, -1))
    in_integrate = under(parent, name, ids.get(INTEGRATE, -1))
    l0 = named(L0)
    calls = int(l0.sum())
    bases = int(named(BASIS).sum())
    c = tracer.op_counts
    steps = int(c["simulate.steps"])
    cycles = int(c["planner.cycles"])
    rows = int(c["report.rows"])
    calib = (op < 0) & (name == ids.get(CALIBRATE, -1))
    return {
        "model.calls": (calls, "count"),
        "model.us_per_call": (1e6 * _ratio(float(dur[l0].sum()), calls), "us"),
        "model.self_s": (layer_self("model"), "s"),
        "lie.bases": (bases, "count"),
        "lie.model_calls_per_basis": (_ratio(int((l0 & in_basis).sum()), bases), "count"),
        "lie.ms_per_basis": (1e3 * _ratio(float(dur[named(BASIS)].sum()), bases), "ms"),
        "lie.self_s": (layer_self("lie"), "s"),
        "simulate.steps": (steps, "count"),
        "simulate.segments": (int(c["simulate.segments"]), "count"),
        "simulate.us_per_step": (1e6 * _ratio(float(dur[named(INTEGRATE)].sum()), steps), "us"),
        "simulate.model_calls_per_step": (_ratio(int((l0 & in_integrate).sum()), steps), "count"),
        "simulate.self_s": (layer_self("simulate"), "s"),
        "simulate.traj_bytes_computed": (int(c["simulate.traj_bytes_computed"]), "bytes"),
        "planner.calibrate_s": (float(dur[calib].sum()), "s"),
        "planner.cycles": (cycles, "count"),
        "planner.steps_per_cycle": (_ratio(steps, cycles), "count"),
        "planner.compile.self_s": (float(own[named(COMPILE)].sum()), "s"),
        "planner.track.self_s": (float(own[named(TRACK)].sum()), "s"),
        "gaits.self_s": (layer_self("gaits"), "s"),
        "gaits.segments_built": (int(c["gaits.segments_built"]), "count"),
        "report.rows": (rows, "count"),
        "report.bytes": (int(c["report.bytes"]), "bytes"),
        "report.us_per_row": (1e6 * _ratio(float(dur[named(CSV)].sum()), rows), "us"),
        "report.self_s": (layer_self("report"), "s"),
        "se2.calls": (int(c["se2.calls"]), "count"),
        "trace.overhead_frac": (_ratio(traced_s, untraced_s) - 1.0, "fraction"),
    }
