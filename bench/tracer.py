"""Span tracer for the benchmark's traced run, installed from outside the package.

It replaces the functions in ``TARGETS`` with timing wrappers at run time:
on the module that defines each one, on every widthlab module that imported
it by name (``from .x import y``), and on the class for methods.  Each call
becomes a span ``(id, function, parent, start, end, extra)`` kept in memory;
``extra`` is the work count read from the call's arguments or result.

Every thread keeps its own parent stack.  A span opened on a thread with an
empty stack, such as a trial in a worker pool, takes as parent the innermost
open span of the thread that runs the experiment, so parallel work attaches
to the call that waits for it.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _points(args, result):
    x = args[1]
    return np.shape(x)[0] if np.ndim(x) == 2 else 1


def _useful(args, feature):
    return int(abs(feature.bias) <= math.sqrt(feature.weight.shape[0]))


def _lstsq_shape(args, result):
    design, targets = args[0], args[1]
    rows, cols = design.shape
    return rows, cols, targets.shape[1] if targets.ndim == 2 else 1


def _nbytes(args, result):
    return result.nbytes


def _text_bytes(args, result):
    lines = args[1]
    return sum(len(line) for line in lines) + len(lines)


# (metric prefix, module, attribute, work count taken from (args, result))
TARGETS = (
    ("lattice.enumerate_ball", "widthlab.lattice", "enumerate_ball", None),
    ("lattice.count_ball", "widthlab.lattice", "count_ball", None),
    ("lattice.radius_sq_bound", "widthlab.lattice", "radius_sq_bound", None),
    ("trig.eval_T", "widthlab.trig", "eval_T", _points),
    ("quadrature.make_grid", "widthlab.quadrature", "make_grid", None),
    ("quadrature.evaluate_on", "widthlab.quadrature", "evaluate_on", None),
    ("quadrature.trig_coefficient", "widthlab.quadrature", "trig_coefficient", None),
    ("approx.truncate_periodic", "widthlab.approx", "truncate_periodic", None),
    ("approx.reflect_and_truncate", "widthlab.approx", "reflect_and_truncate", None),
    ("approx.truncate_sobolev", "widthlab.approx", "truncate_sobolev", None),
    ("relu.sample_feature", "widthlab.relu", "DkDistribution.sample_feature", _useful),
    ("relu.h_weight", "widthlab.relu", "h_weight", None),
    ("relu.ray_members", "widthlab.relu", "ray_members", None),
    ("relu.psi_K", "widthlab.relu", "psi_K", None),
    ("relu.mixture_expectation", "widthlab.relu", "mixture_expectation", None),
    ("relu.sample_average_network", "widthlab.relu", "sample_average_network", None),
    ("fitter.success_probability", "widthlab.fitter", "success_probability", None),
    ("fitter.design", "widthlab.fitter", "_design_matrix", _nbytes),
    ("fitter.lstsq", "widthlab.fitter", "_weighted_lstsq", _lstsq_shape),
    ("lowerbound.projection_residuals", "widthlab.lowerbound", "projection_residuals", None),
    ("lowerbound.value_matrix", "widthlab.lowerbound", "_value_matrix", None),
    ("hermite.hermite_truncate", "widthlab.hermite", "hermite_truncate", None),
    ("cli.write", "widthlab.cli", "_write_lines", _text_bytes),
)

EXPERIMENT = "experiment"


class Tracer:
    """Records spans around the calls in ``TARGETS`` while installed."""

    def __init__(self):
        self.names = [EXPERIMENT] + [name for name, *_ in TARGETS]
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._experiment_stack: list[int] = []
        self._patches: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for fid, (name, module_name, attr, count) in enumerate(TARGETS, start=1):
            owner_path, _, leaf = attr.rpartition(".")
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(name)
                continue
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            original = getattr(owner, "__dict__", {}).get(leaf)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(fid, original, count)
            if owner_path:
                self._patch(owner, leaf, original, wrapper)
                continue
            for module in [m for key, m in sys.modules.items()
                           if key == "widthlab" or key.startswith("widthlab.")]:
                for alias, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, alias, original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    # -- spans --------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[int, int | None, list[int]]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            outer = self._experiment_stack
            parent = outer[-1] if outer else None
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, stack

    def _wrap(self, fid: int, fn, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent, stack = tracer._open()
            start = time.perf_counter()
            result, ok = None, False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = count(args, result) if ok and count is not None else None
                tracer.spans.append((sid, fid, parent, start, end, extra))

        return traced

    @contextmanager
    def experiment(self):
        """Root span of one experiment, opened on the thread that runs it."""
        sid, parent, stack = self._open()
        self._experiment_stack = stack
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, 0, parent, start, end, None))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "absent": self.absent,
                       "fields": ["id", "name", "parent", "start", "end", "extra"],
                       "spans": self.spans}, fh)


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, cur_lo, cur_hi = 0.0, None, None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_hi is None or start > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = start, end
        else:
            cur_hi = max(cur_hi, end)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for sid, _, parent, start, end, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {sid: (end - start) - union_length(children.get(sid, ()), start, end)
            for sid, _, _, start, end, _ in spans}


def _lstsq_flops(rows: int, cols: int, rhs: int) -> int:
    # QR of the weighted design (2 m n^2), applying it to the right-hand
    # sides, and recomputing the misfit (2 m n k each).
    return 2 * rows * cols * cols + 4 * rows * cols * rhs


def layer_metrics(tracer: Tracer, experiments: int) -> dict[str, float]:
    """Per-experiment calls, self seconds and computed work counts of each target."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    extras = defaultdict(list)
    own = self_times(tracer.spans)
    for sid, fid, _, _, _, extra in tracer.spans:
        calls[fid] += 1
        self_s[fid] += own[sid]
        if extra is not None:
            extras[fid].append(extra)
    out = {}
    fids = {name: fid for fid, name in enumerate(tracer.names)}
    for name, *_ in TARGETS:
        fid = fids[name]
        out[f"{name}.calls"] = calls[fid] / experiments
        out[f"{name}.self_s"] = self_s[fid] / experiments
    useful = extras[fids["relu.sample_feature"]]
    lstsq = extras[fids["fitter.lstsq"]]
    out["trig.eval_T.points"] = sum(extras[fids["trig.eval_T"]]) / experiments
    out["relu.useful_feature_ratio"] = sum(useful) / len(useful) if useful else 0.0
    out["fitter.features_fitted"] = sum(cols for _, cols, _ in lstsq) / experiments
    out["fitter.design.bytes"] = sum(extras[fids["fitter.design"]]) / experiments
    out["fitter.lstsq.flops"] = sum(_lstsq_flops(*shape) for shape in lstsq) / experiments
    out["cli.write.bytes"] = sum(extras[fids["cli.write"]]) / experiments
    return out
