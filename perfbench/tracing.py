"""Spans around the program's layer functions, recorded from outside the program.

The benchmark never reads the program's own timers.  Instead it wraps
each layer's public functions at every place a ``qlmpc`` module binds
them (``solver`` imports ``condense`` and the rest at import time, so
patching ``qlmpc.condensing`` alone would miss its calls) and wraps the
model closures through ``dataclasses.replace`` on the ``LpvModel``.

A span is (name, start, end, parent span, step id).  Spans stay in
memory as flat arrays and are written out when the run ends.  A span's
self time is its duration minus the part of it that its child spans
cover.
"""

from __future__ import annotations

import dataclasses
import importlib
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# Layer -> the public functions the benchmark wraps, per qlmpc module.
LAYERS = {
    "models": ("rho", "a_of_rho", "b_of_rho", "stage_jacobian", "eval_dynamics"),
    "stacked": ("frozen_constraint_matrix", "linearized_constraint"),
    "condensing": ("condense", "solve_condensed", "expand", "recover_multipliers"),
    "solver": ("solve_ocp", "warm_shift", "initial_guess"),
    "closed_loop": ("run_control_loop",),
}
# Closures that live on the LpvModel rather than in a module.
MODEL_FIELDS = ("rho", "a_of_rho", "b_of_rho", "stage_jacobian")
# Each closed-loop step begins with one of these; they advance the step id.
STEP_START = ("solver.initial_guess", "solver.warm_shift")

QUALNAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)


def warn(message: str) -> None:
    print(f"perfbench: warning: {message}", file=sys.stderr)


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the union of its children's intervals.

    Child intervals are clipped to the parent's interval, and
    overlapping children are counted once.  ``parent`` is -1 for a root.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    cover = np.zeros(start.size)
    order = np.lexsort((start, parent))
    starts, ends, parents = start.tolist(), end.tolist(), parent.tolist()
    current, reach, p_end = -1, 0.0, 0.0
    for i in order[np.searchsorted(parent[order], 0):].tolist():
        p = parents[i]
        if p != current:
            current, reach, p_end = p, starts[p], ends[p]
        lo = max(starts[i], reach)
        hi = min(ends[i], p_end)
        if hi > lo:
            cover[p] += hi - lo
            reach = hi
    return (end - start) - cover


def summarize(spans: dict, lo: int, hi: int) -> tuple:
    """Per-function self seconds and call counts over spans [lo, hi)."""
    ids = spans["name"][lo:hi]
    self_s = np.bincount(ids, weights=spans["self"][lo:hi], minlength=len(QUALNAMES))
    calls = np.bincount(ids, minlength=len(QUALNAMES))
    return ({q: float(self_s[i]) for i, q in enumerate(QUALNAMES)},
            {q: int(calls[i]) for i, q in enumerate(QUALNAMES)})


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.name = array("i")
        self.parent = array("i")
        self.step = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current_step = -1
        self._stack = []

    def __len__(self) -> int:
        return len(self.name)

    def wrap(self, qualname: str, fn):
        """Return ``fn`` wrapped so that every call records a span."""
        nid = QUALNAMES.index(qualname)
        starts_step = qualname in STEP_START
        names, parents, steps = self.name, self.parent, self.step
        starts, ends, stack, clock = self.start, self.end, self._stack, self.clock

        def traced(*args, **kwargs):
            if starts_step:
                self.current_step += 1
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            steps.append(self.current_step)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1

        traced.__wrapped__ = fn
        return traced

    def wrap_model(self, model):
        """Copy of an LpvModel whose closures record spans."""
        return dataclasses.replace(model, **{
            f: self.wrap(f"models.{f}", getattr(model, f)) for f in MODEL_FIELDS})

    @contextmanager
    def installed(self):
        """Wrap every binding of a layer function in the loaded qlmpc modules.

        A function the benchmark expects but cannot find is skipped with
        a warning and later reported with zero calls.  The original
        bindings are restored on exit.
        """
        targets = {}
        for layer, fns in LAYERS.items():
            module = importlib.import_module(f"qlmpc.{layer}")
            for fn in fns:
                if layer == "models" and fn in MODEL_FIELDS:
                    continue
                obj = getattr(module, fn, None)
                if obj is None:
                    warn(f"qlmpc.{layer}.{fn} not found; reported with zero calls")
                    continue
                targets[id(obj)] = (obj, f"{layer}.{fn}")
        saved = []
        try:
            for mod_name, module in list(sys.modules.items()):
                if mod_name != "qlmpc" and not mod_name.startswith("qlmpc."):
                    continue
                for attr, value in list(vars(module).items()):
                    hit = targets.get(id(value))
                    if hit is not None and hit[0] is value:
                        saved.append((module, attr, value))
                        setattr(module, attr, self.wrap(hit[1], value))
            yield
        finally:
            for module, attr, value in reversed(saved):
                setattr(module, attr, value)

    def spans(self) -> dict:
        """The recorded spans as arrays, with each span's self time."""
        spans = {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "step": np.frombuffer(self.step, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }
        spans["self"] = self_times(spans["start"], spans["end"], spans["parent"])
        return spans
