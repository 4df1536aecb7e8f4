"""Timing spans around the public functions of every ``lpm`` module.

The benchmark's traced run calls ``lpm.cli.main`` in-process inside
``traced(tracer)``. Public functions are imported by name into other modules
(``train_control`` into ``lpm.selection``, ``lpm.validation`` and
``lpm.cli``; ``fit_quantities`` into ``lpm.inference``; ...), so every
binding in every loaded ``lpm`` module is replaced, not just the defining
one. Spans are aggregated in memory per function: call count, total time,
self time (total minus every wrapped child) and time minus the children
that belong to other modules ("layer time"). Observers pull counts such as
EM iterations out of the returned values.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

LAYERS = ("histograms", "model", "selection", "inference", "baseline",
          "validation", "svgplots")

# private functions that mark a layer boundary worth a span of their own
EXTRA_SPANS = {"validation": ("_run_fold",)}


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    layer_s: float = 0.0
    counts: dict = field(default_factory=dict)

    def add(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n


class Tracer:
    """Aggregated spans keyed by ``layer.function``."""

    def __init__(self):
        self.spans: dict = {}
        self._stack: list = []  # per open span: [child_s, other_layer_child_s, layer]

    def wrap(self, name: str, fn, observe=None):
        layer = name.split(".", 1)[0]
        stats = self.spans.setdefault(name, SpanStats())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, 0.0, layer]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                stats.calls += 1
                stats.total_s += dt
                stats.self_s += dt - frame[0]
                stats.layer_s += dt - frame[1]
                if self._stack:
                    parent = self._stack[-1]
                    parent[0] += dt
                    if parent[2] != layer:
                        parent[1] += dt
            if observe is not None:
                observe(stats, result)
            return result

        return wrapper

    @property
    def span_count(self) -> int:
        return sum(st.calls for st in self.spans.values())

    def get(self, name: str) -> SpanStats:
        return self.spans.get(name, SpanStats())

    def layer_self_s(self) -> dict:
        """Self time summed per layer; the layers add up to the root span."""
        out: dict = {}
        for name, st in self.spans.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + st.self_s
        return out


def span_cost_s(n: int = 20000) -> float:
    """Measured cost of one span around a no-op call, in seconds."""
    def noop():
        return None

    wrapped = Tracer().wrap("probe.noop", noop)
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(n):
        wrapped()
    return max(time.perf_counter() - t0 - bare, 0.0) / n


def _observe_train(stats, result):
    diag = result.diagnostics
    if diag is not None:
        stats.add("iterations", diag.n_iterations)
        stats.add("fits", 1)
        stats.add("unconverged", int(not diag.converged))


def _observe_fit_quantities(stats, result):
    _, diag = result
    stats.add("iterations", diag.n_iterations)
    stats.add("fits", 1)
    stats.add("unconverged", int(not diag.converged))


def _observe_load(stats, result):
    stats.add("records", len(result.records))
    stats.add("rejected", len(result.errors))


def _observe_select(stats, result):
    curve, _ = result
    stats.add("candidates", len(curve.points))
    stats.add("degenerate", sum(p.degenerate for p in curve.points))


def _observe_covariance(stats, result):
    stats.add("pinv_used", int(result.pseudo_inverse_used))


def _observe_fold(stats, result):
    _, loo, _ = result
    stats.add("failed", int(loo is None))


OBSERVERS = {
    "model.train_control": _observe_train,
    "model.train_treatment": _observe_train,
    "model.fit_quantities": _observe_fit_quantities,
    "histograms.load_voxel_csv": _observe_load,
    "histograms.load_signal_csv": _observe_load,
    "selection.select_components": _observe_select,
    "inference.quantity_covariance": _observe_covariance,
    "validation._run_fold": _observe_fold,
}


def _span_targets(module, layer):
    names = [n for n, f in vars(module).items()
             if inspect.isfunction(f) and f.__module__ == module.__name__
             and not n.startswith("_")]
    return names + list(EXTRA_SPANS.get(layer, ()))


@contextmanager
def traced(tracer: Tracer):
    """Patch every binding of each layer's public functions for the block."""
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"lpm.{layer}")
        for fname in _span_targets(module, layer):
            fn = getattr(module, fname)
            name = f"{layer}.{fname}"
            wrappers[id(fn)] = (fn, tracer.wrap(name, fn, OBSERVERS.get(name)))
    patched = []
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "lpm" or modname.startswith("lpm.")):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                patched.append((module, attr, value))
    try:
        yield tracer
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)
