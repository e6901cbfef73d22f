"""Spans around the public entry points of the seven library layers.

The tracer wraps every public module-level function of grids, kernels,
fock, wick, functionals, driven and suites, except the scalar closed forms
(their time counts toward the caller).  ``install`` rebinds each wrapped
name in every ``oscresp.*`` module that binds it, because suites, kernels
and functionals import grid functions by name; ``uninstall`` restores the
originals.  Nothing under ``src/`` changes.

A span is ``[name, layer, start, end, parent, pass_id, info, error]``,
kept in memory.  A span is a layer *entry* when its parent belongs to
another layer (or it has none); a layer's self time is the sum, over its
entry spans, of the span time minus the time of descendant spans from
other layers.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np
from oscresp.fock import ORDERINGS

from workloads import SPECTRAL_SIZES, WEYL_MAX_FACTORS

LAYERS = ("grids", "kernels", "fock", "wick", "functionals", "driven", "suites")
SCALAR_FORMS = frozenset({"osc_d_value", "osc_df_value", "osc_dr_value", "theta_half"})
WEYL_FACTOR_COUNTS = range(2, max(WEYL_MAX_FACTORS.values()) + 1)

NAME, LAYER, START, END, PARENT, PASS, INFO, ERROR = range(8)


def _grid_size(args) -> int:
    """Sample count of the first argument: a signal, kernel, grid size or array."""
    first = args[0] if args else None
    if hasattr(first, "grid"):
        return first.grid.n
    if isinstance(first, (int, np.integer)):
        return int(first)
    if isinstance(first, np.ndarray):
        return first.shape[-1]
    return 0


def _nbytes(obj) -> int:
    """Bytes of the arrays held by a returned kernel, kernel family or array."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if hasattr(obj, "__dataclass_fields__"):
        return sum(_nbytes(getattr(obj, f)) for f in obj.__dataclass_fields__)
    return 0


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self.pass_id = -1
        self._seen_states = set()
        self._pinned = []        # keeps ids in _seen_states from being reused
        self._wrappers = {}      # original function -> wrapper
        self._bound = []         # (module, name, original) while installed
        for layer in LAYERS:
            module = sys.modules[f"oscresp.{layer}"]
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_") and name not in SCALAR_FORMS):
                    self._wrappers[obj] = self._wrap(layer, name, obj)

    def begin_pass(self, pass_id: int) -> None:
        self.pass_id = pass_id
        self._seen_states.clear()
        self._pinned.clear()

    def install(self) -> None:
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "oscresp" and not mod_name.startswith("oscresp."):
                continue
            for name, obj in list(vars(module).items()):
                if callable(obj) and obj in self._wrappers:
                    self._bound.append((module, name, obj))
                    setattr(module, name, self._wrappers[obj])

    def uninstall(self) -> None:
        for module, name, original in self._bound:
            setattr(module, name, original)
        self._bound.clear()

    def _info_fn(self, layer: str, name: str):
        """What a span records beyond its timing, computed after the call returns."""
        if name == "ordered_average":
            return self._ordered_average_info
        if layer == "grids":
            return lambda args, result: _grid_size(args)
        if layer == "kernels":
            return lambda args, result: _nbytes(result)
        if name in ("hori_expand", "enumerate_pairings"):
            return lambda args, result: len(result)
        if name == "ode_oscillator":
            return lambda args, result: args[0].grid.n
        if name == "run_suite":
            return lambda args, result: len(result.rows)
        return None

    def _ordered_average_info(self, args, result):
        state, spec = args[0], args[1]
        key = (id(state), spec.ordering)
        reused = key in self._seen_states
        if not reused:
            self._seen_states.add(key)
            self._pinned.append(state)
        return (spec.ordering, len(spec.factors), reused)

    def _wrap(self, layer: str, name: str, fn):
        spans, stack = self.spans, self._stack
        info_fn = self._info_fn(layer, name)
        span_name = f"{layer}.{name}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [span_name, layer, 0.0, 0.0, stack[-1] if stack else -1,
                    self.pass_id, None, False]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span[ERROR] = True
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if info_fn is not None:
                span[INFO] = info_fn(args, result)
            return result

        return wrapper


def layer_metrics(spans, passes: int) -> dict:
    """Per-pass layer metrics (name -> value) from the spans of `passes` traced passes."""
    n = len(spans)
    foreign = [0.0] * n
    # a child is recorded after its parent, so walking backwards completes
    # every span's children before the span itself
    for i in range(n - 1, -1, -1):
        span = spans[i]
        parent = span[PARENT]
        if parent >= 0:
            if spans[parent][LAYER] != span[LAYER]:
                foreign[parent] += span[END] - span[START]
            else:
                foreign[parent] += foreign[i]

    out = defaultdict(float)
    for layer in LAYERS:
        for key in ("calls", "self_s", "errors"):
            out[f"{layer}.{key}"] = 0.0
    for ordering in ORDERINGS:
        out[f"fock.{ordering}.calls"] = out[f"fock.{ordering}.self_s"] = 0.0
    for m in WEYL_FACTOR_COUNTS:
        out[f"fock.weyl.m{m}.self_s"] = 0.0
    for size in SPECTRAL_SIZES:
        out[f"grids.n{size}.self_s"] = 0.0
    for key in ("fock.weyl_terms", "wick.pairings", "functionals.pairings", "grids.samples",
                "kernels.bytes_out", "driven.ode_samples", "suites.rows"):
        out[key] = 0.0
    verify_spans = set()
    fock_in_verify = 0
    for i, span in enumerate(spans):
        name, layer, info = span[NAME], span[LAYER], span[INFO]
        parent = span[PARENT]
        parent_layer = spans[parent][LAYER] if parent >= 0 else None
        if span[ERROR]:
            pass
        elif name == "wick.hori_expand":
            out["wick.pairings"] += info
        elif name == "wick.enumerate_pairings" and parent_layer == "functionals":
            out["functionals.pairings"] += info
        elif name == "wick.verify_wick":
            verify_spans.add(i)
        elif name == "fock.ordered_average" and parent in verify_spans:
            fock_in_verify += 1
        if parent_layer == layer:
            continue
        self_s = span[END] - span[START] - foreign[i]
        out[f"{layer}.calls"] += 1
        out[f"{layer}.self_s"] += self_s
        out[f"{layer}.errors"] += span[ERROR]
        if span[ERROR]:
            continue
        if layer == "grids":
            size = info if info in SPECTRAL_SIZES else "other"
            out[f"grids.n{size}.self_s"] += self_s
            out["grids.samples"] += info
        elif layer == "kernels":
            out["kernels.bytes_out"] += info
        elif name == "fock.ordered_average":
            ordering, m, reused = info
            out[f"fock.{ordering}.calls"] += 1
            out[f"fock.{ordering}.self_s"] += self_s
            out["fock.reused_calls"] += reused
            if ordering == "weyl":
                out[f"fock.weyl.m{m}.self_s"] += self_s
                out["fock.weyl_terms"] += math.factorial(m)
        elif name == "driven.ode_oscillator":
            out["driven.ode_samples"] += info
        elif name == "suites.run_suite":
            out["suites.rows"] += info

    averages = sum(out[f"fock.{o}.calls"] for o in ORDERINGS)
    reused = out.pop("fock.reused_calls", 0.0)
    result = {key: value / passes for key, value in out.items()}
    result["fock.state_reuse_share"] = reused / averages if averages else 0.0
    result["wick.fock_calls_per_verify"] = (
        fock_in_verify / len(verify_spans) if verify_spans else 0.0)
    return result
