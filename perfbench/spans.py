"""Span recorder for the traced run, kept entirely in the benchmark.

`install()` replaces every public function of the coorbit modules with a
wrapper that records a span (name, start, end, parent span) around the call,
everywhere the function is bound: the module attribute itself and every
name bound to it by `from ... import` in other coorbit modules (cli,
oscillation, discretization, frame_families, ...).  Three methods are
wrapped on their classes: `Kernel.block`, `FrameFamily.atoms` and
`FrameCalculus.u_factor`.  Counters are updated at the same boundaries from
the arguments and return values of the wrapped calls.  Nothing inside
`src/coorbit` is edited; wrappers return exactly what the wrapped call
returns, so reports are unchanged.
"""
from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter

MODULES = ("measure_space", "kernel_algebra", "frame_families", "coverings",
           "oscillation", "sequence_spaces", "discretization", "localization",
           "_linalg")
METHODS = (("kernel_algebra", "Kernel", "block"),
           ("frame_families", "FrameFamily", "atoms"),
           ("frame_families", "FrameCalculus", "u_factor"))


def layer_name(module: str) -> str:
    """Metric prefix of a coorbit module (metric names start with a letter)."""
    return module.lstrip("_")


class Recorder:
    """Spans kept in memory as [name, start, end, parent index]."""

    def __init__(self):
        self.spans: list = []
        self.counters: Counter = Counter()
        self._stack: list = []

    def wrap(self, name: str, fn, count=None, before=None):
        """`fn` wrapped in a span; `count(counters, bound_args, result,
        state)` runs after the call, with `state = before(bound_args)`."""
        sig = inspect.signature(fn) if (count or before) else None
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                bound = bound.arguments
            state = before(bound) if before else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count:
                count(counters, bound, result, state)
            return result

        return wrapper


# ---------------------------------------------------------------------------
# counters at the wrapped boundaries
# ---------------------------------------------------------------------------
def _count_block(c, a, result, _):
    rows, cols = result.shape
    c["kernel_algebra.block_entries"] += rows * cols
    calc = a["self"].context.get("calc")
    if calc is not None:
        # computed, not measured: one complex GEMM (rows x n) @ (n x cols)
        n = calc.family.signal_grid.n
        c["kernel_algebra.block_gflop"] += 8.0 * rows * n * cols / 1e9


def _u_factor_cached(a):
    cache = getattr(a["self"], "_u_factor", None)
    return cache is not None and a["rel_cut"] in cache


def _count_u_factor(c, a, result, cached):
    c["frame_families.u_factor_misses"] += 0 if cached else 1


def _count_neumann(c, a, result, _):
    if a["method"] == "neumann":
        c["discretization.neumann_iters"] += result[1]


COUNTS = {
    "kernel_algebra.block": (_count_block, None),
    "frame_families.atoms":
        (lambda c, a, r, _: c.update({"frame_families.atoms_count": r.shape[1]}),
         None),
    "frame_families.u_factor": (_count_u_factor, _u_factor_cached),
    "coverings.build_covering":
        (lambda c, a, r, _: c.update({"coverings.build_covering_cells": r.size}),
         None),
    "oscillation.property_D_check":
        (lambda c, a, r, _: c.update({"oscillation.cells": a["cov"].size}), None),
    "oscillation.refine_until":
        (lambda c, a, r, _: c.update({"oscillation.levels": len(r[2])}), None),
    "discretization.invert_uphi": (_count_neumann, None),
    "linalg.power_iteration":
        (lambda c, a, r, _: c.update({"linalg.power_iteration_steps": a["iters"]}),
         None),
}


def install(recorder: Recorder) -> None:
    """Wrap the coorbit functions and methods; coorbit must be imported."""
    mods = {m: sys.modules[f"coorbit.{m}"] for m in MODULES}
    wrapped = {}
    for short, mod in mods.items():
        for attr, fn in vars(mod).items():
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(fn)):
                continue
            name = f"{layer_name(short)}.{attr}"
            count, before = COUNTS.get(name, (None, None))
            wrapped[fn] = recorder.wrap(name, fn, count, before)
    # rebind at the module attribute and at every `from ... import` binding
    for mod in [sys.modules["coorbit"], sys.modules["coorbit.cli"], *mods.values()]:
        for attr, val in list(vars(mod).items()):
            if inspect.isfunction(val) and val in wrapped:
                setattr(mod, attr, wrapped[val])
    for short, cls_name, meth in METHODS:
        cls = getattr(mods[short], cls_name)
        name = f"{layer_name(short)}.{meth}"
        count, before = COUNTS.get(name, (None, None))
        setattr(cls, meth, recorder.wrap(name, getattr(cls, meth), count, before))


# ---------------------------------------------------------------------------
# per-layer metrics from the spans
# ---------------------------------------------------------------------------
def _outermost(spans: list, k: int, same) -> bool:
    """True when no ancestor of span k has a name for which `same` holds."""
    p = spans[k][3]
    while p >= 0 and not same(spans[p][0]):
        p = spans[p][3]
    return p < 0


def aggregate(spans: list) -> dict:
    """Inclusive time, self time and call count per span name.

    Inclusive time skips spans nested in a span of the same name, so a
    recursive call is not counted twice.  Self time is a span's duration
    minus the durations of its direct children (calls are sequential, so
    children never overlap).
    """
    child = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    incl, self_t, calls = Counter(), Counter(), Counter()
    for k, (name, t0, t1, parent) in enumerate(spans):
        calls[name] += 1
        self_t[name] += (t1 - t0) - child[k]
        if _outermost(spans, k, name.__eq__):
            incl[name] += t1 - t0
    return {"incl": incl, "self": self_t, "calls": calls}


def layer_total(spans: list, layer: str) -> float:
    """Time inside the outermost spans of one layer."""
    prefix = layer + "."
    return sum(t1 - t0 for k, (name, t0, t1, _) in enumerate(spans)
               if name.startswith(prefix)
               and _outermost(spans, k, lambda n: n.startswith(prefix)))


def root_time(spans: list) -> float:
    """Time covered by spans with no parent (they never overlap)."""
    return sum(t1 - t0 for _, t0, t1, parent in spans if parent < 0)
