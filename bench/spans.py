"""Spans around calls into jacprop's public functions, recorded from outside.

The benchmark never edits the library.  :func:`install` wraps each public
function named in :data:`SPANS` and rebinds the wrapper under every name
that refers to the original in any loaded ``jacprop`` module (``trace`` is
bound in ``meanfield``, ``critical``, ``cli`` and the package itself), and
replaces class attributes in place (``Activation.eval``,
``NetworkParams.draw``).  The returned callable puts every original back.

Self time is attributed online, without storing spans.  At every instant
the wall clock is shared evenly between the open spans that have no open
child (the leaves).  A parent therefore gets its span time minus the time
its children cover, and when two pool threads run leaves at once each
gets half of that interval, so the self times of a traced round add up to
its wall time exactly.  A span opened by a thread that has no open span
of its own (an ensemble worker) is a child of the innermost open span of
the thread that created the tracer, which is the ensemble driver call
that owns the pool.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
import threading
import time
from collections import defaultdict
from typing import Callable


class _Span:
    __slots__ = ("name", "parent", "open_children", "self_s", "closed")

    def __init__(self, name: str, parent: "_Span | None"):
        self.name = name
        self.parent = parent
        self.open_children = 0
        self.self_s = 0.0
        self.closed = False


class Tracer:
    """Per-name self time, call counts and computed work counts."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._lock = threading.Lock()
        self._owner = threading.get_ident()
        self._stacks: dict[int, list[_Span]] = {}
        self._leaves: list[_Span] = []
        self._last = 0.0
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.peaks: dict[str, float] = defaultdict(float)

    def _advance(self, now: float) -> None:
        if self._leaves:
            share = (now - self._last) / len(self._leaves)
            for leaf in self._leaves:
                leaf.self_s += share
        self._last = now

    def open(self, name: str) -> _Span:
        tid = threading.get_ident()
        with self._lock:
            self._advance(self._clock())
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                owner = self._stacks.get(self._owner)
                parent = owner[-1] if owner else None
            span = _Span(name, parent)
            if parent is not None:
                if parent.open_children == 0 and not parent.closed:
                    self._leaves.remove(parent)
                parent.open_children += 1
            self._leaves.append(span)
            stack.append(span)
        return span

    def close(self, span: _Span) -> None:
        with self._lock:
            self._advance(self._clock())
            self._stacks[threading.get_ident()].pop()
            span.closed = True
            if span.open_children == 0:
                self._leaves.remove(span)
            parent = span.parent
            if parent is not None:
                parent.open_children -= 1
                if parent.open_children == 0 and not parent.closed:
                    self._leaves.append(parent)
            self.self_s[span.name] += span.self_s
            self.calls[span.name] += 1

    def current(self) -> str | None:
        """Name of the calling thread's innermost open span."""
        stack = self._stacks.get(threading.get_ident())
        return stack[-1].name if stack else None

    def add(self, key: str, amount: float) -> None:
        with self._lock:
            self.counts[key] += amount

    def peak(self, key: str, value: float) -> None:
        with self._lock:
            self.peaks[key] = max(self.peaks[key], value)


# ---------------------------------------------------------------------------
# computed work counts, derived from argument shapes and results only


def _count_draw(tracer, args, result):
    dims = list(args["layer_dims"])
    normals = sum(dims[l + 1] * dims[l] + dims[l + 1] for l in range(len(dims) - 1))
    tracer.add("ensemble.normals_drawn", normals)
    tracer.peak("ensemble.weights_mb", normals * 8 / 1e6)


def _count_jacobian(tracer, args, result):
    """Flops of the tangent GEMMs: a basis of N_{l0} columns pushed to layer l."""
    dims = args["params"].layer_dims
    l0, l = args["l0"], args["l"]
    if not args.get("profile", False) and l == l0 + 1:
        return  # one-step path: elementwise, no tangent product
    flops = sum(2 * dims[m + 1] * dims[m] * dims[l0] for m in range(l0, l))
    tracer.add("ensemble.tangent_gflop", flops / 1e9)


def _count_trace(tracer, args, result):
    tracer.add("meanfield.trace_layers", args["depth"])


def _count_fixed_point(tracer, args, result):
    tracer.add("critical.fixed_point_iterations", result.iterations)


def _count_grid(tracer, args, result):
    tracer.add("analysis.grid_cells", result.chi.size)


_OUT_FLAGS = ("-o", "--out", "--series-out")


def _count_cli(tracer, args, result):
    argv = list(args["argv"] or [])
    for flag, value in zip(argv, argv[1:]):
        if flag in _OUT_FLAGS and os.path.isfile(value):
            tracer.add("cli.bytes_out", os.path.getsize(value))


#: (module, public name or Class.attr, metric prefix, counter or None).
#: ``Activation.eval`` called by the quadrature oracle is the oracle's
#: integrand, so it is left inside the quadrature span (see QUIET_UNDER).
SPANS = [
    ("activations", "Activation.eval", "activations.eval", None),
    ("activations", "moment_closed", "activations.moment_closed", None),
    ("activations", "moment_quadrature", "activations.moment_quadrature", None),
    ("meanfield", "trace", "meanfield.trace", _count_trace),
    ("meanfield", "kernel_step", "meanfield.kernel_step", None),
    ("meanfield", "chi_jacobian", "meanfield.chi_jacobian", None),
    ("critical", "find_fixed_point", "critical.find_fixed_point", _count_fixed_point),
    ("critical", "critical_line", "critical.critical_line", None),
    ("critical", "critical_point", "critical.critical_point", None),
    ("analysis", "phase_grid", "analysis.phase_grid", _count_grid),
    ("analysis", "fit_power_law", "analysis.fit", None),
    ("analysis", "fit_exponential", "analysis.fit", None),
    ("ensemble", "NetworkParams.draw", "ensemble.draw", _count_draw),
    ("ensemble", "partial_jacobian_norm", "ensemble.jacobian", _count_jacobian),
    ("ensemble", "empirical_ntk", "ensemble.ntk", None),
    ("ensemble", "empirical_chi", "ensemble.driver", None),
    ("ensemble", "jacobian_profile", "ensemble.driver", None),
    ("ensemble", "resolve_input", "ensemble.resolve_input", None),
    ("cli", "main", "cli.main", _count_cli),
]

#: Span name -> enclosing span under which it records no span of its own.
QUIET_UNDER = {"activations.eval": "activations.moment_quadrature"}

#: Span names whose self time is reported, plus the round root, whose self
#: time is the benchmark's own glue between library calls.
SPAN_NAMES = sorted({name for _, _, name, _ in SPANS} | {"bench.glue"})


#: Computed work counts and their units.
COMPUTED = {
    "ensemble.normals_drawn": "count",
    "ensemble.tangent_gflop": "GFLOP",
    "meanfield.trace_layers": "count",
    "critical.fixed_point_iterations": "count",
    "analysis.grid_cells": "count",
    "cli.bytes_out": "B",
}


def layer_metrics(tracer: Tracer, traced_walls: list, plain_walls: list) -> dict:
    """Per-layer metrics, per traced round: name -> (value, unit).

    Self times and counts are totals over the traced rounds divided by
    their number.  ``bench.trace_overhead_s`` is the median traced round
    wall minus the median untraced one.
    """
    n = len(traced_walls)
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}_s"] = (tracer.self_s.get(name, 0.0) / n, "s")
    for name in SPAN_NAMES:
        if name != "bench.glue":
            out[f"{name}_calls"] = (tracer.calls.get(name, 0) / n, "count")
    for name, unit in COMPUTED.items():
        out[name] = (tracer.counts.get(name, 0) / n, unit)
    out["ensemble.weights_mb"] = (tracer.peaks.get("ensemble.weights_mb", 0.0), "MB")
    jac_s = out["ensemble.jacobian_s"][0]
    gflop = out["ensemble.tangent_gflop"][0]
    out["ensemble.tangent_gflops"] = (gflop / jac_s if jac_s > 0 else 0.0, "GFLOP/s")
    out["bench.traced_wall_s"] = (sum(traced_walls) / n, "s")
    out["bench.trace_overhead_s"] = (
        statistics.median(traced_walls) - statistics.median(plain_walls), "s")
    return out


def _wrap(tracer: Tracer, name: str, fn, counter):
    signature = inspect.signature(fn) if counter else None
    quiet_under = QUIET_UNDER.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if quiet_under is not None and tracer.current() == quiet_under:
            return fn(*args, **kwargs)
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if counter is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            counter(tracer, bound.arguments, result)
        return result

    return wrapper


def install(tracer: Tracer, spans=SPANS) -> Callable[[], None]:
    """Wrap every listed function; returns a callable that restores them."""
    undo = []
    loaded = [m for n, m in list(sys.modules.items())
              if n == "jacprop" or n.startswith("jacprop.")]
    for module_name, qualname, name, counter in spans:
        module = importlib.import_module("jacprop." + module_name)
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(_wrap(tracer, name, raw.__func__, counter))
            else:
                new = _wrap(tracer, name, raw, counter)
            setattr(cls, attr, new)
            undo.append((cls, attr, raw))
            continue
        original = getattr(module, qualname)
        wrapper = _wrap(tracer, name, original, counter)
        for mod in loaded:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    undo.append((mod, key, original))

    def restore() -> None:
        for target, key, value in reversed(undo):
            setattr(target, key, value)

    return restore
