"""Span tracing installed from outside the ``steklov`` package.

The tracer rebinds every public function of each layer module in every
``steklov.*`` namespace that holds a reference to it (``coth`` lives in
``hyperbolic`` but is also bound in ``branches`` and ``crossings``), and wraps
the ``SurfaceMesh`` methods and properties on the class, so calls between
layers are seen as nested spans.  Nothing under ``src/`` is edited; the
original bindings are restored when the tracer is removed.

Aggregates (calls, busy time, self time and the per-layer counters) are kept
for every call.  Individual spans ``(id, name, start, end, parent, op_id)``
are kept in memory up to ``SPAN_CAP`` and written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import sys
from collections import defaultdict
from time import perf_counter

# The modules of src/steklov that do work, in pipeline order.  ``exceptions``
# only defines classes and is left out.
LAYERS = (
    "hyperbolic",
    "branches",
    "crossings",
    "extrema",
    "surfaces",
    "mesh",
    "dtn",
    "jacobi",
    "cli",
)

# Spans kept in memory per run; later spans are counted as dropped.
SPAN_CAP = 200_000


class NullTracer:
    """Stand-in used by untraced runs: counting is a no-op."""

    def count(self, name: str, value: float = 1) -> None:
        pass

    def op(self, op_id: int, name: str):
        return _NULL_CONTEXT


class _NullContext:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_CONTEXT = _NullContext()


class _Stat:
    __slots__ = ("calls", "busy", "self_time", "depth")

    def __init__(self):
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.depth = 0  # active frames of this name, so recursion is not double-counted


class Tracer:
    """Records spans at every wrapped layer boundary and per-op root spans."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.counters: dict[str, float] = defaultdict(float)
        self.crossing_keys: set = set()
        self.root_time = 0.0  # summed duration of spans without a parent
        self._stack: list[list] = []  # [span_id, name, start, child_time]
        self._next_id = 0
        self._op_id = -1
        self._restore: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] += value

    def _enter(self, name: str) -> list:
        frame = [self._next_id, name, perf_counter(), 0.0]
        self._next_id += 1
        self.stats[name].depth += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_counter()
        self._stack.pop()
        span_id, name, start, child = frame
        duration = end - start
        stat = self.stats[name]
        stat.depth -= 1
        stat.calls += 1
        stat.self_time += duration - child
        if stat.depth == 0:
            stat.busy += duration
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        else:
            self.root_time += duration
        if len(self.spans) < SPAN_CAP:
            self.spans.append(
                (span_id, name, start, end, parent[0] if parent else None, self._op_id)
            )
        else:
            self.spans_dropped += 1

    def op(self, op_id: int, name: str):
        """Context manager for the root span of one benchmark operation."""
        return _OpSpan(self, op_id, name)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every public layer function and the SurfaceMesh members."""
        originals: dict[int, object] = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"steklov.{layer}")
            except ImportError:  # a later version may delete a layer module
                continue
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not callable(value) or isinstance(value, type):
                    continue
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                originals[id(value)] = (value, self._wrap(name, value, _HOOKS.get(name)))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "steklov" or mod_name.startswith("steklov.")):
                continue
            for attr, value in list(vars(module).items()):
                entry = originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._restore.append((module, attr, value))
        self._wrap_mesh_class()

    def _wrap_mesh_class(self) -> None:
        try:
            mesh_module = importlib.import_module("steklov.mesh")
        except ImportError:
            return
        cls = getattr(mesh_module, "SurfaceMesh", None)
        if cls is None:
            return
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"mesh.{attr}"
            if isinstance(value, property) and value.fget is not None:
                wrapped = property(self._wrap(name, value.fget, None))
            elif callable(value) and not isinstance(value, type):
                wrapped = self._wrap(name, value, None)
            else:
                continue
            setattr(cls, attr, wrapped)
            self._restore.append((cls, attr, value))

    def remove(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _wrap(self, name: str, fn, hook):
        enter, exit_ = self._enter, self._exit
        tracer = self

        if hook is None:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                frame = enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    exit_(frame)

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                frame = enter(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    exit_(frame)
                hook(tracer, args, kwargs, result)
                return result

        return wrapper

    # -- results -------------------------------------------------------------

    def layer_table(self) -> dict[str, dict[str, float]]:
        """calls / busy_s / self_s for every wrapped function that ran."""
        return {
            name: {"calls": st.calls, "busy_s": st.busy, "self_s": st.self_time}
            for name, st in sorted(self.stats.items())
        }

    def write_spans(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["id", "name", "start", "end", "parent", "op_id"],
                    "dropped": self.spans_dropped,
                    "spans": self.spans,
                },
                fh,
            )


class _OpSpan:
    __slots__ = ("tracer", "op_id", "name", "frame", "previous")

    def __init__(self, tracer: Tracer, op_id: int, name: str):
        self.tracer = tracer
        self.op_id = op_id
        self.name = name

    def __enter__(self):
        self.previous = self.tracer._op_id
        self.tracer._op_id = self.op_id
        self.frame = self.tracer._enter(f"op.{self.name}")
        return self

    def __exit__(self, *exc):
        self.tracer._exit(self.frame)
        self.tracer._op_id = self.previous
        return False


# -- per-layer counters, computed from call arguments and results -------------


def _arg(args, kwargs, index: int, name: str):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


def _hyperbolic(tracer, args, kwargs, result):
    x = _arg(args, kwargs, 0, "x")
    if isinstance(x, (float, int)) or getattr(x, "ndim", 1) == 0:
        tracer.counters["hyperbolic.scalar_calls"] += 1
    else:
        tracer.counters["hyperbolic.array_calls"] += 1


def _solve_crossing(tracer, args, kwargs, result):
    tracer.crossing_keys.add((float(_arg(args, kwargs, 0, "a")), float(_arg(args, kwargs, 1, "b"))))


def _spectrum(tracer, args, kwargs, result):
    tracer.counters["branches.spectrum.entries_requested"] += int(_arg(args, kwargs, 2, "count"))


def _sigma_bar_grid(tracer, args, kwargs, result):
    import numpy as np

    tracer.counters["branches.sigma_bar_grid.points"] += int(np.size(_arg(args, kwargs, 2, "T")))


def _critical_set(tracer, args, kwargs, result):
    tracer.counters["extrema.critical_set.records"] += len(result)


def _evaluate(tracer, args, kwargs, result):
    tracer.counters["surfaces.evaluate.points"] += int(result[0].size // result[0].shape[-1])


def _export_mesh(tracer, args, kwargs, result):
    path = _arg(args, kwargs, 4, "path")
    tracer.counters["mesh.export_mesh.bytes_written"] += os.path.getsize(path)


def _assemble_dtn(tracer, args, kwargs, result):
    # bytes of the dense harmonic-extension block U (n_unknown x n_b doubles),
    # computed from the grid, not measured
    p = _arg(args, kwargs, 0, "p")
    n_t, n_theta = p.grid
    if p.kind.value == "annulus":
        n_unknown, n_b = (n_t - 1) * n_theta, 2 * n_theta
    else:
        n_unknown, n_b = n_theta // 2 + (n_t - 1) * n_theta, n_theta
    tracer.counters["dtn.assemble_dtn.bytes_computed"] += 8 * n_unknown * n_b


def _jacobi(tracer, args, kwargs, result):
    tracer.counters["jacobi.jacobi_eigenvalues.matrix_rows"] += len(result)


_HOOKS = {
    "hyperbolic.coth": _hyperbolic,
    "hyperbolic.sech2": _hyperbolic,
    "hyperbolic.csch2": _hyperbolic,
    "hyperbolic.tanh": _hyperbolic,
    "hyperbolic.artanh": _hyperbolic,
    "crossings.solve_crossing": _solve_crossing,
    "branches.spectrum": _spectrum,
    "branches.sigma_bar_grid": _sigma_bar_grid,
    "extrema.critical_set": _critical_set,
    "surfaces.evaluate": _evaluate,
    "mesh.export_mesh": _export_mesh,
    "dtn.assemble_dtn": _assemble_dtn,
    "jacobi.jacobi_eigenvalues": _jacobi,
}


def per_layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Flatten the traced run into the per-layer metric names of BENCHMARK.json."""
    table = tracer.layer_table()
    out: dict[str, float] = {}

    def fn(name, field):
        return table.get(name, {}).get(field, 0)

    covered = 0.0
    for layer in LAYERS:
        prefix = f"{layer}."
        out[f"{layer}.self_s"] = sum(v["self_s"] for k, v in table.items() if k.startswith(prefix))
        out[f"{layer}.calls"] = sum(v["calls"] for k, v in table.items() if k.startswith(prefix))
        covered += out[f"{layer}.self_s"]
    out["uncovered_s"] = wall_s - covered
    out["traced_wall_s"] = wall_s

    for name in (
        "crossings.solve_crossing",
        "branches.spectrum",
        "extrema.critical_set",
        "extrema.grid_supremum",
        "surfaces.verify_identities",
        "surfaces.injectivity_scan",
        "surfaces.q_form_sum",
        "mesh.build_mesh",
        "mesh.export_mesh",
        "mesh.euler_characteristic",
        "mesh.boundary_loops",
        "dtn.assemble_dtn",
        "jacobi.jacobi_eigenvalues",
        "cli.run",
    ):
        out[f"{name}.self_s"] = fn(name, "self_s")
    out["crossings.solve_crossing.calls"] = fn("crossings.solve_crossing", "calls")
    out["jacobi.jacobi_eigenvalues.calls"] = fn("jacobi.jacobi_eigenvalues", "calls")
    calls = out["crossings.solve_crossing.calls"]
    out["crossings.solve_crossing.distinct_ratio"] = (
        len(tracer.crossing_keys) / calls if calls else 0.0
    )
    for name in (
        "hyperbolic.scalar_calls",
        "hyperbolic.array_calls",
        "branches.spectrum.entries_requested",
        "branches.sigma_bar_grid.points",
        "extrema.critical_set.records",
        "surfaces.evaluate.points",
        "mesh.export_mesh.bytes_written",
        "dtn.assemble_dtn.bytes_computed",
        "jacobi.jacobi_eigenvalues.matrix_rows",
        "cli.bytes_emitted",
    ):
        out[name] = tracer.counters.get(name, 0)
    for key, value in out.items():
        if isinstance(value, float) and not math.isfinite(value):  # pragma: no cover
            raise ValueError(f"non-finite per-layer metric {key}")
    return out
