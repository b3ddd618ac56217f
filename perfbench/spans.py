"""Timing spans around blochflow's public functions, installed from outside.

``install`` wraps every public function a blochflow module defines and
rebinds the wrapper at every place the function's name is bound, so
``chern.bloch_components`` and ``model.bloch_components`` both record
spans under ``model.bloch_components``.  Spans stay in memory as flat
arrays (name, start, end, parent); ``summary`` turns them into calls and
self time per function, self time being a span's duration minus the
time its child spans cover.  A few wrappers also count the work a call
did (points evaluated, grid nodes, sweep cells, ...).
"""

from __future__ import annotations

import inspect
import sys
from array import array
from time import perf_counter


def _points(args, kwargs, result):
    """Points evaluated by a kernel taking (kx, ky, p)."""
    return {"points": max(getattr(args[0], "size", 1), getattr(args[1], "size", 1))}


def _plaquette_nodes(args, kwargs, result):
    n = args[1] if len(args) > 1 else kwargs.get("n", 64)
    nodes, m = 0, n
    while m <= result.grid_n:
        nodes, m = nodes + m * m, m * 2
    return {"nodes": nodes}


def _sweep_cells(args, kwargs, result):
    out = {"cells": len(result.cells)}
    for cell in result.cells:
        key = f"cells_{cell.status}"
        out[key] = out.get(key, 0) + 1
    return out


# Counters recorded on return, keyed by the function's layer-qualified name.
COUNTERS = {
    "model.bloch_components": _points,
    "field.velocity_and_gap": _points,
    "field.jacobian_components": _points,
    "chern.chern_plaquette": _plaquette_nodes,
    "zeromode.euler_characteristic": lambda a, k, res: {"modes": len(res.modes)},
    "winding.winding_hermitian": lambda a, k, res: {"samples": res.samples},
    "sweep.sweep_chern": _sweep_cells,
    "sweep.sweep_euler": _sweep_cells,
}


def _tell(fh):
    try:
        return fh.tell()
    except (OSError, ValueError):
        return None


class Tracer:
    """In-memory span store for one process."""

    def __init__(self):
        self.names: list = []
        self.name_of = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list = []
        self.counts: dict = {}

    def _count(self, name, values):
        for key, v in values.items():
            full = f"{name}.{key}"
            self.counts[full] = self.counts.get(full, 0) + v

    def wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)
        bytes_written = name == "model.write_surface_csv"
        stack, name_of, parent, start, end = self.stack, self.name_of, self.parent, self.start, self.end

        def traced(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            pos = _tell(args[2]) if bytes_written else None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if counter is not None:
                self._count(name, counter(args, kwargs, result))
            if pos is not None:
                after = _tell(args[2])
                if after is not None:
                    self._count(name, {"bytes": after - pos})
            return result

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict:
        """Per-function calls and self seconds, plus the counters."""
        import numpy as np

        names = np.frombuffer(self.name_of, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has = parent >= 0
        covered = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        self_s = np.bincount(names, weights=dur - covered, minlength=k)
        funcs = {n: {"calls": int(calls[i]), "self_s": float(self_s[i])} for i, n in enumerate(self.names) if calls[i]}
        return {"functions": funcs, "counts": self.counts}


def install(package: str = "blochflow") -> Tracer:
    """Wrap the public functions of every loaded ``package`` module."""
    tracer = Tracer()
    modules = {n: m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")}
    wrappers = {}
    for modname, mod in sorted(modules.items()):
        layer = modname.rpartition(".")[2]
        for attr, value in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(value) or value.__module__ != modname:
                continue
            wrappers[id(value)] = (value, tracer.wrap(f"{layer}.{attr}", value))
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
    return tracer
