"""Parameter sweeps producing phase-diagram grids with deterministic output.

A sweep varies one or two of the model parameters (R, r, c) over uniform
axes and records per cell either an invariant value or an explicit status
tag; no cell is ever silently dropped.  Cells closer than
``GAPLESS_THRESHOLD`` to a gap closing are tagged "gapless" (the Chern
number is ill-defined across a band touching); cells whose velocity field
degenerates (c ~ 0, or a degenerate zero) are tagged "degenerate".

File formats:

* CSV with header ``R,r,c,chern,chi,gap_min,status`` (floats written with
  17 significant digits, missing values empty),
* JSON ``{"axes": [...], "cells": [...]}`` that round-trips to an equal
  grid.

Identical sweep inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .chern import chern_plaquette, gap_min
from .errors import (
    DegenerateField,
    DegenerateTriangle,
    DegenerateZero,
    GaplessModel,
    NonIsolatedZero,
)
from .model import ModelParams
from .zeromode import euler_characteristic

GAPLESS_THRESHOLD = 1e-3

STATUS_OK = "ok"
STATUS_GAPLESS = "gapless"
STATUS_DEGENERATE = "degenerate"

_AXIS_NAMES = ("R", "r", "c")


@dataclass(frozen=True)
class SweepAxis:
    name: str
    start: float
    stop: float
    steps: int

    def __post_init__(self):
        if self.name not in _AXIS_NAMES:
            raise ValueError(f"axis name must be one of {_AXIS_NAMES}, got {self.name!r}")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError(f"axis bounds must be finite, got [{self.start}, {self.stop}]")
        if self.steps < 1:
            raise ValueError(f"axis needs steps >= 1, got {self.steps}")
        if not self.start < self.stop:
            raise ValueError(f"axis needs start < stop, got [{self.start}, {self.stop}]")

    def values(self) -> np.ndarray:
        if self.steps == 1:
            return np.array([self.start])
        return np.linspace(self.start, self.stop, self.steps)


@dataclass(frozen=True)
class SweepCell:
    params: ModelParams
    chern: int | None
    chi: int | None
    gap_min: float
    status: str


@dataclass(frozen=True)
class PhaseDiagramGrid:
    axes: tuple
    cells: tuple


def _cell_param_sets(axes, base: ModelParams):
    """All parameter combinations in axis order; rejects invalid cells up front."""
    axes = tuple(axes)
    if not 1 <= len(axes) <= 2:
        raise ValueError(f"sweeps take 1 or 2 axes, got {len(axes)}")
    names = [ax.name for ax in axes]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate sweep axis {names}")
    grids = [ax.values() for ax in axes]
    combos = []
    if len(axes) == 1:
        combos = [(v,) for v in grids[0]]
    else:
        combos = [(u, v) for u in grids[0] for v in grids[1]]
    out = []
    for combo in combos:
        kw = {"R": base.R, "r": base.r, "c": base.c}
        for name, value in zip(names, combo):
            kw[name] = float(value)
        try:
            out.append(ModelParams(**kw))
        except ValueError as e:
            raise ValueError(f"sweep axis produces invalid parameters {kw}: {e}") from e
    return axes, out


def _sweep(axes, base: ModelParams, invariant) -> PhaseDiagramGrid:
    """One cell per parameter set; ``invariant(params)`` returns (chern, chi)."""
    axes, param_sets = _cell_param_sets(axes, base)
    cells = []
    for params in param_sets:
        g = gap_min(params)
        chern = chi = None
        status = STATUS_GAPLESS
        if not g < GAPLESS_THRESHOLD:
            try:
                chern, chi = invariant(params)
                status = STATUS_OK
            except (GaplessModel, DegenerateTriangle):
                pass  # too close to a band touching for the method to resolve
            except (DegenerateField, DegenerateZero, NonIsolatedZero):
                status = STATUS_DEGENERATE
        cells.append(SweepCell(params, chern, chi, g, status))
    return PhaseDiagramGrid(axes, tuple(cells))


def sweep_chern(axes, base: ModelParams) -> PhaseDiagramGrid:
    """Chern number per cell by ``chern_plaquette`` (which picks its own grid); gapless cells tagged."""
    return _sweep(axes, base, lambda p: (chern_plaquette(p).value, None))


def sweep_euler(axes, base: ModelParams) -> PhaseDiagramGrid:
    """Euler characteristic per cell; degenerate/gapless cells carry tags."""
    return _sweep(axes, base, lambda p: (None, euler_characteristic(p).chi))


CSV_HEADER = "R,r,c,chern,chi,gap_min,status"


def _fmt(x: float) -> str:
    return format(x, ".17g")


def grid_to_csv(grid: PhaseDiagramGrid) -> str:
    lines = [CSV_HEADER]
    for cell in grid.cells:
        p = cell.params
        lines.append(
            ",".join(
                (
                    _fmt(p.R),
                    _fmt(p.r),
                    _fmt(p.c),
                    "" if cell.chern is None else str(cell.chern),
                    "" if cell.chi is None else str(cell.chi),
                    _fmt(cell.gap_min),
                    cell.status,
                )
            )
        )
    return "\n".join(lines) + "\n"


def grid_to_json(grid: PhaseDiagramGrid) -> str:
    doc = {
        "axes": [
            {"name": ax.name, "start": ax.start, "stop": ax.stop, "steps": ax.steps}
            for ax in grid.axes
        ],
        "cells": [
            {
                "R": cell.params.R,
                "r": cell.params.r,
                "c": cell.params.c,
                "chern": cell.chern,
                "chi": cell.chi,
                "gap_min": cell.gap_min,
                "status": cell.status,
            }
            for cell in grid.cells
        ],
    }
    return json.dumps(doc, indent=2)


def grid_from_json(text: str) -> PhaseDiagramGrid:
    doc = json.loads(text)
    axes = tuple(
        SweepAxis(ax["name"], ax["start"], ax["stop"], ax["steps"]) for ax in doc["axes"]
    )
    cells = tuple(
        SweepCell(
            ModelParams(c["R"], c["r"], c["c"]),
            c["chern"],
            c["chi"],
            c["gap_min"],
            c["status"],
        )
        for c in doc["cells"]
    )
    return PhaseDiagramGrid(axes, cells)
