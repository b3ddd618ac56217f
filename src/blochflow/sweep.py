"""Parameter sweeps producing phase-diagram grids.

A sweep varies one or two of the model parameters (R, r, c) over uniform
axes and records per cell either an invariant value or an explicit status
tag; no cell is ever silently dropped.  Cells whose minimum gap
``gap_min`` is below ``GAPLESS_THRESHOLD`` are tagged "gapless" (the Chern
number is ill-defined across a band touching); cells where the census
refuses (c = 0, c = c_p or c_f exactly, a float Jacobian that does not
show a zero's exact kind, a root pair that the float cubic misses) are
tagged "degenerate".  The threshold bounds the gap |h| itself, in
parameter units, not a distance in c to a closing, and unlike
``EPS_GAP_CHERN`` it is absolute, not relative to R; it stays so until the
benchmark's reference changes with it.  A cell places c once, exactly,
with the cubic's roots (``model._placed``).  A Chern cell reads C from that
phase behind its gap gate (``chern._chern_preimages``) and is also
"gapless" where gap / R <= ``EPS_GAP_CHERN``.  An Euler cell is the index
sum of the census kernel's exact kinds (``zeromode._chi``), no records.
Identical sweep inputs give identical grids; ``cli`` writes them as CSV.
"""

import collections
import itertools
import math

from .chern import _chern_preimages, _gap_min
from .errors import DegenerateField, DegenerateZero, GaplessModel, NonIsolatedZero
from .model import ModelParams, _Checked, _placed
from .zeromode import _chi

GAPLESS_THRESHOLD = 1e-3

STATUS_OK = "ok"
STATUS_GAPLESS = "gapless"
STATUS_DEGENERATE = "degenerate"

_AXIS_NAMES = ("R", "r", "c")


class SweepAxis(_Checked, collections.namedtuple("SweepAxis", "name start stop steps")):
    """One uniform sweep axis: ``steps`` values of parameter ``name`` from start to stop.

    An immutable named tuple: construction, ``_make``, ``_replace`` and
    unpickling (pickle protocol 2 and up) all check the name, the bounds
    and the step count, an integer of at least 1.
    """

    __slots__ = ()

    def __new__(cls, name: str, start: float, stop: float, steps: int):
        if name not in _AXIS_NAMES:
            raise ValueError(f"axis name must be one of {_AXIS_NAMES}, got {name!r}")
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ValueError(f"axis bounds must be finite, got [{start}, {stop}]")
        if not hasattr(steps, "__index__"):
            raise ValueError(f"axis steps must be an integer, got {steps!r}")
        if steps < 1:
            raise ValueError(f"axis needs steps >= 1, got {steps}")
        if not start < stop:
            raise ValueError(f"axis needs start < stop, got [{start}, {stop}]")
        return super().__new__(cls, name, start, stop, steps)

    def values(self) -> list:
        """``steps`` evenly spaced values from start to stop, bit for bit those of np.linspace."""
        n = self.steps - 1
        if n == 0:
            return [self.start + 0.0]  # -0.0 becomes 0.0, as in np.linspace
        delta = self.stop - self.start
        step = delta / n
        if step == 0.0:  # a subnormal width: np.linspace scales before it multiplies
            return [self.start + i / n * delta for i in range(n)] + [self.stop]
        return [self.start + i * step for i in range(n)] + [self.stop]


# chern and chi are None where the cell's quantity is the other one or status is not "ok"
SweepCell = collections.namedtuple("SweepCell", "params chern chi gap_min status")
PhaseDiagramGrid = collections.namedtuple("PhaseDiagramGrid", "cells")


def _cell_param_sets(axes, base: ModelParams):
    """All parameter combinations in axis order; rejects invalid cells up front."""
    axes = tuple(axes)
    if not 1 <= len(axes) <= 2:
        raise ValueError(f"sweeps take 1 or 2 axes, got {len(axes)}")
    names = [ax.name for ax in axes]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate sweep axis {names}")
    slots = [_AXIS_NAMES.index(name) for name in names]
    vals = list(base)  # [R, r, c], the swept slots overwritten per cell
    out = []
    for combo in itertools.product(*(ax.values() for ax in axes)):
        for i, value in zip(slots, combo):
            vals[i] = value
        try:
            out.append(ModelParams(*vals))
        except ValueError as e:
            raise ValueError(f"sweep axis produces invalid parameters {dict(zip(_AXIS_NAMES, vals))}: {e}") from e
    return out


def _sweep(axes, base: ModelParams, invariant) -> PhaseDiagramGrid:
    """One cell per parameter set; ``invariant(params, gap_min, phase, roots)`` returns (chern, chi)."""
    cells = []
    for params in _cell_param_sets(axes, base):
        phase, roots = _placed(params)
        g = _gap_min(params, roots)
        chern = chi = None
        status = STATUS_GAPLESS
        if not g < GAPLESS_THRESHOLD:
            try:
                chern, chi = invariant(params, g, phase, roots)
                status = STATUS_OK
            except GaplessModel:
                pass  # too close to a band touching for the invariant to be defined
            except (DegenerateField, DegenerateZero, NonIsolatedZero):
                status = STATUS_DEGENERATE
        cells.append(SweepCell(params, chern, chi, g, status))
    return PhaseDiagramGrid(tuple(cells))


def sweep_chern(axes, base: ModelParams) -> PhaseDiagramGrid:
    """Chern number per cell, 1 between the closings and 0 outside, behind the gap gate; gapless cells tagged."""
    return _sweep(axes, base, lambda p, g, phase, roots: (_chern_preimages(p, g, phase), None))


def sweep_euler(axes, base: ModelParams) -> PhaseDiagramGrid:
    """Euler characteristic per cell, the census kernel's index sum; degenerate/gapless cells carry tags."""
    return _sweep(axes, base, lambda p, g, phase, roots: (None, _chi(p, phase, roots)))
