"""Zero modes of the velocity field and their index-sum invariant.

The zeros are known in closed form.  Since vx = -c rho sin kx / |h|, every
zero lies on kx in {0, pi}.  Four are fixed, at ky in {0, pi}; the others
are (pi, -+arccos u) for each root u in (-1, 1) of the cubic that
``gap_min`` also solves (``model._kx_pi_roots``).  Within
``BIFURCATION_MARGIN`` R of the pitchfork c_p or the fold c_f
(``model.zero_bifurcations``), where the count changes, the census raises
NonIsolatedZero.  All zeros are then classified in one
array pass over their velocity Jacobian, the closed-form Hessian of |h|:
negative determinant is a saddle (index -1); positive determinant is a
sink or source depending on the trace sign (index +1).

The sum of the indexes is the Euler characteristic of the image surface:
0 for every gapped, nondegenerate parameter set of the torus model,
independent of where the individual zeros sit or how many there are.
The census returns each zero once, at exact machine values, with kx in
{-pi, 0} and ky in [-pi, pi).  So a zero lies on the edge of the closed
zone [-pi, pi]^2 exactly when a coordinate equals -pi.  The `zeros`
output lists the closed zone instead (``closed_zone_records``, whose
length `euler` reports as ``zero_modes``): there such a zero is repeated
at +pi on that axis, and each of its n copies (2 on an edge, 4 at a
corner) gets weight 1/n, so the weighted index sum is the same chi.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateField, DegenerateZero, GaplessModel, NonIsolatedZero
from .field import EPS_GAP, hessian
from .model import TWO_PI, KPoint, ModelParams, _kx_pi_roots, reduce_angle, zero_bifurcations

# The model is scale-covariant: scaling R, r and c by s scales h and c by s
# and the Jacobian determinant by s^2, and leaves the zeros and their kinds
# unchanged.  So the census thresholds bound scale-free quantities: c / R,
# the fixed-zero gap / R, the distance in c to a bifurcation / R and
# det J / R^2.  ISOLATION_RADIUS is a distance in k, scale-free already.
# Within BIFURCATION_MARGIN R of a bifurcation, where zeros are born or
# merge, the census raises instead of returning nearly singular Jacobians.
BIFURCATION_MARGIN = 1e-5
ISOLATION_RADIUS = 1e-3
DET_EPS = 1e-8
C_DEGENERATE = 1e-6


class ZeroKind(Enum):
    SINK = "sink"
    SOURCE = "source"
    SADDLE = "saddle"


@dataclass(frozen=True, eq=False)
class ZeroMode:
    """A located, classified zero of the velocity field."""

    location: KPoint
    det: float
    trace: float
    kind: ZeroKind

    @property
    def index(self) -> int:
        """Poincare index: -1 for a saddle, +1 for a sink or source."""
        return -1 if self.kind is ZeroKind.SADDLE else 1


@dataclass(frozen=True, eq=False)
class EulerResult:
    chi: int
    modes: list


def torus_distance(ax, ay, bx, by):
    """Distance on the 2-torus: componentwise wrapped differences."""
    return np.hypot(reduce_angle(ax - bx), reduce_angle(ay - by))


def classify(det: float, trace: float, R: float) -> ZeroKind:
    """Saddle for det < 0; sink/source for det > 0 by the trace sign.

    Raises DegenerateZero when |det| / R^2 <= DET_EPS, R being the major
    radius of the model that the Jacobian belongs to.
    """
    if abs(det) / (R * R) <= DET_EPS:
        raise DegenerateZero(f"|det J| = {abs(det):.3e} <= {DET_EPS * R * R:.1e}")
    if det < 0.0:
        return ZeroKind.SADDLE
    return ZeroKind.SINK if trace < 0.0 else ZeroKind.SOURCE


def _closed_form_census(p: ModelParams):
    """Canonical zero locations, sorted: the four fixed zeros and the cubic's."""
    if p.c == 0.0:
        raise DegenerateField(
            f"axis shift c = {p.c} makes the kx-velocity vanish identically: "
            "the zero set consists of curves, not isolated points"
        )
    if p.c / p.R <= C_DEGENERATE:
        raise DegenerateField(
            f"axis shift c / R = {p.c / p.R:.3e} <= {C_DEGENERATE:.0e}: the kx-velocity, "
            "proportional to c, is too weak to isolate and classify the zeros"
        )
    # |h| at (pi, pi) and (pi, 0), the only points where the gap can close
    gap = min(abs(p.c - (p.R - p.r)), abs(p.c - (p.R + p.r)))
    if gap / p.R <= EPS_GAP:
        raise GaplessModel(f"band gap closes at a fixed zero (|h| = {gap:.3e}); the velocity is undefined there")
    c_p, c_f = zero_bifurcations(p.R, p.r)
    if min(abs(p.c - c_p), abs(p.c - c_f)) / p.R <= BIFURCATION_MARGIN:
        raise NonIsolatedZero(
            f"c = {p.c} is within {BIFURCATION_MARGIN:.0e} R of the pitchfork c_p = {c_p} or the fold "
            f"c_f = {c_f}, where zeros on kx = pi are born or merge"
        )
    points = [(-math.pi, -math.pi), (-math.pi, 0.0), (0.0, -math.pi), (0.0, 0.0)]
    points += [(-math.pi, s * math.acos(u)) for u in _kx_pi_roots(p) for s in (-1.0, 1.0)]
    _check_isolated(*zip(*points))
    return sorted(points)


def _check_isolated(reps_x, reps_y):
    """Raise NonIsolatedZero for the first pair i < j closer than ISOLATION_RADIUS.

    Distinct zeros must stay well separated for the index sum to be
    meaningful.
    """
    rx, ry = np.array(reps_x), np.array(reps_y)
    d = torus_distance(rx[:, None], ry[:, None], rx[None, :], ry[None, :])
    crowded = np.argwhere(np.triu(d < ISOLATION_RADIUS, k=1))
    if crowded.size:
        i, j = crowded[0]
        raise NonIsolatedZero(
            f"zeros at ({reps_x[i]:.6g}, {reps_y[i]:.6g}) and "
            f"({reps_x[j]:.6g}, {reps_y[j]:.6g}) are only {float(d[i, j]):.3e} apart"
        )


def euler_characteristic(p: ModelParams) -> EulerResult:
    """Locate, validate and classify every zero; chi is their index sum (Poincare-Hopf).

    ``modes`` has one ZeroMode per canonical zero, sorted by location.

    Raises DegenerateField when c is (numerically) zero, GaplessModel when
    the gap closes at a fixed zero, DegenerateZero for a Jacobian
    determinant below threshold, NonIsolatedZero near a bifurcation or
    when two distinct zeros crowd each other.
    """
    kx, ky = np.array(_closed_form_census(p)).T
    hxx, hxy, hyy = hessian(kx, ky, p)
    det, trace = hxx * hyy - hxy * hxy, hxx + hyy
    modes = [
        ZeroMode(KPoint(x, y), d, t, classify(d, t, p.R))
        for x, y, d, t in zip(kx.tolist(), ky.tolist(), det.tolist(), trace.tolist())
    ]
    return EulerResult(sum(z.index for z in modes), modes)


def _edge_positions(x: float):
    """Closed-zone representatives of one census coordinate (two on the -pi edge)."""
    return (x, x + TWO_PI) if x == -math.pi else (x,)


def closed_zone_records(modes) -> list:
    """The `zeros` records: every closed-zone copy of the canonical modes, sorted by location.

    A zero with n copies (2 on an edge, 4 at a corner) lists each at
    weight weight_num / weight_den = 1/n, so the weights of one zero sum
    to 1 and the weighted index sum is chi.
    """
    records = []
    for z in modes:
        xs = _edge_positions(z.location.kx)
        ys = _edge_positions(z.location.ky)
        records += [
            {
                "kx": x,
                "ky": y,
                "det": z.det,
                "trace": z.trace,
                "index": z.index,
                "kind": z.kind.value,
                "weight_num": 1,
                "weight_den": len(xs) * len(ys),
            }
            for x in xs
            for y in ys
        ]
    records.sort(key=lambda rec: (rec["kx"], rec["ky"]))
    return records


def zero_modes_json(modes) -> str:
    """JSON array of the closed-zone records of the canonical modes (the `zeros` output schema)."""
    return json.dumps(closed_zone_records(modes), indent=2)
