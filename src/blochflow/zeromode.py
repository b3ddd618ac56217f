"""Zero modes of the velocity field and their index-sum invariant.

The zeros are known in closed form.  Since vx = -c rho sin kx / |h|, every
zero lies on kx in {0, pi}.  Four are fixed, at ky in {0, pi}; the others
are (pi, -+arccos u) for each root u in (-1, 1) of the cubic that
``gap_min`` also solves.  Within ``BIFURCATION_MARGIN`` R of the pitchfork
c_p or the fold c_f (``zero_bifurcations``), where the count changes, the
census raises NonIsolatedZero.  All zeros are then classified in one
array pass over their velocity Jacobian, the closed-form Hessian of |h|:
negative determinant is a saddle (index -1); positive determinant is a
sink or source depending on the trace sign (index +1).

The sum of the indexes is the Euler characteristic of the image surface:
0 for every gapped, nondegenerate parameter set of the torus model,
independent of where the individual zeros sit or how many there are.
The census returns its zeros at exact machine values, with kx in
{-pi, 0} and ky in [-pi, pi), so a zero lies on the edge of the closed
zone [-pi, pi]^2 exactly when a coordinate equals -pi.  For the
closed-zone listing such a zero is repeated at +pi on that axis, and
each of its n copies (2 on an edge, 4 at a corner) gets weight 1/n.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction

import numpy as np

from .errors import DegenerateField, DegenerateZero, GaplessModel, NonIsolatedZero
from .field import EPS_GAP, hessian
from .model import TWO_PI, KPoint, ModelParams, _kx_pi_roots, reduce_angle

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


class WeightMode(Enum):
    CLOSED_BZ = "closed_bz"
    CANONICAL_CELL = "canonical_cell"


@dataclass(frozen=True, eq=False)
class ZeroMode:
    """A located, classified zero of the velocity field."""

    location: KPoint
    det: float
    trace: float
    kind: ZeroKind
    weight: Fraction

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


def zero_bifurcations(R: float, r: float) -> tuple:
    """The two axis shifts where the zero count changes: (c_p, c_f).

    On kx = pi the zeros off ky in {0, pi} solve g(u) = c, with
    g(u) = rho (1 - (r/R) u) and u = cos ky.  Since g(-1) = g(1) = c_p, a
    zero pair splits off each of (pi, 0) and (pi, pi) at the pitchfork c_p;
    the pairs merge again at the fold c_f, the maximum of g at u = -r/(3R).
    """
    return (R * R - r * r) / R, (R * R + r * r / 3.0) ** 1.5 / (R * R)


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
    points += [(-math.pi, s * float(ky)) for ky in np.arccos(_kx_pi_roots(p)) for s in (-1.0, 1.0)]
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


def _edge_positions(x: float):
    """Closed-zone representatives of one census coordinate (two on the -pi edge)."""
    return (x, x + TWO_PI) if x == -math.pi else (x,)


def _closed_zone_copies(modes):
    """Every closed-zone representative of the canonical modes, weighted, sorted by location."""
    copies = []
    for z in modes:
        xs = _edge_positions(z.location.kx)
        ys = _edge_positions(z.location.ky)
        weight = Fraction(1, len(xs) * len(ys))
        copies += [replace(z, location=KPoint(x, y), weight=weight) for x in xs for y in ys]
    copies.sort(key=lambda z: (z.location.kx, z.location.ky))
    return copies


def euler_characteristic(p: ModelParams, weight_mode: WeightMode = WeightMode.CLOSED_BZ) -> EulerResult:
    """Locate, validate and classify every zero; chi is their index sum (Poincare-Hopf).

    ``modes`` has one ZeroMode per canonical zero (CANONICAL_CELL) or
    every closed-zone representative with fractional edge and corner
    weights (CLOSED_BZ), sorted by location; in either bookkeeping the sum
    of weight * index equals ``chi``.

    Raises DegenerateField when c is (numerically) zero, GaplessModel when
    the gap closes at a fixed zero, DegenerateZero for a Jacobian
    determinant below threshold, NonIsolatedZero near a bifurcation or
    when two distinct zeros crowd each other.
    """
    kx, ky = np.array(_closed_form_census(p)).T
    hxx, hxy, hyy = hessian(kx, ky, p)
    det, trace = hxx * hyy - hxy * hxy, hxx + hyy
    modes = [
        ZeroMode(KPoint(x, y), d, t, classify(d, t, p.R), Fraction(1))
        for x, y, d, t in zip(kx.tolist(), ky.tolist(), det.tolist(), trace.tolist())
    ]
    chi = sum(z.index for z in modes)
    return EulerResult(chi, modes if weight_mode is WeightMode.CANONICAL_CELL else _closed_zone_copies(modes))


def zero_modes_json(modes) -> str:
    """JSON array serialization of a mode list (the `zeros` output schema)."""
    records = [
        {
            "kx": z.location.kx,
            "ky": z.location.ky,
            "det": z.det,
            "trace": z.trace,
            "index": z.index,
            "kind": z.kind.value,
            "weight_num": z.weight.numerator,
            "weight_den": z.weight.denominator,
        }
        for z in modes
    ]
    return json.dumps(records, indent=2)
