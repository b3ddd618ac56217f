"""Zero modes of the velocity field and their index-sum invariant.

The zeros are known in closed form.  Since vx = -c rho sin kx / |h|, every
zero lies on kx in {0, pi}.  Four are fixed, at ky in {0, pi}; the others
are (pi, -+arccos u) for each root u in (-1, 1) of the cubic that
``gap_min`` also solves.  Within ``BIFURCATION_MARGIN`` of the pitchfork
c_p or the fold c_f (``zero_bifurcations``), where the count changes, the
census raises NonIsolatedZero.  Every zero is then classified by its
velocity Jacobian, the closed-form Hessian of |h|: negative determinant
is a saddle (index -1); positive determinant is a sink or source
depending on the trace sign (index +1).

A zero on the edge of the closed zone [-pi, pi]^2 is shared between two
copies of the zone and is counted with weight 1/2 (1/4 at the corners,
shared between four copies).  The weighted index sum, accumulated in
exact rational arithmetic, is the Euler characteristic of the image
surface: 0 for every gapped, nondegenerate parameter set of the torus
model, independent of where the individual zeros sit or how many there
are.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .errors import (
    DegenerateField,
    DegenerateZero,
    GaplessModel,
    NonIntegralSum,
    NonIsolatedZero,
)
from .field import EPS_GAP, Jacobian2, velocity_jacobian
from .model import TWO_PI, KPoint, ModelParams, _kx_pi_cubic, reduce_angle

# Within this distance in c of a bifurcation, where zeros are born or merge,
# the census raises instead of returning nearly singular Jacobians.
BIFURCATION_MARGIN = 1e-5
ISOLATION_RADIUS = 1e-3
DET_EPS = 1e-8
C_DEGENERATE = 1e-6
EDGE_TOL = 1e-7


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
    jac: Jacobian2
    det: float
    trace: float
    index: int
    kind: ZeroKind
    weight: Fraction


@dataclass(frozen=True, eq=False)
class EulerResult:
    chi: int
    modes: list
    weight_mode: WeightMode


def torus_distance(ax, ay, bx, by):
    """Distance on the 2-torus: componentwise wrapped differences."""
    return np.hypot(reduce_angle(ax - bx), reduce_angle(ay - by))


def index_from_det(det: float) -> int:
    """Index of a nondegenerate zero: sign of the Jacobian determinant."""
    if abs(det) <= DET_EPS:
        raise DegenerateZero(f"|det J| = {abs(det):.3e} <= {DET_EPS:.1e}")
    return 1 if det > 0.0 else -1


def classify(j: Jacobian2) -> ZeroKind:
    """Saddle for det < 0; sink/source for det > 0 by the trace sign."""
    det = j.det
    if abs(det) <= DET_EPS:
        raise DegenerateZero(f"|det J| = {abs(det):.3e} <= {DET_EPS:.1e}")
    if det < 0.0:
        return ZeroKind.SADDLE
    return ZeroKind.SINK if j.trace < 0.0 else ZeroKind.SOURCE


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
    if p.c <= C_DEGENERATE:
        raise DegenerateField(
            f"axis shift c = {p.c} makes the kx-velocity vanish identically: "
            "the zero set consists of curves, not isolated points"
        )
    # |h| at (pi, pi) and (pi, 0), the only points where the gap can close
    gap = min(abs(p.c - (p.R - p.r)), abs(p.c - (p.R + p.r)))
    if gap <= EPS_GAP:
        raise GaplessModel(f"band gap closes at a fixed zero (|h| = {gap:.3e}); the velocity is undefined there")
    c_p, c_f = zero_bifurcations(p.R, p.r)
    if min(abs(p.c - c_p), abs(p.c - c_f)) <= BIFURCATION_MARGIN:
        raise NonIsolatedZero(
            f"c = {p.c} is within {BIFURCATION_MARGIN:.0e} of the pitchfork c_p = {c_p} or the fold "
            f"c_f = {c_f}, where zeros on kx = pi are born or merge"
        )
    cubic = _kx_pi_cubic(p)
    u = np.roots(cubic)
    u = u.real[u.imag == 0.0]
    u = u - np.polyval(cubic, u) / np.polyval(np.polyder(cubic), u)  # one Newton step polishes each root
    points = [(-math.pi, -math.pi), (-math.pi, 0.0), (0.0, -math.pi), (0.0, 0.0)]
    points += [(-math.pi, s * float(ky)) for ky in np.arccos(u[np.abs(u) < 1.0]) for s in (-1.0, 1.0)]
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
    """Closed-zone representatives of one coordinate (two when on an edge)."""
    if min(x + math.pi, math.pi - x) < EDGE_TOL:
        low = x if x < 0.0 else x - TWO_PI
        return (low, low + TWO_PI)
    return (x,)


def _expand_modes(canonical, weight_mode: WeightMode):
    """Build ZeroMode entries for the requested weight bookkeeping."""
    modes = []
    for kx, ky, jac in canonical:
        det = jac.det
        trace = jac.trace
        index = index_from_det(det)
        kind = classify(jac)
        if weight_mode is WeightMode.CANONICAL_CELL:
            modes.append(
                ZeroMode(KPoint(kx, ky), jac, det, trace, index, kind, Fraction(1))
            )
            continue
        xs = _edge_positions(kx)
        ys = _edge_positions(ky)
        weight = Fraction(1, len(xs) * len(ys))
        for x in xs:
            for y in ys:
                modes.append(
                    ZeroMode(KPoint(x, y), jac, det, trace, index, kind, weight)
                )
    modes.sort(key=lambda z: (z.location.kx, z.location.ky))
    return modes


def find_zero_modes(p: ModelParams, weight_mode: WeightMode = WeightMode.CLOSED_BZ) -> list:
    """Locate, validate and classify every zero of the velocity field.

    Returns ZeroMode entries either one-per-canonical-zero (CANONICAL_CELL)
    or expanded to all closed-zone representatives with fractional edge and
    corner weights (CLOSED_BZ), sorted by location.

    Raises DegenerateField when c is (numerically) zero, GaplessModel when
    the gap closes at a fixed zero, DegenerateZero for a Jacobian
    determinant below threshold, NonIsolatedZero near a bifurcation or
    when two distinct zeros crowd each other.
    """
    canonical = [(kx, ky, velocity_jacobian(KPoint(kx, ky), p)) for kx, ky in _closed_form_census(p)]
    return _expand_modes(canonical, weight_mode)


def weighted_index_sum(modes) -> Fraction:
    """Exact rational sum of weight * index over a mode list."""
    return sum((z.weight * z.index for z in modes), Fraction(0))


def integral_chi(total: Fraction) -> int:
    """Collapse a weighted index sum to an integer chi, or raise NonIntegralSum."""
    if total.denominator != 1:
        raise NonIntegralSum(
            f"weighted index sum {total} is not an integer; "
            "a zero was missed or double counted"
        )
    return int(total)


def euler_characteristic(p: ModelParams, weight_mode: WeightMode = WeightMode.CLOSED_BZ) -> EulerResult:
    """Euler characteristic as the weighted index sum over all zero modes.

    The sum is accumulated as an exact rational and must be an integer,
    otherwise the census is inconsistent (a missed or spurious zero) and
    NonIntegralSum is raised.
    """
    modes = find_zero_modes(p, weight_mode)
    return EulerResult(integral_chi(weighted_index_sum(modes)), modes, weight_mode)


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
