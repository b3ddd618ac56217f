"""Zero modes of the velocity field and their index-sum invariant.

Zeros are located by damped Newton iteration started from every node of a
uniform seed grid, reduced to the fundamental domain, deduplicated with
the torus metric, and validated as nondegenerate and isolated.  A Newton
step that would make |v| grow is halved, and only those seeds are
re-evaluated.  Newton and the classification both use the velocity
Jacobian, which is the closed-form Hessian of |h|: negative determinant
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
from .field import EPS_GAP, Jacobian2, hessian_from_velocity, velocity_and_gap, velocity_jacobian
from .model import TWO_PI, KPoint, ModelParams, reduce_angle

# The census runs in one configuration, the one the tests verify: Newton
# from a 64 x 64 seed grid until |v| (or the Newton step) is at most 1e-12.
SEEDS_PER_AXIS = 64
NEWTON_TOL = 1e-12
MAX_ITER = 50
DEDUP_RADIUS = 1e-6
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
    """A converged, classified zero of the velocity field."""

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


def _newton_census(p: ModelParams):
    """Converged canonical zero locations from a uniform Newton seed grid."""
    ticks = -math.pi + TWO_PI * np.arange(SEEDS_PER_AXIS) / SEEDS_PER_AXIS
    px, py = (g.ravel() for g in np.meshgrid(ticks, ticks, indexing="ij"))

    vx, vy, gap = velocity_and_gap(px, py, p)
    min_gap = float(np.min(gap))
    if min_gap <= EPS_GAP:
        raise GaplessModel(
            f"band gap closes on the seed grid (min |h| = {min_gap:.3e}); "
            "the velocity field is discontinuous there"
        )
    vnorm = np.hypot(vx, vy)
    converged = vnorm <= NEWTON_TOL
    alive = np.isfinite(vnorm)
    active = np.flatnonzero(alive & ~converged)

    for _ in range(MAX_ITER):
        if active.size == 0:
            break
        x, y, va, vb = px[active], py[active], vx[active], vy[active]
        hxx, hxy, hyy = hessian_from_velocity(x, y, va, vb, gap[active], p)
        det = hxx * hyy - hxy * hxy
        ok = np.isfinite(det) & (np.abs(det) > 1e-300)
        with np.errstate(divide="ignore", invalid="ignore"):
            sx = np.where(ok, (hxy * vb - hyy * va) / det, 0.0)
            sy = np.where(ok, (hxy * va - hxx * vb) / det, 0.0)

        # Damped step: halve wherever |v| would grow.  Only those seeds are
        # re-evaluated; one still worse after 12 trials keeps the 12th.
        base = vnorm[active]
        nx, ny, nvx, nvy, ngap, nnorm = (np.empty_like(x) for _ in range(6))
        worse = slice(None)
        for t in range(12):
            nx[worse] = reduce_angle(x[worse] + 0.5**t * sx[worse])
            ny[worse] = reduce_angle(y[worse] + 0.5**t * sy[worse])
            nvx[worse], nvy[worse], ngap[worse] = velocity_and_gap(nx[worse], ny[worse], p)
            nnorm[worse] = np.hypot(nvx[worse], nvy[worse])
            worse = np.flatnonzero(~(nnorm <= base))
            if worse.size == 0:
                break

        px[active], py[active] = nx, ny
        vx[active], vy[active], gap[active] = nvx, nvy, ngap
        vnorm[active] = nnorm
        dead = ~np.isfinite(nnorm) | (ngap <= EPS_GAP) | ~ok
        alive[active[dead]] = False
        # A Newton step within NEWTON_TOL also counts: next to a gap closing
        # the rounding floor of |v| (about eps rho c / |h|) can stay above it.
        done = (nnorm <= NEWTON_TOL) | (np.hypot(sx, sy) <= NEWTON_TOL)
        converged[active[done]] = True
        active = active[~dead & ~done]

    keep = converged & alive
    cx = reduce_angle(px[keep])
    cy = reduce_angle(py[keep])
    cn = vnorm[keep]

    reps_x, reps_y = _dedup(cx, cy, cn)
    _check_isolated(reps_x, reps_y)
    return sorted(zip(reps_x, reps_y))


def _dedup(cx, cy, cn):
    """Distinct points of a converged cloud, best |v| first.

    Each pass keeps the best remaining point and drops every remaining
    point within DEDUP_RADIUS of it, so the loop runs once per distinct
    zero.  Returns the kept coordinates in the order they were kept.
    """
    order = np.argsort(cn, kind="stable")
    cx, cy = cx[order], cy[order]
    reps_x: list[float] = []
    reps_y: list[float] = []
    while cx.size:
        x, y = float(cx[0]), float(cy[0])
        reps_x.append(x)
        reps_y.append(y)
        far = ~(torus_distance(x, y, cx, cy) < DEDUP_RADIUS)
        cx, cy = cx[far], cy[far]
    return reps_x, reps_y


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


def _canonical_census(p: ModelParams):
    """Canonical zeros with their Jacobians, after all validity checks."""
    if p.c <= C_DEGENERATE:
        raise DegenerateField(
            f"axis shift c = {p.c} makes the kx-velocity vanish identically: "
            "the zero set consists of curves, not isolated points"
        )
    canonical = []
    for kx, ky in _newton_census(p):
        canonical.append((kx, ky, velocity_jacobian(KPoint(kx, ky), p)))
    return canonical


def find_zero_modes(p: ModelParams, weight_mode: WeightMode = WeightMode.CLOSED_BZ) -> list:
    """Locate, validate and classify every zero of the velocity field.

    Returns ZeroMode entries either one-per-canonical-zero (CANONICAL_CELL)
    or expanded to all closed-zone representatives with fractional edge and
    corner weights (CLOSED_BZ), sorted by location.

    Raises DegenerateField when c is (numerically) zero, GaplessModel when
    the gap closes on the seed grid, DegenerateZero for a Jacobian
    determinant below threshold, NonIsolatedZero when two distinct zeros
    crowd each other.
    """
    return _expand_modes(_canonical_census(p), weight_mode)


def weighted_index_sum(modes) -> Fraction:
    """Exact rational sum of weight * index over a mode list."""
    return sum((z.weight * z.index for z in modes), Fraction(0))


def integral_chi(closed_sum: Fraction, cell_sum: Fraction) -> int:
    """Validate the two weighted sums and collapse them to an integer chi."""
    if closed_sum.denominator != 1:
        raise NonIntegralSum(
            f"weighted index sum {closed_sum} is not an integer; "
            "a zero was missed or double counted"
        )
    if closed_sum != cell_sum:
        raise NonIntegralSum(
            f"weight modes disagree: closed-zone sum {closed_sum} vs "
            f"canonical-cell sum {cell_sum}"
        )
    return int(closed_sum)


def euler_characteristic(p: ModelParams, weight_mode: WeightMode = WeightMode.CLOSED_BZ) -> EulerResult:
    """Euler characteristic as the weighted index sum over all zero modes.

    The sum is accumulated as an exact rational and must be an integer;
    both weight bookkeeping modes must agree, otherwise the census is
    inconsistent (a missed or spurious zero) and NonIntegralSum is raised.
    """
    canonical = _canonical_census(p)
    closed = _expand_modes(canonical, WeightMode.CLOSED_BZ)
    cell = _expand_modes(canonical, WeightMode.CANONICAL_CELL)
    chi = integral_chi(weighted_index_sum(closed), weighted_index_sum(cell))
    modes = closed if weight_mode is WeightMode.CLOSED_BZ else cell
    return EulerResult(chi, modes, weight_mode)


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
