"""Chern number of the two-band map and the gap structure in parameter space.

The invariant is the degree of the unit Bloch vector as a map from the
zone torus to the sphere.  Two discretizations are provided:

* ``chern_direct``: midpoint quadrature of the triple product
  hhat . (d hhat/dkx x d hhat/dky) / 4pi, evaluated in closed form as
  r (rho (rho + c cos kx) cos ky + r R sin^2 ky) / (4pi |h|^3);
* ``chern_plaquette``: the sum of signed solid angles of the spherical
  triangles spanned by hhat over each grid plaquette, divided by 4pi.
  This counts the degree exactly, so the raw value lands within 1e-9 of
  an integer whenever the gap is open.  The grid is a fixed ``GRID_N``
  nodes per axis, and a triangle it cannot orient raises
  DegenerateTriangle.  hhat is three component arrays on a wrapped open
  grid, and the two triangles of a plaquette share their links
  (``_solid_angle_sum``).

Orientation convention: with (kx, ky) right-handed, the phase whose
image surface encloses the origin (R - r < c < R + r) carries Chern
number +1.

The integrand blows up as the gap closes, so both methods refuse to run
when gap / R drops to ``EPS_GAP_CHERN`` (scaling R, r and c together
leaves the unit Bloch vector unchanged).  ``gap_min`` finds that gap in
closed form: the minimum of |h| lies on the line kx = pi, where it is the
smallest value of |h| over the ends ky = 0, pi and the real roots of a
cubic in cos ky.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateTriangle, GaplessModel, InsufficientSampling
from .model import TWO_PI, ModelParams, _kx_pi_roots, _trig_rho, bloch_components

EPS_GAP_CHERN = 1e-6
# chern_plaquette's nodes per axis.  It must be even, so that (pi, 0) and
# (pi, pi), the only points where the gap can close, are grid nodes.
GRID_N = 64
# chern_direct's nodes per axis, and the largest |raw - value| it reports.
DIRECT_N = 256
DIRECT_TOL = 1e-2


class ChernMethod(Enum):
    DIRECT_QUADRATURE = "direct_quadrature"
    PLAQUETTE_SOLID_ANGLE = "plaquette_solid_angle"


@dataclass(frozen=True)
class ChernResult:
    raw: float
    value: int
    gap_min: float
    method: ChernMethod
    grid_n: int


def _degree_integrand(kx, ky, p: ModelParams):
    """hhat . (d hhat/dkx x d hhat/dky) in closed form, broadcast over arrays.

    Differentiating the normalisation only adds multiples of hhat, which
    drop out of the triple product, so the integrand equals
    h . (dh/dkx x dh/dky) / |h|^3.  With dh/dkx = rho (-sin kx, cos kx, 0),
    dh/dky = (rho' cos kx, rho' sin kx, r cos ky) and rho rho' = -r R sin ky,
    the triple product is r (rho (rho + c cos kx) cos ky + r R sin^2 ky).
    """
    sx, cx, sy, cy, rho = _trig_rho(kx, ky, p)
    hx, hy, hz = rho * cx + p.c, rho * sx, p.r * sy
    return p.r * (rho * (rho + p.c * cx) * cy + p.r * p.R * sy * sy) / (hx * hx + hy * hy + hz * hz) ** 1.5


def gap_min(p: ModelParams) -> float:
    """Minimum band gap |h| over the zone, in closed form.

    For c >= 0, |h|^2 = rho^2 + c^2 + 2 c rho cos kx + r^2 sin^2 ky is
    smallest on kx = pi.  There, with u = cos ky,

        |h|^2 = (rho - c)^2 + r^2 (1 - u^2),   rho^2 = R^2 + r^2 + 2 R r u,

    whose stationary points are u = -+1 and the roots in (-1, 1) of the
    cubic ``model._kx_pi_cubic`` (``model._kx_pi_roots``).
    """
    R, r, c = p.R, p.r, p.c
    u = np.concatenate(([-1.0, 1.0], _kx_pi_roots(p)))
    sin_sq = 1.0 - u * u
    rho = np.sqrt((R + r * u) ** 2 + r * r * sin_sq)
    return math.sqrt(float(np.min((rho - c) ** 2 + r * r * sin_sq)))


def gapless_boundary(R: float, r: float) -> tuple:
    """The two axis shifts where the gap closes: (R - r, R + r).

    For c between them the image surface encloses the origin and the
    Chern number is +1; outside it is 0.
    """
    if not (R > r > 0.0):
        raise ValueError(f"requires R > r > 0, got R={R}, r={r}")
    return (R - r, R + r)


def _open_gap(p: ModelParams) -> float:
    """gap_min(p), or GaplessModel when gap_min / R is at most EPS_GAP_CHERN."""
    g = gap_min(p)
    if g / p.R <= EPS_GAP_CHERN:
        raise GaplessModel(f"minimum gap / R = {g / p.R:.3e} <= {EPS_GAP_CHERN:.1e}; Chern number undefined")
    return g


def chern_direct(p: ModelParams) -> ChernResult:
    """Midpoint-rule quadrature of the degree integrand on a DIRECT_N x DIRECT_N grid.

    The integrand hhat . (d hhat/dkx x d hhat/dky) is evaluated in closed
    form as h . (dh/dkx x dh/dky) / |h|^3, with no finite differences.  It
    concentrates into a peak of width ~gap near a band touching, so the
    quadrature is only trustworthy while the gap stays well above the grid
    spacing (|raw - value| is 1.7e-3 at R, r, c = 3, 1, 4.1, a gap of 0.1),
    and it raises InsufficientSampling when |raw - value| > ``DIRECT_TOL``.
    chern_plaquette counts the degree combinatorially and holds up much
    closer to a closing; prefer it there.
    """
    g = _open_gap(p)

    step = TWO_PI / DIRECT_N
    ticks = -math.pi + (np.arange(DIRECT_N) + 0.5) * step
    raw = float(np.sum(_degree_integrand(ticks[:, None], ticks[None, :], p))) * step * step / (4.0 * math.pi)
    value = int(round(raw))
    if not abs(raw - value) <= DIRECT_TOL:
        raise InsufficientSampling(
            f"direct quadrature |raw - value| = {abs(raw - value):.3e} > {DIRECT_TOL:.0e} (raw {raw:.6f}): "
            f"the gap is too small for its {DIRECT_N} x {DIRECT_N} grid; use --method plaquette"
        )
    return ChernResult(raw, value, g, ChernMethod.DIRECT_QUADRATURE, DIRECT_N)


def _unit_grid(p: ModelParams, n: int) -> tuple:
    """hhat's components on the n periodic ticks per axis plus the first again (axis 0 kx)."""
    t = -math.pi + TWO_PI * (np.arange(n + 1) % n) / n
    hx, hy, hz = bloch_components(t[:, None], t[None, :], p)
    norm = np.sqrt(hx * hx + hy * hy + hz * hz)
    return hx / norm, hy / norm, hz / norm


def _solid_angle_sum(u: tuple) -> float:
    """Signed solid angles of the two triangles of every plaquette, summed.

    ``u`` is the component triple of ``_unit_grid``.  Plaquette (i, j) has
    corners a, b, c, d at (i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1) and
    triangles (a, b, c), (a, c, d) of solid angle 2 atan2(t0 . (t1 x t2),
    1 + t0 . t1 + t1 . t2 + t2 . t0).  Both triple products use e = a x c
    (a . (b x c) = -b . e, a . (c x d) = d . e); both denominators slice the
    kx links lx and the ky links ly.  NaN when a triangle cannot be oriented:
    a denominator <= 0, or it and the numerator both within 1e-12 of zero.
    """
    x, y, z = u
    lx = x[:-1] * x[1:] + y[:-1] * y[1:] + z[:-1] * z[1:]
    ly = x[:, :-1] * x[:, 1:] + y[:, :-1] * y[:, 1:] + z[:, :-1] * z[:, 1:]
    ax, ay, az = x[:-1, :-1], y[:-1, :-1], z[:-1, :-1]
    cx, cy, cz = x[1:, 1:], y[1:, 1:], z[1:, 1:]
    ex, ey, ez = ay * cz - az * cy, az * cx - ax * cz, ax * cy - ay * cx
    ac = ax * cx + ay * cy + az * cz

    total = 0.0
    for numer, denom in (
        (-(x[1:, :-1] * ex + y[1:, :-1] * ey + z[1:, :-1] * ez), 1.0 + lx[:, :-1] + ly[1:] + ac),
        (x[:-1, 1:] * ex + y[:-1, 1:] * ey + z[:-1, 1:] * ez, 1.0 + ac + lx[:, 1:] + ly[:-1]),
    ):
        # hypot(numer, denom) >= denom: only denom < 1e-12 (2e-12 for rounding) can trip it
        low = denom.min()
        if low <= 0.0 or (low < 2e-12 and np.any(np.hypot(numer, denom) < 1e-12)):
            return math.nan
        total += float(np.sum(np.arctan2(numer, denom)))
    return 2.0 * total


def chern_plaquette(p: ModelParams) -> ChernResult:
    """Degree count by summed signed solid angles over the plaquettes of a GRID_N grid.

    Raises DegenerateTriangle if a plaquette triangle is too coarse to orient.
    """
    g = _open_gap(p)
    total = _solid_angle_sum(_unit_grid(p, GRID_N))
    if math.isnan(total):
        raise DegenerateTriangle(
            f"plaquette triangles are ambiguous at n = {GRID_N}; "
            "the map varies too fast for this grid (gap too small?)"
        )
    raw = total / (4.0 * math.pi)
    return ChernResult(raw, int(round(raw)), g, ChernMethod.PLAQUETTE_SOLID_ANGLE, GRID_N)


def chern_json(res: ChernResult) -> str:
    return json.dumps(
        {
            "raw": res.raw,
            "value": res.value,
            "gap_min": res.gap_min,
            "method": res.method.value,
            "grid_n": res.grid_n,
        },
        indent=2,
    )
