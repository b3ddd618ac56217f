"""Chern number of the two-band map and the gap structure in parameter space.

The invariant is the degree of the unit Bloch vector as a map from the
zone torus to the sphere: the signed count of the preimages of -x, which
are (pi, 0) when c < R + r and (pi, pi) when c < R - r (the triple
product there is r rho (rho - c) cos ky): C is 1 between R - r and R + r.
``_chern_preimages`` reads it from the exact phase of ``model._placed``
behind the gap gate, for the sweep.  The ``chern`` command reports one
of two numerical discretizations of the degree, whose raw sum, grid size
and method make up its JSON record (``ChernResult``):

* ``chern_direct``: midpoint quadrature of the triple product
  hhat . (d hhat/dkx x d hhat/dky) / 4pi, evaluated in closed form as
  r (rho (rho + c cos kx) cos ky + r R sin^2 ky) / (4pi |h|^3).  On a ky
  line this is (P + Q cos kx) / (A + B cos kx)^(3/2) with P, Q, A and B
  fixed per line, even in kx and in ky, so the sum runs over one quadrant
  of the symmetric midpoint grid (``_degree_integrand``);
* ``chern_plaquette``: the sum of signed solid angles of the spherical
  triangles spanned by hhat over each grid plaquette, divided by 4pi.
  This counts the degree exactly, so the raw value lands within 1e-9 of
  an integer whenever the gap is open.  The grid is a fixed ``GRID_N`` =
  16 nodes per axis.  hhat turns fastest around (pi, 0) and (pi, pi), the
  only points where the gap can close, and these are nodes of every even
  grid; so 16 nodes orient every triangle down to the smallest gap that
  is accepted, and a triangle the grid cannot orient raises
  DegenerateTriangle.  hhat is a wrapped grid of unit-vector tuples,
  summed one plaquette at a time (``_solid_angle_sum``).

Everything is computed on floats with ``math``, a ky line at a time.

Orientation convention: with (kx, ky) right-handed, the phase whose
image surface encloses the origin (R - r < c < R + r) carries Chern
number +1.

The integrand blows up as the gap closes, so all three refuse to run
when gap / R drops to ``EPS_GAP_CHERN`` (scaling R, r and c together
leaves the unit Bloch vector unchanged).  ``gap_min`` finds that gap in
closed form, on the line kx = pi.
"""

import collections
import math

from .errors import DegenerateTriangle, GaplessModel, InsufficientSampling
from .model import TWO_PI, ModelParams, _bloch, _kx_trig, _past_closings, _placed, _trig_rho

EPS_GAP_CHERN = 1e-6
# chern_plaquette's nodes per axis.  It must be even, so that (pi, 0) and
# (pi, pi), the only points where the gap can close, are grid nodes.  Even
# grids of 8 to 32 nodes all gave the exact C on gapped sets with r/R from
# 1e-8 to 1 - 1e-8 and gaps down to EPS_GAP_CHERN R; below 16 the sum
# saves little, its time being mostly per-call overhead.
GRID_N = 16
# chern_direct's nodes per axis, and the largest |raw - value| it reports.
# It must be even, so that the midpoint grid is symmetric about 0 on each axis.
DIRECT_N = 256
DIRECT_TOL = 1e-2


# method is "plaquette_solid_angle" or "direct_quadrature"
ChernResult = collections.namedtuple("ChernResult", "raw value gap_min method grid_n")


def _degree_integrand(cx: list, ky: float, p: ModelParams) -> list:
    """hhat . (d hhat/dkx x d hhat/dky) in closed form, at each cos kx of ``cx`` on the ky line ``ky``.

    Differentiating the normalisation only adds multiples of hhat, which
    drop out of the triple product, so the integrand equals
    h . (dh/dkx x dh/dky) / |h|^3.  With dh/dkx = rho (-sin kx, cos kx, 0),
    dh/dky = (rho' cos kx, rho' sin kx, r cos ky) and rho rho' = -r R sin ky,
    the triple product is r (rho (rho + c cos kx) cos ky + r R sin^2 ky)
    = P + Q cos kx, and |h|^2 = A + B cos kx, with P, Q, A and B fixed by
    ky.  Both are even in kx and in ky.
    """
    sy, cy, rho, hz, _, _, _ = _trig_rho(ky, p)
    r, c = p.r, p.c
    P = r * (rho * rho * cy + r * p.R * sy * sy)
    Q = r * rho * c * cy
    A = rho * rho + c * c + hz * hz
    B = 2.0 * c * rho
    return [(P + Q * x) / (A + B * x) ** 1.5 for x in cx]


def gap_min(p: ModelParams) -> float:
    """Minimum band gap |h| over the zone, in closed form.

    For c >= 0, |h|^2 = rho^2 + c^2 + 2 c rho cos kx + r^2 sin^2 ky is
    smallest on kx = pi.  There, with u = cos ky,

        |h|^2 = (rho - c)^2 + r^2 (1 - u^2),   rho^2 = R^2 + r^2 + 2 R r u,

    whose stationary points are u = -+1, where |h| = |c - (R -+ r)|, correctly rounded (``model._past_closings``),
    and the roots in (-1, 1) of the cubic ``model._kx_pi_cubic`` that ``model._placed`` hands on.
    """
    return _gap_min(p, _placed(p)[1])


def _gap_min(p: ModelParams, roots: list) -> float:
    """``gap_min`` over the ends and the given ``roots`` of the cubic: a sweep cell shares its one solve."""
    R, r, c = p
    rr, (lo, hi) = r * r, _past_closings(p)
    least = min(abs(lo), abs(hi))
    for u in roots:
        sin_sq = 1.0 - u * u
        least = min(least, math.sqrt((math.sqrt((R + r * u) ** 2 + rr * sin_sq) - c) ** 2 + rr * sin_sq))
    return least


def _open_gap(p: ModelParams, g: float) -> float:
    """g, the gap_min of p, or GaplessModel when g / R is at most EPS_GAP_CHERN."""
    if g / p.R <= EPS_GAP_CHERN:
        raise GaplessModel(f"minimum gap / R = {g / p.R:.3e} <= {EPS_GAP_CHERN:.1e}; Chern number undefined")
    return g


def _chern_preimages(p: ModelParams, g: float, phase: int) -> int:
    """C as the signed count of the preimages of -x, given g = gap_min(p) and the phase of ``model._placed``: an int.

    (pi, 0) counts +1 when c < R + r and (pi, pi) -1 when c < R - r: the
    degree integrand there has the sign of r rho (rho - c) cos ky.  So C is
    1 for the phases 2 to 6 and 0 for 0 and 8; the gate refuses 1 and 7.
    """
    _open_gap(p, g)
    return (phase > 1) - (phase > 6)


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
    g = _open_gap(p, gap_min(p))

    step = TWO_PI / DIRECT_N
    # the integrand is even in kx and ky: four times the quadrant of positive ticks
    ticks = [-math.pi + (i + 0.5) * step for i in range(DIRECT_N // 2, DIRECT_N)]
    cx = _kx_trig(ticks)[1]
    quadrant = sum(sum(_degree_integrand(cx, ky, p)) for ky in ticks)
    raw = 4.0 * quadrant * step * step / (4.0 * math.pi)
    value = int(round(raw))
    if not abs(raw - value) <= DIRECT_TOL:
        raise InsufficientSampling(
            f"direct quadrature |raw - value| = {abs(raw - value):.3e} > {DIRECT_TOL:.0e} (raw {raw:.6f}): "
            f"the gap is too small for its {DIRECT_N} x {DIRECT_N} grid; use --method plaquette"
        )
    return ChernResult(raw, value, g, "direct_quadrature", DIRECT_N)


def _unit_grid(p: ModelParams) -> list:
    """hhat on the GRID_N periodic ticks per axis plus the first again.

    GRID_N + 1 ky lines (row j is ky = t_j), each of GRID_N + 1 (x, y, z)
    tuples (column i is kx = t_i); row and column GRID_N repeat row and
    column 0.
    """
    t = [-math.pi + TWO_PI * i / GRID_N for i in range(GRID_N)]
    kx_trig = _kx_trig(t)
    grid = []
    for ky in t:
        line = _trig_rho(ky, p)
        hx, hy, _, _, norm = _bloch(kx_trig, [line] * GRID_N, p)
        row = [(a / m, b / m, line[3] / m) for a, b, m in zip(hx, hy, norm)]
        grid.append(row + row[:1])
    return grid + grid[:1]


def _solid_angle_sum(grid: list) -> float:
    """Signed solid angles of the two triangles of every plaquette, summed.

    ``grid`` is a list of wrapped ky lines of unit vectors, as
    ``_unit_grid`` gives it.  Plaquette (i, j) has corners a, b, c, d at
    (i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1), i along kx and j along
    ky, and triangles (a, b, c), (a, c, d) of solid angle
    2 atan2(t0 . (t1 x t2), 1 + t0 . t1 + t1 . t2 + t2 . t0).  Both triple
    products use e = a x c (a . (b x c) = -b . e, a . (c x d) = d . e) and
    both denominators the diagonal a . c.  NaN when a triangle cannot be
    oriented: a denominator <= 0, or it and the numerator both within
    1e-12 of zero.
    """
    atan2, hypot = math.atan2, math.hypot
    total = 0.0
    for lower, upper in zip(grid, grid[1:]):
        for (ax, ay, az), (bx, by, bz), (cx, cy, cz), (dx, dy, dz) in zip(lower, lower[1:], upper[1:], upper):
            ex, ey, ez = ay * cz - az * cy, az * cx - ax * cz, ax * cy - ay * cx
            ac = ax * cx + ay * cy + az * cz
            n1 = -(bx * ex + by * ey + bz * ez)
            d1 = 1.0 + (ax * bx + ay * by + az * bz) + (bx * cx + by * cy + bz * cz) + ac
            n2 = dx * ex + dy * ey + dz * ez
            d2 = 1.0 + ac + (dx * cx + dy * cy + dz * cz) + (ax * dx + ay * dy + az * dz)
            # hypot(numer, denom) >= denom: only denom < 1e-12 can trip it
            if (d1 < 1e-12 and (d1 <= 0.0 or hypot(n1, d1) < 1e-12)) or (
                d2 < 1e-12 and (d2 <= 0.0 or hypot(n2, d2) < 1e-12)
            ):
                return math.nan
            total += atan2(n1, d1) + atan2(n2, d2)
    return 2.0 * total


def chern_plaquette(p: ModelParams) -> ChernResult:
    """Degree count by summed signed solid angles over the plaquettes of a GRID_N grid.

    Raises DegenerateTriangle if a plaquette triangle is too coarse to orient.
    """
    g = _open_gap(p, gap_min(p))
    total = _solid_angle_sum(_unit_grid(p))
    if math.isnan(total):
        raise DegenerateTriangle(
            f"plaquette triangles are ambiguous at n = {GRID_N}; "
            "the map varies too fast for this grid (gap too small?)"
        )
    raw = total / (4.0 * math.pi)
    return ChernResult(raw, int(round(raw)), g, "plaquette_solid_angle", GRID_N)
