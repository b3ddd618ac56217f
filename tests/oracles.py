"""Independent oracles used to cross-check the library's own algorithms.

The library computes on floats with ``math``, a ky line or a point at a
time; everything here is numpy arrays.  The array forms of the library's
kernels (``array_trig_rho``, ``array_bloch_components``,
``array_velocity_and_gap``, ``array_hessian``) are the same formulas
broadcast over arrays, and ``pointwise`` evaluates a library kernel at
every point of an array.  ``bloch_components`` and ``velocity_and_gap``
are not oracles: they are the library's ``model._bloch`` at one point, a
ky line with one node, for the tests that check it point by point.

Nothing here reuses the code path it is checking: velocities come from
projecting the tangent frame onto the unit Bloch vector (the library
differentiates |h| in closed form), the Chern integrand from the frame's
triple product (the library has it worked out by hand), zeros are found
by a sign-change scan plus MINPACK's hybrid solver on that projection
(the library census solves a cubic), the minimum gap by dense 2-D scans
(the library solves a cubic on kx = pi), windings by numpy's phase unwrapping,
derivatives by plain central differences (the Chern integrand included),
the kind of a zero by the signs of its Jacobian's det and trace
(``classify``; the library takes the kinds from the exact phase of c and
only checks that its floats show them), the
roots of the kx = pi cubic by np.roots, the eigenvalues of its companion
matrix (the library has them in closed form; both polish them by the
same Newton step), the zero census by the paper's generic
method, damped Newton from a seed grid with a greedy dedup (the library
solves the model's cubic in closed form; the Newton census refuses two
zeros closer than ``ISOLATION_RADIUS``, its own constant, pair by pair in
2-D), the fold of that census by a
dense scan, and the plaquette solid-angle sum by np.roll neighbours,
np.cross and einsum over an (n, n, 3) stack of unit vectors (the library
slices three component arrays of a wrapped open grid and shares the cross
product and the edge dot products between the two triangles of a
plaquette).

Five oracles are plainer forms of library code, which the library must
match bit for bit and message for message: the velocity Jacobian at one
census zero, with its own ``math.cos kx`` and ``_trig_rho`` call
(``census_jacobian``; the library's census kernel evaluates each ky line
once for all the zeros on it), the phase-diagram CSV joined one
formatted field at a time (``field_joined_csv``), ``gap_min`` as a loop
over every stationary u with ``min`` (``loop_gap_min``, which takes the
window c_p < c < c_f from ``fraction_phase``, not from the library), the checks of
``ModelParams`` with the range test as a generator under ``all``
(``generator_params_error``), and the Chern preimage count with each
preimage signed by the library's Chern integrand there
(``integrand_preimage_count``; the library takes the signs from the two
comparisons that decide which preimages there are).

Where c lies among the critical values R - r < c_p < c_f < R + r is
decided on fractions (``fraction_phase``; the library's ``model._phase``
takes float signs it proves exact and falls back to integers).
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st
from scipy import ndimage
from scipy.optimize import fsolve

from blochflow.chern import _degree_integrand, _open_gap
from blochflow.errors import DegenerateField, DegenerateZero, GaplessModel, GaplessPoint, NonIsolatedZero
from blochflow.model import (
    EPS_GAP,
    PARAM_MAX,
    PARAM_MIN,
    TWO_PI,
    _bloch,
    _kx_pi_cubic,
    _kx_pi_roots,
    _kx_trig,
    _phase,
    _trig_rho,
    reduce_angle,
    zero_bifurcations,
)
from blochflow.zeromode import C_DEGENERATE, ZeroKind

# The Newton census: damped Newton from every node of a 64 x 64 seed grid
# until |v| (or the Newton step) is at most 1e-12, then a dedup of the
# converged seeds within 1e-6 of each other, and its refusal of two zeros
# closer than 1e-3 on the torus (``pairwise_isolation``).
SEEDS_PER_AXIS = 64
NEWTON_TOL = 1e-12
MAX_ITER = 50
DEDUP_RADIUS = 1e-6
ISOLATION_RADIUS = 1e-3


def pointwise(kernel, kx, ky, p):
    """A library point kernel ``kernel(kx, ky, p) -> tuple`` at every point of
    the broadcast arrays kx and ky, one float call each: a tuple of arrays."""
    kx, ky = np.broadcast_arrays(np.asarray(kx, dtype=float), np.asarray(ky, dtype=float))
    values = [kernel(a, b, p) for a, b in zip(kx.ravel().tolist(), ky.ravel().tolist())]
    return tuple(np.array(col).reshape(kx.shape) for col in zip(*values))


def bloch_components(kx, ky, p):
    """(hx, hy, hz) of the library's ``_bloch`` at one point."""
    line = _trig_rho(ky, p)
    (hx,), (hy,), _, _, _ = _bloch(_kx_trig((kx,)), [line], p)
    return hx, hy, line[3]


def velocity_and_gap(kx, ky, p):
    """(vx, vy, gap) of the library's ``_bloch`` at one point; no gap check."""
    _, _, (vx,), (vy,), (gap,) = _bloch(_kx_trig((kx,)), [_trig_rho(ky, p)], p)
    return vx, vy, gap


def array_trig_rho(kx, ky, p):
    """(sin kx, cos kx, sin ky, cos ky, rho(ky)) on arrays, rho's squares by numpy's ``**``."""
    sy, cy = np.sin(ky), np.cos(ky)
    return np.sin(kx), np.cos(kx), sy, cy, np.sqrt((p.r * sy) ** 2 + (p.R + p.r * cy) ** 2)


def _array_bloch(sx, cx, sy, cy, rho, p):
    return rho * cx + p.c, rho * sx, p.r * sy


def array_bloch_components(kx, ky, p):
    """(hx, hy, hz) = (rho cos kx + c, rho sin kx, r sin ky), broadcast over arrays."""
    return _array_bloch(*array_trig_rho(kx, ky, p), p)


def _array_velocity(sx, cx, sy, cy, rho, p):
    hx, hy, hz = _array_bloch(sx, cx, sy, cy, rho, p)
    gap = np.sqrt(hx * hx + hy * hy + hz * hz)
    with np.errstate(divide="ignore", invalid="ignore"):
        vx = -rho * p.c * sx / gap
        vy = -(p.r * p.R / gap) * (1.0 + (p.c / rho) * cx - (p.r / p.R) * cy) * sy
    return vx + 0.0, vy + 0.0, gap


def array_velocity_and_gap(kx, ky, p):
    """(vx, vy, gap) of the closed-form velocity on arrays; NaN/inf where |h| = 0."""
    return _array_velocity(*array_trig_rho(kx, ky, p), p)


def array_hessian(kx, ky, p):
    """(hxx, hxy, hyy), the closed-form Hessian of |h|, on arrays; NaN/inf where |h| = 0."""
    sx, cx, sy, cy, rho = array_trig_rho(kx, ky, p)
    vx, vy, gap = _array_velocity(sx, cx, sy, cy, rho, p)
    rr = p.r * p.R
    gxx = -p.c * rho * cx
    gxy = p.c * rr * sx * sy / rho
    gyy = -rr * cy - p.c * rr * cx * (cy / rho + rr * sy * sy / rho**3) + p.r**2 * (cy * cy - sy * sy)
    with np.errstate(divide="ignore", invalid="ignore"):
        return (gxx - vx * vx) / gap, (gxy - vx * vy) / gap, (gyy - vy * vy) / gap


def classify(det: float, trace: float) -> ZeroKind:
    """The kind that a Jacobian's (det, trace) shows: a saddle for det < 0, else a sink
    or a source by the sign of the trace; DegenerateZero where det is 0 or NaN."""
    if det < 0.0:
        return ZeroKind.SADDLE
    if not det > 0.0:
        raise DegenerateZero(f"det J = {det}")
    return ZeroKind.SINK if trace < 0.0 else ZeroKind.SOURCE


def census_jacobian(kx: float, ky: float, p) -> tuple:
    """The velocity Jacobian at a census zero, where kx is 0 or -+pi: its diagonal (hxx, hyy).

    With G = |h|^2 / 2 = (rho^2 + c^2 + r^2 sin^2 ky) / 2 + c rho cos kx,
    the velocity is v_i = G_i / |h| and its Jacobian (G_ij - v_i v_j) / |h|.
    At a zero v = 0, and on kx in {0, pi} sin kx = 0, so G_xy = 0 and the
    Jacobian is diag(G_xx, G_yy) / |h| with |h| = sqrt((rho cos kx + c)^2 +
    hz^2).  No gap check: where |h| = 0 this raises ZeroDivisionError.
    """
    cx = math.cos(kx)
    sy, cy, rho, hz = _trig_rho(ky, p)[:4]
    u = rho * cx + p.c
    gap = math.sqrt(u * u + hz * hz)
    rr = p.r * p.R
    gyy = -rr * cy - p.c * rr * cx * (cy / rho + rr * sy * sy / rho**3) + p.r**2 * (cy * cy - sy * sy)
    return -p.c * rho * cx / gap, gyy / gap


def torus_distance(ax, ay, bx, by):
    """Distance on the 2-torus: componentwise wrapped differences; broadcasts."""
    return np.hypot(reduce_angle(ax - bx), reduce_angle(ay - by))


def axis_distance(ky, p):
    """Distance of h(k) from the shifted symmetry axis; depends on ky only.

    Equals sqrt(r^2 sin^2 ky + (R + r cos ky)^2) and is bounded below by
    R - r > 0 for valid parameters.
    """
    s = np.sin(ky)
    co = np.cos(ky)
    return np.sqrt((p.r * s) ** 2 + (p.R + p.r * co) ** 2)


def axis_distance_derivative(ky, p):
    """d/dky of axis_distance: -r R sin(ky) / axis_distance(ky)."""
    return -p.r * p.R * np.sin(ky) / axis_distance(ky, p)


def frame_components(kx, ky, p):
    """Tangent-frame components, broadcast over arrays.

    Returns (ax, ay, az, bx, by, bz) with (ax, ay, az) = dh/dkx and
    (bx, by, bz) = dh/dky.  For this model the two vectors are orthogonal
    at every k and their cross product never vanishes: a regular frame.
    """
    rho = axis_distance(ky, p)
    drho = axis_distance_derivative(ky, p)
    sx = np.sin(kx)
    cx = np.cos(kx)
    ax = -rho * sx
    ay = rho * cx
    az = np.zeros_like(ax)
    bx = drho * cx
    by = drho * sx
    bz = p.r * np.cos(ky) * np.ones_like(ax)
    return ax, ay, az, bx, by, bz


def frame_degree_integrand(kx, ky, p):
    """h . (dh/dkx x dh/dky) / |h|^3 with the cross product of the tangent frame."""
    hx, hy, hz = array_bloch_components(kx, ky, p)
    ax, ay, az, bx, by, bz = frame_components(kx, ky, p)
    triple = hx * (ay * bz - az * by) + hy * (az * bx - ax * bz) + hz * (ax * by - ay * bx)
    return triple / (hx * hx + hy * hy + hz * hz) ** 1.5


def frame_chern_direct(p, n):
    """chern_direct's raw midpoint sum, with ``frame_degree_integrand`` as the integrand."""
    step = TWO_PI / n
    ticks = -math.pi + (np.arange(n) + 0.5) * step
    kx, ky = np.meshgrid(ticks, ticks, indexing="ij")
    return float(np.sum(frame_degree_integrand(kx, ky, p))) * step * step / (4.0 * math.pi)


def periodic_unit_grid(p, n):
    """Unit Bloch vectors on the periodic n x n node grid, shape (n, n, 3), axis 0 kx."""
    ticks = -math.pi + TWO_PI * np.arange(n) / n
    kx, ky = np.meshgrid(ticks, ticks, indexing="ij")
    hx, hy, hz = array_bloch_components(kx, ky, p)
    norm = np.sqrt(hx * hx + hy * hy + hz * hz)
    return np.stack((hx / norm, hy / norm, hz / norm), axis=-1)


def roll_solid_angle_sum(u):
    """Signed solid angles of the triangles (a, b, c) and (a, c, d) of every
    plaquette of the periodic grid ``u``, summed; NaN when a triangle's
    half-angle denominator is not positive or (numer, denom) is near zero."""
    a = u
    b = np.roll(u, -1, axis=0)
    c = np.roll(u, -1, axis=(0, 1))
    d = np.roll(u, -1, axis=1)

    total = 0.0
    for t0, t1, t2 in ((a, b, c), (a, c, d)):
        numer = np.einsum("ijk,ijk->ij", t0, np.cross(t1, t2))
        denom = (
            1.0
            + np.einsum("ijk,ijk->ij", t0, t1)
            + np.einsum("ijk,ijk->ij", t1, t2)
            + np.einsum("ijk,ijk->ij", t2, t0)
        )
        if np.any(denom <= 0.0) or np.any(np.hypot(numer, denom) < 1e-12):
            return math.nan
        total += float(np.sum(2.0 * np.arctan2(numer, denom)))
    return total


def generic_velocity_and_gap(kx, ky, p):
    """Frame-projection velocity (hhat . dh/dk_i) and gap, vectorized."""
    hx, hy, hz = array_bloch_components(kx, ky, p)
    ax, ay, az, bx, by, bz = frame_components(kx, ky, p)
    gap = np.sqrt(hx * hx + hy * hy + hz * hz)
    with np.errstate(divide="ignore", invalid="ignore"):
        vx = (hx * ax + hy * ay + hz * az) / gap
        vy = (hx * bx + hy * by + hz * bz) / gap
    return vx + 0.0, vy + 0.0, gap


def velocity_generic(k, p):
    """Frame-projection velocity (vx, vy) at one k-point; raises GaplessPoint if |h| <= EPS_GAP."""
    k = k.canonical()
    vx, vy, gap = generic_velocity_and_gap(k.kx, k.ky, p)
    if gap <= EPS_GAP:
        raise GaplessPoint(f"|h| = {float(gap):.3e} at k = ({k.kx}, {k.ky})")
    return float(vx), float(vy)


def fd_velocity_jacobian(kx, ky, p, step=1e-5):
    """Central-difference Jacobian (dvx/dkx, dvx/dky, dvy/dkx, dvy/dky) of the
    frame-projection velocity."""
    vxp, vyp, _ = generic_velocity_and_gap(kx + step, ky, p)
    vxm, vym, _ = generic_velocity_and_gap(kx - step, ky, p)
    m00, m10 = (vxp - vxm) / (2 * step), (vyp - vym) / (2 * step)
    vxp, vyp, _ = generic_velocity_and_gap(kx, ky + step, p)
    vxm, vym, _ = generic_velocity_and_gap(kx, ky - step, p)
    m01, m11 = (vxp - vxm) / (2 * step), (vyp - vym) / (2 * step)
    return m00, m01, m10, m11


def scan_gap_min(p, n=256, levels=24):
    """Minimum of |h| over the zone by dense 2-D scans.

    An n x n scan of the whole zone, then ``levels`` rescans of a 17 x 17
    window, each window a quarter the size of the one before and centred
    on its best node, from the best node of each 8-connected group of
    local minima (a group across the zone edge counts as two).  A local
    minimum is at most each neighbour to within 4 ulp, so a row where |h|
    is flat up to rounding, as at c = 0 where |h| does not depend on kx,
    is one group and not a third of its nodes.
    """

    def gap_sq(kx, ky):
        hx, hy, hz = array_bloch_components(kx, ky, p)
        return hx * hx + hy * hy + hz * hz

    step = TWO_PI / n
    ticks = -math.pi + step * np.arange(n)
    kx, ky = np.meshgrid(ticks, ticks, indexing="ij")
    sq = gap_sq(kx, ky)
    local_min = np.ones(sq.shape, dtype=bool)
    for shift in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)):
        local_min &= sq <= np.roll(sq, shift, axis=(0, 1)) * (1.0 + 4.0 * np.finfo(float).eps)
    best = float(np.min(sq))
    groups, count = ndimage.label(local_min, structure=np.ones((3, 3)))
    for i, j in ndimage.minimum_position(sq, groups, range(1, count + 1)):
        cx, cy, half = kx[i, j], ky[i, j], 2.0 * step
        for _ in range(levels):
            offsets = np.linspace(-half, half, 17)
            wx, wy = np.meshgrid(cx + offsets, cy + offsets, indexing="ij")
            w = gap_sq(wx, wy)
            a, b = np.unravel_index(np.argmin(w), w.shape)
            cx, cy, half = wx[a, b], wy[a, b], half / 4.0
            best = min(best, float(w[a, b]))
    return math.sqrt(best)


def numpy_kx_pi_roots(p):
    """The real roots u in (-1, 1) of ``model._kx_pi_cubic`` by np.roots,
    each polished by the same one Newton step as ``model._kx_pi_roots``.

    Known to be wrong near the pitchfork as r -> R: within about
    4e-16 R^2 / (R - r) of c_p, where the root near u = 1 meets the one
    near u = R / r, np.roots resolves it only to about sqrt(eps) and one
    Newton step does not bring it back (at R = 144.68632625892462,
    r = 144.6863240451086, c = 5.327264025252778e-06 it gives u = 0.887;
    the closed form gives 0.99999999415 and the exact root of the cubic
    on those floats is 0.99999999689, a set the census refuses, with
    c / R = 3.7e-8).  Compare only outside that band; inside it the
    closed form is checked against the exact cubic instead.
    """
    cubic = c3, c2, c1, c0 = _kx_pi_cubic(p)
    u = np.roots(cubic)
    u = u.real[u.imag == 0.0]
    u = u - (((c3 * u + c2) * u + c1) * u + c0) / ((3.0 * c3 * u + 2.0 * c2) * u + c1)
    return sorted(u[np.abs(u) < 1.0].tolist())


def surface_csv_rows(p, n):
    """The rows write_surface_csv should write: the array kernels on the whole grid, formatted one value at a time."""
    # the program's exactly symmetric ticks: tick n - i is -tick i
    ticks = math.pi * (2 * np.arange(n) - n) / n
    ky, kx = np.meshgrid(ticks, ticks, indexing="ij")
    hx, hy, hz = array_bloch_components(kx, ky, p)
    vx, vy, _ = array_velocity_and_gap(kx, ky, p)
    rows = []
    for i in range(n):
        for j in range(n):
            values = (kx[i, j], ky[i, j], hx[i, j], hy[i, j], hz[i, j], vx[i, j], vy[i, j])
            rows.append(",".join(format(float(x), ".17g") for x in values))
    return rows


def fd_bloch_frame(kx, ky, p, step=1e-5):
    """Central-difference tangent frame of the Bloch vector."""
    hp = array_bloch_components(kx + step, ky, p)
    hm = array_bloch_components(kx - step, ky, p)
    d_kx = [(a - b) / (2 * step) for a, b in zip(hp, hm)]
    hp = array_bloch_components(kx, ky + step, p)
    hm = array_bloch_components(kx, ky - step, p)
    d_ky = [(a - b) / (2 * step) for a, b in zip(hp, hm)]
    return d_kx, d_ky


def fd_energy_gradient(kx, ky, p, step=1e-4):
    """Central-difference gradient of the upper band energy |h|."""

    def energy(a, b):
        hx, hy, hz = array_bloch_components(a, b, p)
        return np.sqrt(hx * hx + hy * hy + hz * hz)

    gx = (energy(kx + step, ky) - energy(kx - step, ky)) / (2 * step)
    gy = (energy(kx, ky + step) - energy(kx, ky - step)) / (2 * step)
    return gx, gy


def fd_degree_integrand(kx, ky, p, step=1e-5):
    """hhat . (d hhat/dkx x d hhat/dky) with central differences of hhat."""

    def unit(a, b):
        hx, hy, hz = array_bloch_components(a, b, p)
        norm = np.sqrt(hx * hx + hy * hy + hz * hz)
        return np.array([hx / norm, hy / norm, hz / norm])

    d_kx = (unit(kx + step, ky) - unit(kx - step, ky)) / (2 * step)
    d_ky = (unit(kx, ky + step) - unit(kx, ky - step)) / (2 * step)
    return np.einsum("i...,i...->...", unit(kx, ky), np.cross(d_kx, d_ky, axis=0))


def greedy_dedup(cx, cy, cn):
    """Census dedup point by point: visit the points by |v| (stable) and
    keep each one that is at least DEDUP_RADIUS from every point kept so
    far.  Returns the kept coordinates in the order they were kept."""
    order = np.argsort(cn, kind="stable")
    reps_x, reps_y = [], []
    for x, y in zip(cx[order], cy[order]):
        if reps_x:
            d = torus_distance(np.array(reps_x), np.array(reps_y), x, y)
            if float(np.min(d)) < DEDUP_RADIUS:
                continue
        reps_x.append(float(x))
        reps_y.append(float(y))
    return reps_x, reps_y


def pairwise_isolation(reps_x, reps_y):
    """Raise NonIsolatedZero for the first pair i < j (row-major) closer
    than ISOLATION_RADIUS, checking one pair at a time."""
    n = len(reps_x)
    for i in range(n):
        for j in range(i + 1, n):
            d = float(torus_distance(reps_x[i], reps_y[i], reps_x[j], reps_y[j]))
            if d < ISOLATION_RADIUS:
                raise NonIsolatedZero(
                    f"zeros at ({reps_x[i]:.6g}, {reps_y[i]:.6g}) and "
                    f"({reps_x[j]:.6g}, {reps_y[j]:.6g}) are only {d:.3e} apart"
                )


def full_backtrack_census(p):
    """The paper's generic census: damped Newton from a uniform seed grid,
    with every active seed re-evaluated at every backtrack halving.

    A seed whose |v| did not grow is evaluated again at the same point
    until no seed is worse or 12 trials are spent.  Converged seeds are
    merged by greedy_dedup, and checked pair by pair for isolation
    (pairwise_isolation).  Returns the sorted canonical zero list, or
    raises DegenerateField, GaplessModel or NonIsolatedZero.
    """
    if p.c / p.R <= C_DEGENERATE:
        raise DegenerateField(f"axis shift c = {p.c} makes the kx-velocity vanish identically")
    ticks = -math.pi + TWO_PI * np.arange(SEEDS_PER_AXIS) / SEEDS_PER_AXIS
    gx, gy = np.meshgrid(ticks, ticks, indexing="ij")
    px = gx.ravel().copy()
    py = gy.ravel().copy()

    vx, vy, gap = array_velocity_and_gap(px, py, p)
    min_gap = float(np.min(gap))
    if min_gap / p.R <= EPS_GAP:
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
        hxx, hxy, hyy = array_hessian(x, y, p)
        det = hxx * hyy - hxy * hxy
        ok = np.isfinite(det) & (np.abs(det) > 1e-300)
        with np.errstate(divide="ignore", invalid="ignore"):
            sx = np.where(ok, (hxy * vb - hyy * va) / det, 0.0)
            sy = np.where(ok, (hxy * va - hxx * vb) / det, 0.0)

        base = vnorm[active]
        scale = np.ones_like(sx)
        for _bt in range(12):
            nx = reduce_angle(x + scale * sx)
            ny = reduce_angle(y + scale * sy)
            nvx, nvy, ngap = array_velocity_and_gap(nx, ny, p)
            nnorm = np.hypot(nvx, nvy)
            worse = ~(nnorm <= base)
            if not np.any(worse):
                break
            scale[worse] *= 0.5

        px[active], py[active] = nx, ny
        vx[active], vy[active] = nvx, nvy
        vnorm[active] = nnorm
        dead = ~np.isfinite(nnorm) | (ngap <= EPS_GAP) | ~ok
        alive[active[dead]] = False
        done = (nnorm <= NEWTON_TOL) | (np.hypot(sx, sy) <= NEWTON_TOL)
        converged[active[done]] = True
        active = active[~dead & ~done]

    keep = converged & alive
    reps_x, reps_y = greedy_dedup(reduce_angle(px[keep]), reduce_angle(py[keep]), vnorm[keep])
    pairwise_isolation(reps_x, reps_y)
    return sorted(zip(reps_x, reps_y))


def brute_zero_census(p, n):
    """All velocity zeros from a sign-change scan of an n x n cell grid.

    Cell corners sit half a cell off the symmetry points so no zero can
    land exactly on a corner.  Cells where both components change sign
    are refined with fsolve; results are deduplicated on the torus and
    returned sorted.
    """
    ticks = -math.pi + (np.arange(n + 1) + 0.5) * TWO_PI / n
    kx, ky = np.meshgrid(ticks, ticks, indexing="ij")
    vx, vy, _ = generic_velocity_and_gap(kx, ky, p)

    def both_signs(f):
        c00, c10 = f[:-1, :-1], f[1:, :-1]
        c01, c11 = f[:-1, 1:], f[1:, 1:]
        lo = np.minimum(np.minimum(c00, c10), np.minimum(c01, c11))
        hi = np.maximum(np.maximum(c00, c10), np.maximum(c01, c11))
        return (lo < 0) & (hi > 0)

    cand = both_signs(vx) & both_signs(vy)
    ii, jj = np.nonzero(cand)
    centers = np.stack(
        [0.5 * (kx[ii, jj] + kx[ii + 1, jj]), 0.5 * (ky[ii, jj] + ky[ii, jj + 1])],
        axis=1,
    )

    def fun(u):
        a, b, _ = generic_velocity_and_gap(u[0], u[1], p)
        return [float(a), float(b)]

    found = []
    for x0 in centers:
        sol, info, ier, _ = fsolve(fun, x0, full_output=True)
        if ier != 1 or np.max(np.abs(info["fvec"])) > 1e-10:
            continue
        x, y = float(reduce_angle(sol[0])), float(reduce_angle(sol[1]))
        if not any(torus_distance(x, y, a, b) < 1e-6 for a, b in found):
            found.append((x, y))
    return sorted(found)


def unwrap_winding(center, radius, p, n=4096):
    """Winding of the velocity along a circle, via numpy phase unwrapping."""
    t = TWO_PI * np.arange(n + 1) / n
    kx = center[0] + radius * np.cos(t)
    ky = center[1] + radius * np.sin(t)
    vx, vy, _ = array_velocity_and_gap(kx, ky, p)
    angles = np.unwrap(np.arctan2(vy, vx))
    return (angles[-1] - angles[0]) / TWO_PI


def census_fold(R, r):
    """The fold c = max_ky rho(ky) (1 - (r/R) cos ky), from a 4001-point scan."""
    ky = np.linspace(-math.pi, math.pi, 4001)
    rho = np.sqrt((r * np.sin(ky)) ** 2 + (R + r * np.cos(ky)) ** 2)
    return float(np.max(rho * (1.0 - (r / R) * np.cos(ky))))


def critical_shifts(R, r):
    """Axis shifts where the gap closes (R -+ r) or the zero census
    bifurcates on the kx = pi line (the pitchfork and the fold)."""
    return (R - r, R + r, *zero_bifurcations(R, r))


def random_gapped_params(rng, n_sets, avoid=0.05):
    """Valid, gapped, census-friendly random parameter sets.

    Rejects shifts within ``avoid`` of the gap closings c = R -+ r and of
    the two zero-census bifurcations on the kx = pi line (where zeros are
    born or merge and the Jacobian degenerates): the pitchfork at
    c = (R^2 - r^2)/R and the fold at max_ky rho(ky) (1 - (r/R) cos ky).
    """
    out = []
    while len(out) < n_sets:
        R = rng.uniform(1.5, 4.0)
        r = rng.uniform(0.2, 0.8) * R
        c = rng.uniform(0.15, R + r + 1.5)
        if any(abs(c - v) < avoid for v in critical_shifts(R, r)):
            continue
        out.append((R, r, c))
    return out


@st.composite
def params_near_critical(draw):
    """(R, r, c) as in random_gapped_params, but with c either anywhere in
    [0, R + r + 1.5] or within 1e-3 of one of the critical_shifts."""
    R = draw(st.floats(1.5, 4.0))
    r = R * draw(st.floats(0.2, 0.8))
    anchor = draw(st.sampled_from((None, 0, 1, 2, 3)))
    if anchor is None:
        return R, r, draw(st.floats(0.0, R + r + 1.5))
    return R, r, critical_shifts(R, r)[anchor] + draw(st.floats(-1e-3, 1e-3))


def field_joined_csv(cells):
    """The phase-diagram CSV of ``cells``, each field formatted by itself and the fields joined."""

    def fmt(x):
        return format(x, ".17g")

    lines = ["R,r,c,chern,chi,gap_min,status"]
    for cell in cells:
        p = cell.params
        fields = (
            fmt(p.R),
            fmt(p.r),
            fmt(p.c),
            "" if cell.chern is None else str(cell.chern),
            "" if cell.chi is None else str(cell.chi),
            fmt(cell.gap_min),
            cell.status,
        )
        lines.append(",".join(fields))
    return "\n".join(lines) + "\n"


def fraction_phase(R, r, c):
    """Where c lies among R - r < c_p < c_f < R + r, on fractions: 0 to 8, as ``model._phase`` numbers it.

    Each critical value passed adds 2 and one equalled adds 1.  c_f may be
    irrational, so c is compared with it by c^2 R^4 against (R^2 + r^2/3)^3.
    """
    R, r, c = Fraction(R), Fraction(r), Fraction(c)
    phase = 0
    for past in (c - (R - r), c - (R * R - r * r) / R, c * c * R**4 - (R * R + r * r / 3) ** 3, c - (R + r)):
        if past <= 0:
            return phase + (past == 0)
        phase += 2
    return phase


def placed(p):
    """(phase, roots) as a sweep cell hands them on: ``_phase(p)``, and the roots of ``_kx_pi_roots`` at 4."""
    phase = _phase(p)
    return phase, _kx_pi_roots(p) if phase == 4 else []


def loop_gap_min(p):
    """gap_min as the smallest |h| over u = -1, 1 and, for c_p < c < c_f on fractions, each root of ``_kx_pi_roots``."""
    R, r, c = p.R, p.r, p.c
    least = math.inf
    for u in (-1.0, 1.0, *(_kx_pi_roots(p) if fraction_phase(R, r, c) == 4 else ())):
        sin_sq = 1.0 - u * u
        rho = math.sqrt((R + r * u) ** 2 + r * r * sin_sq)
        least = min(least, (rho - c) ** 2 + r * r * sin_sq)
    return math.sqrt(least)


def integrand_preimage_count(p, g):
    """C as the signed count of the preimages of -x, given g = gap_min(p), each signed by the Chern integrand there.

    (pi, 0) counts when c < R + r and (pi, pi) when c < R - r, each with the
    sign of ``_degree_integrand`` there, at cos kx = -1.  The gate runs
    first, so |h| > 0 at both points.
    """
    _open_gap(p, g)
    R, r, c = p
    count = 0
    if c < R + r:
        count += 1 if _degree_integrand([-1.0], 0.0, p)[0] > 0.0 else -1
    if c < R - r:
        count += 1 if _degree_integrand([-1.0], math.pi, p)[0] > 0.0 else -1
    return count


def generator_params_error(R, r, c):
    """The message ModelParams(R, r, c) should raise, or None, with the range test as a generator."""
    if not all(abs(x) <= PARAM_MAX for x in (R, r, c)) or 0.0 < r < PARAM_MIN:
        return (
            f"parameters must be finite and at most {PARAM_MAX:.0e}, with r at least {PARAM_MIN:.0e}, "
            f"got R={R}, r={r}, c={c}"
        )
    if not r > 0.0:
        return f"tube radius r must be positive, got r={r}"
    if not R > r:
        return f"major radius must exceed tube radius (R > r), got R={R}, r={r}"
    if c < 0.0:
        return f"axis shift c must be nonnegative, got c={c}"
    return None
