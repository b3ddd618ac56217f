"""Quantum torus two-band model: parameters, Bloch vector, tangent frame.

The Hamiltonian is H(k) = h(k) . sigma for the real three-component map

    h(k) = (rho(ky) cos kx + c,  rho(ky) sin kx,  r sin ky),
    rho(ky) = sqrt(r^2 sin^2 ky + (R + r cos ky)^2),

whose image is a closed genus-1 surface: the distance of h(k) from the
vertical axis through (c, 0, 0) oscillates between R - r and R + r, so
the surface is an embedded (slightly sheared) torus shifted by c >= 0
along the first axis.  The bands are E = +-|h(k)|.

Everything is smooth and 2*pi-periodic in kx and ky.  The Bloch vector
and its tangent frame are the ``*_components`` kernels, which broadcast
over numpy arrays of kx and ky; every grid and census computation in the
package is built on them.  ``KPoint.canonical`` reduces a single point to
the fundamental domain [-pi, pi)^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TextIO

import numpy as np

TWO_PI = 2.0 * math.pi
# Largest accepted |R|, |r| and |c|.  The degree-4 coefficients of the
# kx = pi cubic (``_kx_pi_cubic``) then stay below about 1e201 and |h|^2
# below about 1e101, far from float overflow.
PARAM_MAX = 1e50


def reduce_angle(x):
    """Reduce an angle (scalar or array) into the half-open interval [-pi, pi)."""
    return (x + math.pi) % TWO_PI - math.pi


@dataclass(frozen=True)
class ModelParams:
    """Torus parameters: major radius R, tube radius r, axis shift c.

    Requires R > r > 0 so the image surface is embedded (never touches its
    own axis) and c >= 0, all at most ``PARAM_MAX``.  c = 0 is a legal
    surface but makes the first velocity component vanish identically; the
    zero-mode census rejects it.
    """

    R: float
    r: float
    c: float = 0.0

    def __post_init__(self):
        if not all(abs(x) <= PARAM_MAX for x in (self.R, self.r, self.c)):
            raise ValueError(
                f"parameters must be finite and at most {PARAM_MAX:.0e}, got R={self.R}, r={self.r}, c={self.c}"
            )
        if not self.r > 0.0:
            raise ValueError(f"tube radius r must be positive, got r={self.r}")
        if not self.R > self.r:
            raise ValueError(
                f"major radius must exceed tube radius (R > r), got R={self.R}, r={self.r}"
            )
        if self.c < 0.0:
            raise ValueError(f"axis shift c must be nonnegative, got c={self.c}")


@dataclass(frozen=True)
class KPoint:
    """A crystal-momentum point, kx and ky in radians."""

    kx: float
    ky: float

    def canonical(self) -> "KPoint":
        """Equivalent representative in the fundamental domain [-pi, pi)^2."""
        return KPoint(float(reduce_angle(self.kx)), float(reduce_angle(self.ky)))


def axis_distance(ky, p: ModelParams):
    """Distance of h(k) from the shifted symmetry axis; depends on ky only.

    Equals sqrt(r^2 sin^2 ky + (R + r cos ky)^2) and is bounded below by
    R - r > 0 for valid parameters.
    """
    s = np.sin(ky)
    co = np.cos(ky)
    return np.sqrt((p.r * s) ** 2 + (p.R + p.r * co) ** 2)


def axis_distance_derivative(ky, p: ModelParams):
    """d/dky of axis_distance: -r R sin(ky) / axis_distance(ky)."""
    return -p.r * p.R * np.sin(ky) / axis_distance(ky, p)


def _kx_pi_cubic(p: ModelParams) -> list:
    """Coefficients, highest power first, of (R^2 + r^2 + 2 R r u)(R - r u)^2 - c^2 R^2.

    Its roots u = cos ky in (-1, 1) are where rho (1 - (r/R) u) = c: the
    stationary points of |h| on kx = pi off ky in {0, pi}, and the zeros of v there.
    """
    R, r, c = p.R, p.r, p.c
    a, b = R * R + r * r, 2.0 * R * r
    return [b * r * r, a * r * r - 2.0 * b * R * r, b * R * R - 2.0 * a * R * r, (a - c * c) * R * R]


def bloch_components(kx, ky, p: ModelParams):
    """Components (hx, hy, hz) of the Bloch vector; broadcasts over arrays."""
    rho = axis_distance(ky, p)
    return rho * np.cos(kx) + p.c, rho * np.sin(kx), p.r * np.sin(ky)


def frame_components(kx, ky, p: ModelParams):
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


SURFACE_CSV_HEADER = "kx,ky,hx,hy,hz,vx,vy"


def write_surface_csv(p: ModelParams, n: int, fh: TextIO) -> None:
    """Write h and the velocity on an n x n uniform grid over [-pi, pi)^2 as CSV.

    One row per node, ky the slow index and kx the fast one, floats with
    17 significant digits.  At a k where the bands touch the velocity
    entries are NaN (valid gapped parameters never hit this).

    Rows are streamed one ky line at a time, so memory does not grow with
    n^2.  The n kx strings are formatted once per dump and ky and hz once
    per line; only hx, hy, vx and vy are formatted per node.
    """
    if n < 2:
        raise ValueError(f"grid size must be at least 2, got n={n}")
    from .field import velocity_and_gap

    ticks = -math.pi + TWO_PI * np.arange(n) / n
    kx_heads = ["%.17g" % x for x in ticks.tolist()]
    fh.write(SURFACE_CSV_HEADER + "\n")
    for y in ticks.tolist():
        ky = np.full(n, y)
        hx, hy, hz = bloch_components(ticks, ky, p)
        vx, vy, _ = velocity_and_gap(ticks, ky, p)
        # ky and hz are constant along the line; %% leaves the per-node slots for the second pass
        tail = ",%.17g,%%.17g,%%.17g,%.17g,%%.17g,%%.17g\n" % (y, hz[0])
        fh.write((tail.join(kx_heads) + tail) % tuple(np.stack([hx, hy, vx, vy], axis=-1).ravel().tolist()))
