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


def reduce_angle(x):
    """Reduce an angle (scalar or array) into the half-open interval [-pi, pi)."""
    return (x + math.pi) % TWO_PI - math.pi


@dataclass(frozen=True)
class ModelParams:
    """Torus parameters: major radius R, tube radius r, axis shift c.

    Requires finite R > r > 0 so the image surface is embedded (never
    touches its own axis) and finite c >= 0.  c = 0 is a legal surface but
    makes the first velocity component vanish identically; the zero-mode
    census rejects it.
    """

    R: float
    r: float
    c: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(x) for x in (self.R, self.r, self.c)):
            raise ValueError(f"parameters must be finite, got R={self.R}, r={self.r}, c={self.c}")
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
_SURFACE_CSV_ROW = ",".join(["%.17g"] * 7) + "\n"


def write_surface_csv(p: ModelParams, n: int, fh: TextIO) -> None:
    """Write h and the velocity on an n x n uniform grid over [-pi, pi)^2 as CSV.

    One row per node, ky the slow index and kx the fast one, floats with
    17 significant digits.  At a k where the bands touch the velocity
    entries are NaN (valid gapped parameters never hit this).
    """
    if n < 2:
        raise ValueError(f"grid size must be at least 2, got n={n}")
    from .field import velocity_and_gap

    ticks = -math.pi + TWO_PI * np.arange(n) / n
    ky, kx = np.meshgrid(ticks, ticks, indexing="ij")
    hx, hy, hz = bloch_components(kx, ky, p)
    vx, vy, _ = velocity_and_gap(kx, ky, p)
    fh.write(SURFACE_CSV_HEADER + "\n")
    for line in np.stack([kx, ky, hx, hy, hz, vx, vy], axis=-1):  # one ky value each
        fh.writelines(_SURFACE_CSV_ROW % tuple(row) for row in line.tolist())
