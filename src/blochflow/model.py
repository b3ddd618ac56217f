"""Quantum torus two-band model: parameters and Bloch vector.

The Hamiltonian is H(k) = h(k) . sigma for the real three-component map

    h(k) = (rho(ky) cos kx + c,  rho(ky) sin kx,  r sin ky),
    rho(ky) = sqrt(r^2 sin^2 ky + (R + r cos ky)^2),

whose image is a closed genus-1 surface: the distance of h(k) from the
vertical axis through (c, 0, 0) oscillates between R - r and R + r, so
the surface is an embedded (slightly sheared) torus shifted by c >= 0
along the first axis.  The bands are E = +-|h(k)|.

Everything is smooth and 2*pi-periodic in kx and ky.  ``_trig_rho`` is
the one place that evaluates sin kx, cos kx, sin ky, cos ky and rho(ky);
the Bloch vector (``bloch_components``), the velocity and its Hessian
(``field``) and the Chern integrand (``chern``) are all written on its
factors and broadcast over numpy arrays of kx and ky.
``KPoint.canonical`` reduces a single point to the fundamental domain
[-pi, pi)^2.
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
# Smallest accepted r, the mirror bound: the leading coefficient of that
# cubic is 2 R r^3, which R > r >= 1e-50 keeps above 1e-200, far from
# float underflow.
PARAM_MIN = 1e-50


def reduce_angle(x):
    """Reduce an angle (scalar or array) into the half-open interval [-pi, pi)."""
    return (x + math.pi) % TWO_PI - math.pi


@dataclass(frozen=True)
class ModelParams:
    """Torus parameters: major radius R, tube radius r, axis shift c.

    Requires R > r > 0 so the image surface is embedded (never touches its
    own axis) and c >= 0, all at most ``PARAM_MAX``, and r at least
    ``PARAM_MIN``.  c = 0 is a legal surface but makes the first velocity
    component vanish identically; the zero-mode census rejects it.
    """

    R: float
    r: float
    c: float = 0.0

    def __post_init__(self):
        if not all(abs(x) <= PARAM_MAX for x in (self.R, self.r, self.c)) or 0.0 < self.r < PARAM_MIN:
            raise ValueError(
                f"parameters must be finite and at most {PARAM_MAX:.0e}, with r at least {PARAM_MIN:.0e}, "
                f"got R={self.R}, r={self.r}, c={self.c}"
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


def _trig_rho(kx, ky, p: ModelParams):
    """(sin kx, cos kx, sin ky, cos ky, rho(ky)), each evaluated once; broadcasts.

    rho(ky) = sqrt(r^2 sin^2 ky + (R + r cos ky)^2) is the distance of h(k)
    from the shifted symmetry axis, at least R - r > 0.
    """
    sy, cy = np.sin(ky), np.cos(ky)
    return np.sin(kx), np.cos(kx), sy, cy, np.sqrt((p.r * sy) ** 2 + (p.R + p.r * cy) ** 2)


def _kx_pi_cubic(p: ModelParams) -> list:
    """Coefficients, highest power first, of (R^2 + r^2 + 2 R r u)(R - r u)^2 - c^2 R^2.

    Its roots u = cos ky in (-1, 1) are where rho (1 - (r/R) u) = c: the
    stationary points of |h| on kx = pi off ky in {0, pi}, and the zeros of v there.
    """
    R, r, c = p.R, p.r, p.c
    a, b = R * R + r * r, 2.0 * R * r
    return [b * r * r, a * r * r - 2.0 * b * R * r, b * R * R - 2.0 * a * R * r, (a - c * c) * R * R]


def _kx_pi_roots(p: ModelParams) -> np.ndarray:
    """The real roots u in (-1, 1) of ``_kx_pi_cubic``, each polished by one Newton step."""
    cubic = c3, c2, c1, c0 = _kx_pi_cubic(p)
    u = np.roots(cubic)
    u = u.real[u.imag == 0.0]
    # Horner by hand: the same arithmetic as np.polyval and np.polyder, without their per-call overhead
    u = u - (((c3 * u + c2) * u + c1) * u + c0) / ((3.0 * c3 * u + 2.0 * c2) * u + c1)
    return u[np.abs(u) < 1.0]


def bloch_components(kx, ky, p: ModelParams):
    """Components (hx, hy, hz) of the Bloch vector; broadcasts over arrays."""
    sx, cx, sy, _, rho = _trig_rho(kx, ky, p)
    return rho * cx + p.c, rho * sx, p.r * sy


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
