"""Band velocity field in the Brillouin zone and its Hessian.

The band velocity is the k-gradient of the band energy |h| (hbar = 1).
Writing G = |h|^2 / 2 = (rho^2 + c^2 + r^2 sin^2 ky) / 2 + c rho cos kx,
both follow in closed form from the derivatives of G:

    v_i = G_i / |h|,        d v_i / d k_j = (G_ij - v_i v_j) / |h|,

so the velocity Jacobian is the (exactly symmetric) Hessian of |h|.  The
gradient form used throughout is that of the upper band (+|h|).  The
lower band (-|h|) carries the opposite velocity and the negated Hessian,
so zero locations and Hessian determinant signs (hence indexes) are band
independent, while sinks and sources trade places.

``velocity_and_gap`` and ``hessian_from_velocity`` broadcast over arrays
and let NaN/inf propagate where |h| = 0, returning the gap so callers can
mask.  ``velocity_jacobian`` evaluates one KPoint and raises GaplessPoint
there when |h| <= ``EPS_GAP``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GaplessPoint
from .model import KPoint, ModelParams

EPS_GAP = 1e-9


@dataclass(frozen=True, eq=False)
class Jacobian2:
    """2x2 matrix of velocity derivatives d v_i / d k_j.

    The velocity is a gradient, so this is the Hessian of |h|.
    """

    m: np.ndarray

    @property
    def det(self) -> float:
        return float(self.m[0, 0] * self.m[1, 1] - self.m[0, 1] * self.m[1, 0])

    @property
    def trace(self) -> float:
        return float(self.m[0, 0] + self.m[1, 1])


def velocity_and_gap(kx, ky, p: ModelParams):
    """Closed-form velocity components and the local gap |h|, vectorized.

    Returns (vx, vy, gap).  No gap checks are performed here: at a band
    touching the division produces NaN/inf, which callers must mask using
    the returned gap.  This is the hot kernel of the package, so the trig
    factors are evaluated exactly once.
    """
    sx, cx = np.sin(kx), np.cos(kx)
    sy, cy = np.sin(ky), np.cos(ky)
    rho = np.sqrt((p.r * sy) ** 2 + (p.R + p.r * cy) ** 2)
    hx = rho * cx + p.c
    hy = rho * sx
    hz = p.r * sy
    gap = np.sqrt(hx * hx + hy * hy + hz * hz)
    with np.errstate(divide="ignore", invalid="ignore"):
        vx = -rho * p.c * sx / gap
        vy = -(p.r * p.R / gap) * (1.0 + (p.c / rho) * cx - (p.r / p.R) * cy) * sy
    # + 0.0 folds negative zeros into plain zeros for stable serialization
    return vx + 0.0, vy + 0.0, gap


def hessian_from_velocity(kx, ky, vx, vy, gap, p: ModelParams):
    """Closed-form Hessian entries (hxx, hxy, hyy) of |h|, vectorized.

    These are the velocity derivatives dvx/dkx, dvx/dky = dvy/dkx and
    dvy/dky, built from the ``velocity_and_gap(kx, ky, p)`` a caller
    already holds.  No gap checks; NaN/inf propagate where |h| = 0.
    """
    sx, cx = np.sin(kx), np.cos(kx)
    sy, cy = np.sin(ky), np.cos(ky)
    rho = np.sqrt((p.r * sy) ** 2 + (p.R + p.r * cy) ** 2)
    rr = p.r * p.R
    gxx = -p.c * rho * cx
    gxy = p.c * rr * sx * sy / rho
    gyy = -rr * cy - p.c * rr * cx * (cy / rho + rr * sy * sy / rho**3) + p.r**2 * (cy * cy - sy * sy)
    with np.errstate(divide="ignore", invalid="ignore"):
        return (gxx - vx * vx) / gap, (gxy - vx * vy) / gap, (gyy - vy * vy) / gap


def velocity_jacobian(k: KPoint, p: ModelParams) -> Jacobian2:
    """Velocity Jacobian (the Hessian of |h|) at one k-point.

    Raises GaplessPoint if |h| <= EPS_GAP at k.
    """
    k = k.canonical()
    vx, vy, gap = velocity_and_gap(k.kx, k.ky, p)
    if gap <= EPS_GAP:
        raise GaplessPoint(f"|h| = {float(gap):.3e} <= {EPS_GAP:.1e} at k = ({k.kx}, {k.ky})")
    hxx, hxy, hyy = (float(x) for x in hessian_from_velocity(k.kx, k.ky, vx, vy, gap, p))
    return Jacobian2(np.array([[hxx, hxy], [hxy, hyy]]))
