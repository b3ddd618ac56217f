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

``velocity_and_gap`` and ``hessian`` take (kx, ky, p) and evaluate the
trig factors and rho once per call (``model._trig_rho``); the velocity is
written once, in ``_velocity``, and the Hessian builds on it.  On arrays
NaN/inf propagate where |h| = 0, and callers mask by the returned gap or
compare gap / R with ``EPS_GAP``; ``hessian(kx, ky, p, math)`` takes one
point as floats, where a zero gap raises.
"""

from __future__ import annotations

import numpy as np

from .model import ModelParams, _bloch, _trig_rho

EPS_GAP = 1e-9


def _velocity(sx, cx, sy, cy, rho, p: ModelParams, xp=np):
    """(vx, vy, gap) from the ``_trig_rho`` factors; on arrays NaN/inf where |h| = 0."""
    hx, hy, hz = _bloch(sx, cx, sy, cy, rho, p)
    gap = xp.sqrt(hx * hx + hy * hy + hz * hz)
    vx = -rho * p.c * sx / gap
    vy = -(p.r * p.R / gap) * (1.0 + (p.c / rho) * cx - (p.r / p.R) * cy) * sy
    # + 0.0 folds negative zeros into plain zeros for stable serialization
    return vx + 0.0, vy + 0.0, gap


def velocity_and_gap(kx, ky, p: ModelParams):
    """(vx, vy, gap): the closed-form velocity and the local gap |h|, vectorized.

    No gap checks: where the bands touch vx and vy are NaN/inf, for callers to mask by the gap.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        return _velocity(*_trig_rho(kx, ky, p), p)


def _hessian(sx, cx, sy, cy, rho, p: ModelParams, xp):
    """(hxx, hxy, hyy) from the ``_trig_rho`` factors."""
    vx, vy, gap = _velocity(sx, cx, sy, cy, rho, p, xp)
    rr = p.r * p.R
    gxx = -p.c * rho * cx
    gxy = p.c * rr * sx * sy / rho
    gyy = -rr * cy - p.c * rr * cx * (cy / rho + rr * sy * sy / rho**3) + p.r**2 * (cy * cy - sy * sy)
    return (gxx - vx * vx) / gap, (gxy - vx * vy) / gap, (gyy - vy * vy) / gap


def hessian(kx, ky, p: ModelParams, xp=np):
    """Closed-form Hessian entries (hxx, hxy, hyy) of |h|.

    These are the velocity derivatives dvx/dkx, dvx/dky = dvy/dkx and
    dvy/dky.  No gap checks: on arrays (``xp`` = ``np``) NaN/inf propagate
    where |h| = 0; on floats (``xp`` = ``math``) ZeroDivisionError is raised.
    """
    if xp is not np:  # floats raise on a zero gap: no warning to silence
        return _hessian(*_trig_rho(kx, ky, p, xp), p, xp)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _hessian(*_trig_rho(kx, ky, p), p, np)
