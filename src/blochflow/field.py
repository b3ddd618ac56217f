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

``velocity_and_gap`` and ``hessian`` both take (kx, ky, p), broadcast
over arrays and evaluate the trig factors and rho once per call
(``model._trig_rho``); the velocity formula is written once, in
``_velocity``, and the Hessian builds on it.  NaN/inf propagate where
|h| = 0: ``velocity_and_gap`` returns the gap so callers can mask, and
callers that need a nonzero gap compare gap / R with ``EPS_GAP``.
"""

from __future__ import annotations

import numpy as np

from .model import ModelParams, _bloch, _trig_rho

EPS_GAP = 1e-9


def _velocity(sx, cx, sy, cy, rho, p: ModelParams):
    """(vx, vy, gap) from the ``_trig_rho`` factors; NaN/inf where |h| = 0."""
    hx, hy, hz = _bloch(sx, cx, sy, cy, rho, p)
    gap = np.sqrt(hx * hx + hy * hy + hz * hz)
    with np.errstate(divide="ignore", invalid="ignore"):
        vx = -rho * p.c * sx / gap
        vy = -(p.r * p.R / gap) * (1.0 + (p.c / rho) * cx - (p.r / p.R) * cy) * sy
    # + 0.0 folds negative zeros into plain zeros for stable serialization
    return vx + 0.0, vy + 0.0, gap


def velocity_and_gap(kx, ky, p: ModelParams):
    """Closed-form velocity components and the local gap |h|, vectorized.

    Returns (vx, vy, gap).  No gap checks are performed here: at a band
    touching the division produces NaN/inf, which callers must mask using
    the returned gap.
    """
    return _velocity(*_trig_rho(kx, ky, p), p)


def hessian(kx, ky, p: ModelParams):
    """Closed-form Hessian entries (hxx, hxy, hyy) of |h|, vectorized.

    These are the velocity derivatives dvx/dkx, dvx/dky = dvy/dkx and
    dvy/dky.  No gap checks; NaN/inf propagate where |h| = 0.
    """
    sx, cx, sy, cy, rho = _trig_rho(kx, ky, p)
    vx, vy, gap = _velocity(sx, cx, sy, cy, rho, p)
    rr = p.r * p.R
    gxx = -p.c * rho * cx
    gxy = p.c * rr * sx * sy / rho
    gyy = -rr * cy - p.c * rr * cx * (cy / rho + rr * sy * sy / rho**3) + p.r**2 * (cy * cy - sy * sy)
    with np.errstate(divide="ignore", invalid="ignore"):
        return (gxx - vx * vx) / gap, (gxy - vx * vy) / gap, (gyy - vy * vy) / gap
