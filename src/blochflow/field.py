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

Everything is computed on floats with ``math``.  The velocity is written
once, with h and |h|, in ``model._bloch``, which evaluates every node of
one or many ky lines in one call: the field dump and the winding loops
call it directly, and ``velocity_and_gap`` and ``hessian`` take one
point, a line with one node.  None of them checks the gap: where |h| = 0
they raise ZeroDivisionError, and callers compare gap / R with
``EPS_GAP`` first.
"""

from __future__ import annotations

from .model import ModelParams, _bloch, _kx_trig, _trig_rho

EPS_GAP = 1e-9


def velocity_and_gap(kx: float, ky: float, p: ModelParams) -> tuple:
    """(vx, vy, gap): the closed-form velocity and the local gap |h| at one point."""
    _, _, (vx,), (vy,), (gap,) = _bloch(_kx_trig((kx,)), [_trig_rho(ky, p)], p)
    return vx, vy, gap


def hessian(kx: float, ky: float, p: ModelParams) -> tuple:
    """Closed-form Hessian entries (hxx, hxy, hyy) of |h| at one point.

    These are the velocity derivatives dvx/dkx, dvx/dky = dvy/dkx and
    dvy/dky.
    """
    kx_trig = _kx_trig((kx,))
    (sx,), (cx,) = kx_trig
    line = _trig_rho(ky, p)
    sy, cy, rho = line[:3]
    _, _, (vx,), (vy,), (gap,) = _bloch(kx_trig, [line], p)
    rr = p.r * p.R
    gxx = -p.c * rho * cx
    gxy = p.c * rr * sx * sy / rho
    gyy = -rr * cy - p.c * rr * cx * (cy / rho + rr * sy * sy / rho**3) + p.r**2 * (cy * cy - sy * sy)
    return (gxx - vx * vx) / gap, (gxy - vx * vy) / gap, (gyy - vy * vy) / gap
