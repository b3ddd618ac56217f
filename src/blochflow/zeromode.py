"""Zero modes of the velocity field and their index-sum invariant.

The zeros are known in closed form.  Since vx = -c rho sin kx / |h|, every
zero lies on kx in {0, pi}.  Four are fixed, at ky in {0, pi}; the others
are (pi, -+arccos u) for each root u in (-1, 1) of the cubic that
``gap_min`` also solves: 8 zeros for c_p < c < c_f, between the pitchfork
and the fold, else 4, as the exact phase of c says (``model._phase``).  With
G = |h|^2 / 2, g(u) = rho (1 - (r/R) u) and s = r/R, G_u = (r R / rho)
(g(u) -+ c) on kx = pi / 0, g(-+1) = c_p, g'(u) = -3 R^2 s^2 (u + s/3) / rho,
and hxx = -+c rho / |h| on kx = 0 / pi.  So (0, 0) is a sink and (0, pi) a
saddle; (pi, 0) is a source and (pi, pi) a saddle for c > c_p, the reverse
below; the smaller root u gives a source pair and the larger a saddle pair.
A saddle has index -1, a sink or source +1.  No threshold decides a
refusal: the census refuses c = 0, where vx vanishes identically
(DegenerateField), c = R -+ r exactly (GaplessModel), c = c_p or c_f
exactly, or a float velocity Jacobian at a zero, the Hessian of |h| there,
that does not show the exact kind (DegenerateZero), and a root pair that
the float cubic misses (NonIsolatedZero).  The Jacobian is diagonal on kx
in {0, pi}, in ``math``, evaluated once per ky line (``_census_zeros``),
with |h| = |c - (R +- r)| rounded once at (pi, 0) and (pi, pi).  The
velocity is that of the upper band +|h|; the lower band carries -v and
the negated Hessian, so the zeros and indexes are band independent,
while sinks and sources swap.

The sum of the indexes is the Euler characteristic of the image surface:
0 for every gapped, nondegenerate parameter set of the torus model,
independent of where the individual zeros sit or how many there are.
The census returns each zero once, at exact machine values, with kx in
{-pi, 0} and ky in [-pi, pi).  So a zero lies on the edge of the closed
zone [-pi, pi]^2 exactly when a coordinate equals -pi; the `zeros`
output of ``cli`` lists its closed-zone copies with their weights.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from .errors import DegenerateField, DegenerateZero, GaplessModel, NonIsolatedZero
from .model import KPoint, ModelParams, _kx_pi_roots, _phase, _trig_rho


class ZeroKind(Enum):
    SINK = "sink"
    SOURCE = "source"
    SADDLE = "saddle"


SINK, SOURCE, SADDLE = ZeroKind


class ZeroMode(NamedTuple):
    """A located, classified zero of the velocity field."""

    location: KPoint
    det: float
    trace: float
    kind: ZeroKind

    @property
    def index(self) -> int:
        """Poincare index: -1 for a saddle, +1 for a sink or source."""
        return -1 if self.kind is SADDLE else 1


class EulerResult(NamedTuple):
    chi: int
    modes: list


def _closed_form_census(p: ModelParams, phase: int, roots: list):
    """Each zero as (kx, ky, kind), sorted by location, given ``model._phase(p)`` and at phase 4 the cubic's roots."""
    if p.c == 0.0:
        raise DegenerateField(
            f"axis shift c = {p.c} makes the kx-velocity vanish identically: "
            "the zero set consists of curves, not isolated points"
        )
    if phase in (1, 7):
        raise GaplessModel(f"c = {p.c} is R {'-+'[phase == 7]} r exactly, where the band gap closes at a fixed zero")
    if phase in (3, 5):
        which = "pitchfork c_p" if phase == 3 else "fold c_f"
        raise DegenerateZero(f"c = {p.c} is the {which} exactly, where zeros merge and det J = 0")
    pi_0, pi_pi = (SOURCE, SADDLE) if phase > 3 else (SADDLE, SOURCE)
    kx_0 = [(0.0, -math.pi, SADDLE), (0.0, 0.0, SINK)]
    if phase != 4:
        return [(-math.pi, -math.pi, pi_pi), (-math.pi, 0.0, pi_0), *kx_0]
    if len(roots) != 2:
        raise NonIsolatedZero(f"c = {p.c} lies between c_p and c_f, but the float cubic gives {len(roots)} of 2 roots")
    source, saddle = (math.acos(u) for u in sorted(roots))
    kx_pi = ((-math.pi, pi_pi), (-source, SOURCE), (-saddle, SADDLE), (0.0, pi_0), (saddle, SADDLE), (source, SOURCE))
    return [(-math.pi, ky, kind) for ky, kind in kx_pi] + kx_0


def _line_jacobians(ky: float, p: ModelParams) -> list:
    """(det J, trace J) of the velocity Jacobian at (-pi, ky) and at (0, ky), from one ``_trig_rho``.

    With G = |h|^2 / 2 = (rho^2 + c^2 + r^2 sin^2 ky) / 2 + c rho cos kx, v_i = G_i / |h|
    and J = (G_ij - v_i v_j) / |h|: at a census zero, v = 0 = sin kx and J = diag(G_xx, G_yy) / |h|,
    with cx = cos kx = -1.0 or 1.0 as math.cos gives it.  The terms free of cx (G_yy = a - c_rr cx b + d)
    are rounded as in the whole expression; sin ky and hz enter only squared: -+ky give the same bits.
    At (pi, 0) and (pi, pi), |h| = |c - (R +- r)| rounded once keeps its digits next to a closing,
    where fl(c - fl(R +- r)) loses them or is 0.0; it is 0.0 only at c = R -+ r, which the census refuses.
    """
    sy, cy, rho, hz = _trig_rho(ky, p)[:4]
    rr = p.r * p.R
    c_rho, c_rr, hz2 = -p.c * rho, p.c * rr, hz * hz
    a, b, d = -rr * cy, cy / rho + rr * sy * sy / rho**3, p.r**2 * (cy * cy - sy * sy)
    jacobians, fixed = [], ky in (0.0, -math.pi)
    for cx in (-1.0, 1.0):
        u = rho * cx + p.c
        gap = abs(math.fsum((p.c, -p.R, -p.r * cy))) if cx < 0.0 and fixed else math.sqrt(u * u + hz2)
        hxx, hyy = c_rho * cx / gap, (a - c_rr * cx * b + d) / gap
        jacobians.append((hxx * hyy, hxx + hyy))
    return jacobians


def _census_zeros(p: ModelParams, phase: int, roots: list) -> list:
    """(kx, ky, det J, trace J, kind) of each census zero, in the order of ``_closed_form_census``.

    The one census kernel: the fixed zeros share the lines ky = -pi and 0, and each pair
    (pi, -+arccos u) one line, evaluated once (``_line_jacobians``).  The float det and trace
    must show the exact kind: det < 0 for a saddle, det > 0 and the trace's sign otherwise.
    """
    lines, zeros = {}, []
    for kx, ky, kind in _closed_form_census(p, phase, roots):
        if abs(ky) not in lines:
            lines[abs(ky)] = _line_jacobians(ky, p)
        det, trace = lines[abs(ky)][kx == 0.0]
        if not (det < 0.0 if kind is SADDLE else det > 0.0 and (trace < 0.0) is (kind is SINK)):
            raise DegenerateZero(
                f"det J = {det:.3e} and trace J = {trace:.3e} at ({kx:.6g}, {ky:.6g}) do not show a {kind.value}"
            )
        zeros.append((kx, ky, det, trace, kind))
    return zeros


def _chi(p: ModelParams, phase: int, roots: list) -> int:
    """``euler_characteristic(p).chi``, with the same refusals, from the kernel alone: no records."""
    return sum([-1 if z[4] is SADDLE else 1 for z in _census_zeros(p, phase, roots)])


def euler_characteristic(p: ModelParams) -> EulerResult:
    """Locate and classify every zero; chi is their index sum (Poincare-Hopf).

    ``modes`` has one ZeroMode per canonical zero, sorted by location.

    Raises DegenerateField when c is 0, GaplessModel when c is R -+ r
    exactly, DegenerateZero when c is c_p or c_f exactly or the float
    Jacobian at a zero does not show its kind, and NonIsolatedZero when
    the float cubic misses a root pair.
    """
    phase = _phase(p)
    zeros = _census_zeros(p, phase, _kx_pi_roots(p) if phase == 4 else [])
    modes = [ZeroMode(KPoint(kx, ky), det, trace, kind) for kx, ky, det, trace, kind in zeros]
    return EulerResult(sum(z.index for z in modes), modes)
