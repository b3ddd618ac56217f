"""Zero modes of the velocity field and their index-sum invariant.

The zeros are known in closed form.  Since vx = -c rho sin kx / |h|, every
zero lies on kx in {0, pi}.  Four are fixed, at ky in {0, pi}; the others
are (pi, -+arccos u) for each root u in (-1, 1) of the cubic that
``gap_min`` also solves (``model._kx_pi_roots``): 8 zeros for c_p < c < c_f,
between the pitchfork and the fold (``model.zero_bifurcations``), else 4.
``model._phase`` places c exactly, on integers, and the kinds follow.  With
G = |h|^2 / 2, g(u) = rho (1 - (r/R) u) and s = r/R, G_u = (r R / rho)
(g(u) -+ c) on kx = pi / 0, g(-+1) = c_p, g'(u) = -3 R^2 s^2 (u + s/3) / rho,
and hxx = -+c rho / |h| on kx = 0 / pi.  So (0, 0) is a sink and (0, pi) a
saddle; (pi, 0) is a source and (pi, pi) a saddle for c > c_p, the reverse
below; the smaller root u gives a source pair and the larger a saddle pair.
A saddle has index -1, a sink or source +1.  The census refuses at c = c_p
or c_f exactly, and wherever the float velocity Jacobian at a zero, the
Hessian of |h| there, does not show the exact kind (DegenerateZero), or
the float cubic misses the root pair (NonIsolatedZero).  The Jacobian is
diagonal on kx in {0, pi}, in ``math``, and evaluated once per ky line
(``_census_zeros``).  The velocity is that of the upper band +|h|; the
lower band carries -v and the negated Hessian, so the zeros and indexes
are band independent, while sinks and sources swap.

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
from .model import EPS_GAP, KPoint, ModelParams, _kx_pi_roots, _phase, _trig_rho, gapless_boundary

# Scaling R, r and c together leaves the zeros and their kinds unchanged, so
# the census thresholds bound c / R and the fixed-zero gap / R.
C_DEGENERATE = 1e-6


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


def _closed_form_census(p: ModelParams):
    """Each zero as (kx, ky, kind), sorted by location: the four fixed zeros and the cubic's."""
    if p.c == 0.0:
        raise DegenerateField(
            f"axis shift c = {p.c} makes the kx-velocity vanish identically: "
            "the zero set consists of curves, not isolated points"
        )
    if p.c / p.R <= C_DEGENERATE:
        raise DegenerateField(
            f"axis shift c / R = {p.c / p.R:.3e} <= {C_DEGENERATE:.0e}: the kx-velocity, "
            "proportional to c, is too weak to isolate and classify the zeros"
        )
    # |h| at (pi, pi) and (pi, 0), the only points where the gap can close
    gap = min(abs(p.c - b) for b in gapless_boundary(p.R, p.r))
    if gap / p.R <= EPS_GAP:
        raise GaplessModel(f"band gap closes at a fixed zero (|h| = {gap:.3e}); the velocity is undefined there")
    past_pitchfork, below_fold = _phase(p)
    if not past_pitchfork * below_fold:
        which = "pitchfork c_p" if not past_pitchfork else "fold c_f"
        raise DegenerateZero(f"c = {p.c} is the {which} exactly, where zeros merge and det J = 0")
    pi_0, pi_pi = (SOURCE, SADDLE) if past_pitchfork > 0 else (SADDLE, SOURCE)
    kx_0 = [(0.0, -math.pi, SADDLE), (0.0, 0.0, SINK)]
    if past_pitchfork < 0 or below_fold < 0:
        return [(-math.pi, -math.pi, pi_pi), (-math.pi, 0.0, pi_0), *kx_0]
    roots = _kx_pi_roots(p)
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
    """
    sy, cy, rho, hz = _trig_rho(ky, p)[:4]
    rr = p.r * p.R
    c_rho, c_rr, hz2 = -p.c * rho, p.c * rr, hz * hz
    a, b, d = -rr * cy, cy / rho + rr * sy * sy / rho**3, p.r**2 * (cy * cy - sy * sy)
    jacobians = []
    for cx in (-1.0, 1.0):
        u = rho * cx + p.c
        gap = math.sqrt(u * u + hz2)
        hxx, hyy = c_rho * cx / gap, (a - c_rr * cx * b + d) / gap
        jacobians.append((hxx * hyy, hxx + hyy))
    return jacobians


def _census_zeros(p: ModelParams) -> list:
    """(kx, ky, det J, trace J, kind) of each census zero, in the order of ``_closed_form_census``.

    The one census kernel: the fixed zeros share the lines ky = -pi and 0, and each pair
    (pi, -+arccos u) one line, evaluated once (``_line_jacobians``).  The float det and trace
    must show the exact kind: det < 0 for a saddle, det > 0 and the trace's sign otherwise.
    """
    lines, zeros = {}, []
    for kx, ky, kind in _closed_form_census(p):
        if abs(ky) not in lines:
            lines[abs(ky)] = _line_jacobians(ky, p)
        det, trace = lines[abs(ky)][kx == 0.0]
        if not (det < 0.0 if kind is SADDLE else det > 0.0 and (trace < 0.0) is (kind is SINK)):
            raise DegenerateZero(
                f"det J = {det:.3e} and trace J = {trace:.3e} at ({kx:.6g}, {ky:.6g}) do not show a {kind.value}"
            )
        zeros.append((kx, ky, det, trace, kind))
    return zeros


def _chi(p: ModelParams) -> int:
    """``euler_characteristic(p).chi``, with the same refusals, from the kernel alone: no records."""
    return sum([-1 if z[4] is SADDLE else 1 for z in _census_zeros(p)])


def euler_characteristic(p: ModelParams) -> EulerResult:
    """Locate and classify every zero; chi is their index sum (Poincare-Hopf).

    ``modes`` has one ZeroMode per canonical zero, sorted by location.

    Raises DegenerateField when c is (numerically) zero, GaplessModel when
    the gap closes at a fixed zero, DegenerateZero when c is c_p or c_f
    exactly or the float Jacobian at a zero does not show its kind, and
    NonIsolatedZero when the float cubic misses a root pair.
    """
    modes = [ZeroMode(KPoint(kx, ky), det, trace, kind) for kx, ky, det, trace, kind in _census_zeros(p)]
    return EulerResult(sum(z.index for z in modes), modes)
