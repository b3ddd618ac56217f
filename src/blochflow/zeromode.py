"""Zero modes of the velocity field and their index-sum invariant.

The zeros are known in closed form.  Since vx = -c rho sin kx / |h|, every
zero lies on kx in {0, pi}.  Four are fixed, at ky in {0, pi}; the others
are (pi, -+arccos u) for each root u in (-1, 1) of the cubic that
``gap_min`` also solves (``model._kx_pi_roots``).  Where the count changes,
at the pitchfork c_p and the fold c_f (``model.zero_bifurcations``), the
census refuses crowded zeros (NonIsolatedZero), singular Jacobians
(DegenerateZero) and any c within rounding of the float c_f.
Each zero is then classified by its velocity Jacobian, the Hessian of |h|
there, in ``math``, diagonal on kx in {0, pi} and evaluated once per ky
line (``_census_zeros``).  A negative determinant is a saddle (index -1), a
positive one a sink or source by the trace sign (index +1); ``_index``
holds this rule and the DegenerateZero threshold.  The velocity is that of
the upper band +|h|; the lower band carries -v and the negated Hessian, so
the zeros and indexes are band independent, while sinks and sources swap.

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
from .model import EPS_GAP, TWO_PI, KPoint, ModelParams, gapless_boundary, reduce_angle, zero_bifurcations
from .model import _kx_pi_roots, _trig_rho

# The model is scale-covariant: scaling R, r and c by s scales h and c by s
# and the Jacobian determinant by s^2, and leaves the zeros and their kinds
# unchanged.  So the census thresholds bound scale-free quantities: c / R,
# the fixed-zero gap / R, det J / R^2 and ISOLATION_RADIUS, a distance in
# k.  The last two refuse near the bifurcations, where zeros are born or merge.
ISOLATION_RADIUS = 1e-3
DET_EPS = 1e-8
C_DEGENERATE = 1e-6


class ZeroKind(Enum):
    SINK = "sink"
    SOURCE = "source"
    SADDLE = "saddle"


class ZeroMode(NamedTuple):
    """A located, classified zero of the velocity field."""

    location: KPoint
    det: float
    trace: float
    kind: ZeroKind

    @property
    def index(self) -> int:
        """Poincare index: -1 for a saddle, +1 for a sink or source."""
        return -1 if self.kind is ZeroKind.SADDLE else 1


class EulerResult(NamedTuple):
    chi: int
    modes: list


def _index(det: float, R: float) -> int:
    """Poincare index by det J: -1 for det < 0, else +1; DegenerateZero where |det| / R^2 <= DET_EPS."""
    if abs(det) / (R * R) <= DET_EPS:
        raise DegenerateZero(f"|det J| = {abs(det):.3e} <= {DET_EPS * R * R:.1e}")
    return -1 if det < 0.0 else 1


def classify(det: float, trace: float, R: float) -> ZeroKind:
    """Saddle where the index is -1 (``_index``), else sink/source by the trace sign; may raise DegenerateZero."""
    if _index(det, R) < 0:
        return ZeroKind.SADDLE
    return ZeroKind.SINK if trace < 0.0 else ZeroKind.SOURCE


def _closed_form_census(p: ModelParams):
    """Canonical zero locations, sorted: the four fixed zeros and the cubic's."""
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
    # Just inside the fold, the float tests c < c_f and e > 0 of ``_kx_pi_roots``
    # can miss a root pair that exact arithmetic has, and the census would count
    # 4 zeros for 8.  With u = 2^-53, |fl(c_f) - c_f| <= (1.5 * 3 + 2 + 2) u c_f:
    # the sum's 3u to the power 3/2, pow's ulp, R^2 and the /.  e > 0 decides
    # c < c_f for a fold moved by g = c/R (u), s = r/R (3u/4) and the Horner error
    # at the stationary u = -s/3 (2u).  So wrong counts lie within 12.25 u c_f.
    c_f = zero_bifurcations(p.R, p.r)[1]
    if abs(p.c - c_f) <= 16.0 * math.ulp(c_f):  # ulp(x) > u x
        raise NonIsolatedZero(f"c = {p.c} is within rounding of the fold c_f = {c_f}: 8 zeros or 4")
    roots = _kx_pi_roots(p)
    if not roots:  # only the fixed zeros, pi apart: none crowds another
        return [(-math.pi, -math.pi), (-math.pi, 0.0), (0.0, -math.pi), (0.0, 0.0)]
    ky_pi = sorted([-math.pi, 0.0, *(s * math.acos(u) for u in roots for s in (-1.0, 1.0))])
    _check_isolated(ky_pi)
    return [(-math.pi, y) for y in ky_pi] + [(0.0, -math.pi), (0.0, 0.0)]


def _check_isolated(ky):
    """Raise NonIsolatedZero for the first neighbours on kx = pi closer than ISOLATION_RADIUS.

    ``ky`` holds the sorted ky values of the zeros on that line; the two on
    kx = 0 are pi apart and at least pi from the line.  Each is compared
    with the next, and the largest with the smallest plus 2 pi.  Distinct
    zeros must stay well separated for the index sum to be meaningful.
    """
    for a, b in zip(ky, ky[1:] + [ky[0] + TWO_PI]):
        if b - a < ISOLATION_RADIUS:
            raise NonIsolatedZero(
                f"zeros at ({-math.pi:.6g}, {a:.6g}) and ({-math.pi:.6g}, {reduce_angle(b):.6g}) "
                f"are only {b - a:.3e} apart"
            )


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
    """(kx, ky, det J, trace J) of each census zero, in the order of ``_closed_form_census``.

    The one census kernel: the fixed zeros share the lines ky = -pi and 0, and each pair
    (pi, -+arccos u) one line, evaluated once (``_line_jacobians``).  Its consumers apply ``_index``.
    """
    lines, zeros = {}, []
    for kx, ky in _closed_form_census(p):
        if abs(ky) not in lines:
            lines[abs(ky)] = _line_jacobians(ky, p)
        zeros.append((kx, ky, *lines[abs(ky)][kx == 0.0]))
    return zeros


def _chi(p: ModelParams) -> int:
    """``euler_characteristic(p).chi``, with the same refusals, from the kernel alone: no records."""
    return sum([_index(z[2], p.R) for z in _census_zeros(p)])


def euler_characteristic(p: ModelParams) -> EulerResult:
    """Locate, validate and classify every zero; chi is their index sum (Poincare-Hopf).

    ``modes`` has one ZeroMode per canonical zero, sorted by location.

    Raises DegenerateField when c is (numerically) zero, GaplessModel when
    the gap closes at a fixed zero, DegenerateZero for a Jacobian
    determinant below threshold, NonIsolatedZero when two distinct zeros
    crowd each other or c is within rounding of the fold.
    """
    modes = [ZeroMode(KPoint(kx, ky), det, trace, classify(det, trace, p.R)) for kx, ky, det, trace in _census_zeros(p)]
    return EulerResult(sum(z.index for z in modes), modes)
