"""Zero modes of the velocity field and their index-sum invariant.

The zeros are known in closed form.  Since vx = -c rho sin kx / |h|, every
zero lies on kx in {0, pi}.  Four are fixed, at ky in {0, pi}; the others
are (pi, -+arccos u) for each root u in (-1, 1) of the cubic that
``gap_min`` also solves (``model._kx_pi_roots``).  Within
``BIFURCATION_MARGIN`` R of the pitchfork c_p or the fold c_f
(``model.zero_bifurcations``), where the count changes, the census raises
NonIsolatedZero, as it does when two zeros on kx = pi crowd each other.
Each zero is then classified by its velocity Jacobian, the Hessian of
|h| there, in ``math``; on kx in {0, pi} it is diagonal (``_jacobian``).
A negative determinant is a saddle (index -1); a positive one is a sink
or source by the trace sign (index +1).  The velocity is that of the
upper band +|h|; the lower band carries -v and the negated Hessian, so
the zeros and their indexes are band independent, while sinks and
sources trade places.

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
from .model import (
    EPS_GAP,
    TWO_PI,
    KPoint,
    ModelParams,
    _kx_pi_roots,
    _trig_rho,
    gapless_boundary,
    reduce_angle,
    zero_bifurcations,
)

# The model is scale-covariant: scaling R, r and c by s scales h and c by s
# and the Jacobian determinant by s^2, and leaves the zeros and their kinds
# unchanged.  So the census thresholds bound scale-free quantities: c / R,
# the fixed-zero gap / R, the distance in c to a bifurcation / R and
# det J / R^2.  ISOLATION_RADIUS is a distance in k, scale-free already.
# Within BIFURCATION_MARGIN R of a bifurcation, where zeros are born or
# merge, the census raises instead of returning nearly singular Jacobians.
BIFURCATION_MARGIN = 1e-5
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


def _jacobian(kx: float, ky: float, p: ModelParams) -> tuple:
    """The velocity Jacobian at a census zero, where kx is 0 or -+pi: its diagonal (hxx, hyy).

    With G = |h|^2 / 2 = (rho^2 + c^2 + r^2 sin^2 ky) / 2 + c rho cos kx,
    the velocity is v_i = G_i / |h| and its Jacobian (G_ij - v_i v_j) / |h|.
    At a zero v = 0, and on kx in {0, pi} sin kx = 0, so G_xy = 0 and the
    Jacobian is diag(G_xx, G_yy) / |h| with |h| = sqrt((rho cos kx + c)^2 +
    hz^2).  No gap check: where |h| = 0 this raises ZeroDivisionError.
    """
    cx = math.cos(kx)
    sy, cy, rho, hz = _trig_rho(ky, p)[:4]
    u = rho * cx + p.c
    gap = math.sqrt(u * u + hz * hz)
    rr = p.r * p.R
    gyy = -rr * cy - p.c * rr * cx * (cy / rho + rr * sy * sy / rho**3) + p.r**2 * (cy * cy - sy * sy)
    return -p.c * rho * cx / gap, gyy / gap


def classify(det: float, trace: float, R: float) -> ZeroKind:
    """Saddle for det < 0; sink/source for det > 0 by the trace sign.

    Raises DegenerateZero when |det| / R^2 <= DET_EPS, R being the major
    radius of the model that the Jacobian belongs to.
    """
    if abs(det) / (R * R) <= DET_EPS:
        raise DegenerateZero(f"|det J| = {abs(det):.3e} <= {DET_EPS * R * R:.1e}")
    if det < 0.0:
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
    c_p, c_f = zero_bifurcations(p.R, p.r)
    if min(abs(p.c - c_p), abs(p.c - c_f)) / p.R <= BIFURCATION_MARGIN:
        raise NonIsolatedZero(
            f"c = {p.c} is within {BIFURCATION_MARGIN:.0e} R of the pitchfork c_p = {c_p} or the fold "
            f"c_f = {c_f}, where zeros on kx = pi are born or merge"
        )
    ky_pi = sorted([-math.pi, 0.0, *(s * math.acos(u) for u in _kx_pi_roots(p) for s in (-1.0, 1.0))])
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


def euler_characteristic(p: ModelParams) -> EulerResult:
    """Locate, validate and classify every zero; chi is their index sum (Poincare-Hopf).

    ``modes`` has one ZeroMode per canonical zero, sorted by location.

    Raises DegenerateField when c is (numerically) zero, GaplessModel when
    the gap closes at a fixed zero, DegenerateZero for a Jacobian
    determinant below threshold, NonIsolatedZero near a bifurcation or
    when two distinct zeros crowd each other.
    """
    modes = []
    for kx, ky in _closed_form_census(p):
        hxx, hyy = _jacobian(kx, ky, p)
        det, trace = hxx * hyy, hxx + hyy
        modes.append(ZeroMode(KPoint(kx, ky), det, trace, classify(det, trace, p.R)))
    return EulerResult(sum(z.index for z in modes), modes)
