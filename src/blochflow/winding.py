"""Generalized winding numbers of planar fields along closed loops.

The winding number is the accumulated angle of a nonvanishing planar
field along a closed loop, divided by 2*pi.  It is computed as the sum of
wrapped angle increments between consecutive samples, closing the loop
from the last sample back to the first; increments must stay below pi/2
or the sampling is declared too coarse.  The sample count is not a
setting: ``winding`` samples a circle at ``DEFAULT_SAMPLES`` points and
doubles that until the increments are fine enough (up to
``MAX_SAMPLES``); a polyline is taken as given and never densified.
Samples, fields and angles are lists of floats, computed with ``math``.

``winding(loop, field)`` is the one definition, for any planar field:

* Hermitian: the planar pair is the band velocity (vx, vy)
  (``winding_hermitian``).  For a small loop around a nondegenerate zero
  the winding equals the zero's Poincare index (+1 sink/source, -1
  saddle); a loop enclosing nothing gives 0.
* Non-Hermitian: a complex band energy E carries a complex velocity
  v = grad Re(E) + i grad Im(E).  Both parts are 2-vectors, so the planar
  pair is taken along one axis, (Re dE/dkx, Im dE/dkx) for x, from the
  caller's analytic derivative of E.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import GaplessPoint, InsufficientSampling, ZeroOnLoop
from .model import EPS_GAP, TWO_PI, KPoint, ModelParams, _bloch, _kx_trig, _trig_rho, reduce_angle

MIN_SAMPLES = 16
DEFAULT_SAMPLES = 256
MAX_SAMPLES = 4096
MAX_INCREMENT = math.pi / 2
NORM_FLOOR = 1e-12


class LoopSpec(NamedTuple):
    """A closed sampling loop in the zone: a circle or an explicit polyline."""

    center: KPoint | None = None
    radius: float = 0.0
    points: tuple | None = None

    @classmethod
    def circle(cls, center: KPoint, radius: float) -> "LoopSpec":
        if not (math.isfinite(center.kx) and math.isfinite(center.ky)):
            raise ValueError(f"loop center must be finite, got ({center.kx}, {center.ky})")
        if not 0.0 < radius < math.inf:
            raise ValueError(f"loop radius must be positive and finite, got {radius}")
        # center +- radius rounding back to the center would put every sample on one kx or one ky
        if any(x + radius == x or x - radius == x for x in center):
            raise ValueError(f"loop radius {radius!r} is too small to move center {tuple(center)} in floats")
        return cls(center=center, radius=radius)

    @classmethod
    def polyline(cls, points) -> "LoopSpec":
        pts = tuple(points)
        if len(pts) < MIN_SAMPLES + 1:
            raise ValueError(f"polyline loop needs at least {MIN_SAMPLES + 1} points")
        if not all(math.isfinite(q.kx) and math.isfinite(q.ky) for q in pts):
            raise ValueError("polyline points must be finite")
        first = pts[0].canonical()
        last = pts[-1].canonical()
        if math.hypot(
            reduce_angle(first.kx - last.kx), reduce_angle(first.ky - last.ky)
        ) > 1e-9:
            raise ValueError("polyline loop must be closed (first and last point coincide)")
        return cls(points=pts)

    def sample_points(self, n: int) -> tuple:
        """Loop sample coordinates as lists (kx, ky), closure left implicit: n on a circle, a polyline's own."""
        if self.points is not None:
            return [q.kx for q in self.points[:-1]], [q.ky for q in self.points[:-1]]
        t = [TWO_PI * i / n for i in range(n)]
        return (
            [self.center.kx + self.radius * math.cos(a) for a in t],
            [self.center.ky + self.radius * math.sin(a) for a in t],
        )


class WindingResult(NamedTuple):
    w: int
    total_angle: float
    min_field_norm: float
    samples: int


def winding_planar(field_samples) -> WindingResult:
    """Winding of a sampled planar field around its implicit closed loop.

    ``field_samples`` is a sequence of (a, b) pairs.
    Raises ValueError on a non-finite sample, ZeroOnLoop if any sample
    norm drops to ``NORM_FLOOR`` times the largest (a scale-free floor)
    and InsufficientSampling if any wrapped increment reaches pi/2.
    """
    samples = list(field_samples)
    if len(samples) < 3 or any(len(s) != 2 for s in samples):
        raise ValueError("expected at least 3 samples, each an (a, b) pair")
    if not all(math.isfinite(a) and math.isfinite(b) for a, b in samples):
        raise ValueError("field samples must be finite")
    norms = [math.hypot(a, b) for a, b in samples]
    min_norm = min(norms)
    if min_norm <= NORM_FLOOR * max(norms):
        raise ZeroOnLoop(f"field norm {min_norm:.3e} on the loop is at or below {NORM_FLOOR:.1e} times its largest")
    angles = [math.atan2(b, a) for a, b in samples]
    incr = [reduce_angle(b - a) for a, b in zip(angles, angles[1:] + angles[:1])]
    worst = max(abs(d) for d in incr)
    if worst >= MAX_INCREMENT:
        raise InsufficientSampling(
            f"angle increment {worst:.3f} rad >= pi/2; sample the loop more densely"
        )
    total = sum(incr)
    return WindingResult(round(total / TWO_PI), total, min_norm, len(samples))


def winding(loop: LoopSpec, field) -> WindingResult:
    """Winding of the planar field ``field`` along the loop, doubling a circle's samples as needed.

    ``field(kx, ky)`` takes the lists of the loop's sample coordinates and
    returns one (a, b) pair per sample.  For a complex band energy E, pass
    (Re dE/dkx, Im dE/dkx) from E's analytic derivative, for example

        def field(kx, ky):
            return [(x - a, y - b) for x, y in zip(kx, ky)]

    for E = (kx - a)^2 / 2 + i (ky - b) kx, whose dE/dkx is (kx - a) +
    i (ky - b); (Re dE/dky, Im dE/dky) gives the y axis.  With a purely
    real band the imaginary part vanishes identically and the angle is
    only defined while the real part keeps its sign; loops crossing its
    zero set raise ZeroOnLoop.
    """
    n = DEFAULT_SAMPLES
    while True:
        try:
            return winding_planar(field(*loop.sample_points(n)))
        except InsufficientSampling:
            n *= 2
            if loop.points is not None or n > MAX_SAMPLES:
                raise


def winding_hermitian(loop: LoopSpec, p: ModelParams) -> WindingResult:
    """Winding of the band velocity along the loop.

    The loop must avoid zero modes (ZeroOnLoop otherwise) and band
    touchings, gap / R at most ``model.EPS_GAP`` (GaplessPoint).
    """

    def velocity(kx, ky):
        # every sample is a ky line with one node, all in one call
        _, _, vx, vy, gap = _bloch(_kx_trig(kx), [_trig_rho(y, p) for y in ky], p)
        g = min(gap)
        if g / p.R <= EPS_GAP:
            raise GaplessPoint(f"loop touches a gapless point (min |h| / R = {g / p.R:.3e} <= {EPS_GAP:.1e})")
        return list(zip(vx, vy))

    return winding(loop, velocity)
