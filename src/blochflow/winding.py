"""Generalized winding numbers of planar fields along closed loops.

The winding number is the accumulated angle of a nonvanishing planar
field along a closed loop, divided by 2*pi.  It is computed as the sum of
wrapped angle increments between consecutive samples, closing the loop
from the last sample back to the first; increments must stay below pi/2
or the sampling is declared too coarse.  The sample count is not a
setting: the adapters here sample a circle at ``DEFAULT_SAMPLES`` points
and double that until the increments are fine enough (up to
``MAX_SAMPLES``); a polyline is taken as given and never densified.

Adapters:

* Hermitian: the planar pair is the band velocity (vx, vy).  For a small
  loop around a nondegenerate zero the winding equals the zero's Poincare
  index (+1 sink/source, -1 saddle); a loop enclosing nothing gives 0.
* Non-Hermitian: a complex band energy carries a complex velocity
  v = grad Re(E) + i grad Im(E).  Both parts are 2-vectors, so the planar
  pair is chosen per axis: (Re dE/dk_axis, Im dE/dk_axis), x by default.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GaplessPoint, InsufficientSampling, ZeroOnLoop
from .field import EPS_GAP, velocity_and_gap
from .model import TWO_PI, KPoint, ModelParams, reduce_angle

MIN_SAMPLES = 16
DEFAULT_SAMPLES = 256
MAX_SAMPLES = 4096
MAX_INCREMENT = math.pi / 2
NORM_FLOOR = 1e-12
# Central-difference step of winding_nonhermitian's band derivative.
FD_STEP = 1e-6


@dataclass(frozen=True)
class LoopSpec:
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

    def sample_points(self, n: int):
        """Loop sample coordinates as arrays (kx, ky), closure left implicit: n on a circle, a polyline's own."""
        if self.points is not None:
            kx = np.array([q.kx for q in self.points[:-1]])
            ky = np.array([q.ky for q in self.points[:-1]])
            return kx, ky
        t = TWO_PI * np.arange(n) / n
        return self.center.kx + self.radius * np.cos(t), self.center.ky + self.radius * np.sin(t)


@dataclass(frozen=True)
class WindingResult:
    w: int
    total_angle: float
    min_field_norm: float
    samples: int


def winding_planar(field_samples) -> WindingResult:
    """Winding of a sampled planar field around its implicit closed loop.

    ``field_samples`` is a sequence of (a, b) pairs or an (N, 2) array.
    Raises ValueError on a non-finite sample, ZeroOnLoop if any sample
    norm drops to ``NORM_FLOOR`` times the largest (a scale-free floor)
    and InsufficientSampling if any wrapped increment reaches pi/2.
    """
    arr = np.asarray(field_samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 3:
        raise ValueError("expected at least 3 samples of shape (N, 2)")
    if not np.all(np.isfinite(arr)):
        raise ValueError("field samples must be finite")
    a, b = arr[:, 0], arr[:, 1]
    norms = np.hypot(a, b)
    min_norm = float(np.min(norms))
    if min_norm <= NORM_FLOOR * float(np.max(norms)):
        raise ZeroOnLoop(f"field norm {min_norm:.3e} on the loop is at or below {NORM_FLOOR:.1e} times its largest")
    angles = np.arctan2(b, a)
    incr = reduce_angle(np.diff(angles, append=angles[:1]))
    worst = float(np.max(np.abs(incr)))
    if worst >= MAX_INCREMENT:
        raise InsufficientSampling(
            f"angle increment {worst:.3f} rad >= pi/2; sample the loop more densely"
        )
    total = float(np.sum(incr))
    return WindingResult(int(round(total / TWO_PI)), total, min_norm, arr.shape[0])


def _with_densification(loop: LoopSpec, evaluate) -> WindingResult:
    """Run winding_planar on ``evaluate(kx, ky)`` of the loop samples, doubling a circle's as needed."""
    n = DEFAULT_SAMPLES
    while True:
        try:
            return winding_planar(evaluate(*loop.sample_points(n)))
        except InsufficientSampling:
            n *= 2
            if loop.points is not None or n > MAX_SAMPLES:
                raise


def winding_hermitian(loop: LoopSpec, p: ModelParams) -> WindingResult:
    """Winding of the band velocity along the loop.

    The loop must avoid zero modes (ZeroOnLoop otherwise) and band
    touchings, gap / R at most ``field.EPS_GAP`` (GaplessPoint).
    """

    def evaluate(kx, ky):
        vx, vy, gap = velocity_and_gap(kx, ky, p)
        g = float(np.min(gap))
        if g / p.R <= EPS_GAP:
            raise GaplessPoint(f"loop touches a gapless point (min |h| / R = {g / p.R:.3e} <= {EPS_GAP:.1e})")
        return np.stack([vx, vy], axis=1)

    return _with_densification(loop, evaluate)


def winding_nonhermitian(
    loop: LoopSpec,
    band: Callable[[float, float], complex],
    component: str = "x",
) -> WindingResult:
    """Winding of (Re dE/dk_axis, Im dE/dk_axis) for a complex band energy.

    ``band`` maps (kx, ky) to a complex energy; the derivative along the
    selected axis is taken by central differences of step ``FD_STEP``.
    With a purely real band the imaginary part vanishes identically and
    the angle is only defined while the real part keeps its sign; loops
    crossing its zero set raise ZeroOnLoop.
    """
    if component not in ("x", "y"):
        raise ValueError(f"component must be 'x' or 'y', got {component!r}")

    def evaluate(kx, ky):
        out = np.empty((kx.size, 2))
        for i in range(kx.size):
            if component == "x":
                d = band(kx[i] + FD_STEP, ky[i]) - band(kx[i] - FD_STEP, ky[i])
            else:
                d = band(kx[i], ky[i] + FD_STEP) - band(kx[i], ky[i] - FD_STEP)
            d = complex(d) / (2.0 * FD_STEP)
            out[i, 0] = d.real
            out[i, 1] = d.imag
        return out

    return _with_densification(loop, evaluate)


def winding_json(res: WindingResult) -> str:
    return json.dumps(
        {
            "w": res.w,
            "total_angle": res.total_angle,
            "min_field_norm": res.min_field_norm,
            "samples_used": res.samples,
        },
        indent=2,
    )
