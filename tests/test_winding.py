"""Winding numbers: planar core, the Hermitian velocity and non-Hermitian bands.

A non-Hermitian band E enters ``winding`` as (Re dE/dk, Im dE/dk) along
one axis, from E's analytic derivative.
"""

import math

import numpy as np
import pytest

from blochflow import (
    KPoint,
    LoopSpec,
    ModelParams,
    euler_characteristic,
    winding_hermitian,
)
from blochflow.errors import GaplessPoint, InsufficientSampling, ZeroOnLoop
from blochflow.model import reduce_angle
from blochflow.winding import winding, winding_planar

from oracles import unwrap_winding, velocity_and_gap

P1 = ModelParams(3, 1, 1)
PI = math.pi


def band_derivative(d_e):
    """The planar field (Re dE/dk, Im dE/dk) of a complex derivative ``d_e(kx, ky)``, for ``winding``."""
    return lambda kx, ky: [(d.real, d.imag) for d in map(d_e, kx, ky)]


def circle_samples(n, turns=1, reverse=False):
    t = np.linspace(0.0, 2 * PI * turns, n)
    s = -1.0 if reverse else 1.0
    return np.stack([np.cos(t), s * np.sin(t)], axis=1)


def test_planar_unit_circle():
    res = winding_planar(circle_samples(64))
    assert res.w == 1
    assert abs(res.total_angle / (2 * PI) - res.w) <= 1e-6
    assert res.min_field_norm == pytest.approx(1.0, abs=1e-12)


def test_planar_reversed_circle():
    assert winding_planar(circle_samples(64, reverse=True)).w == -1


def test_planar_constant_field():
    res = winding_planar([(1.0, 0.0)] * 32)
    assert res.w == 0
    assert res.total_angle == 0.0


def test_planar_zero_on_loop():
    samples = circle_samples(64)
    samples[10] = (0.0, 0.0)
    with pytest.raises(ZeroOnLoop):
        winding_planar(samples)


def test_planar_insufficient_sampling():
    # four turns over 16 samples puts every increment at exactly pi/2
    with pytest.raises(InsufficientSampling):
        winding_planar(circle_samples(16, turns=4)[:-1])


def test_planar_input_validation():
    with pytest.raises(ValueError):
        winding_planar([(1.0, 0.0)])
    for bad in (math.nan, math.inf):
        samples = circle_samples(64)
        samples[10, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            winding_planar(samples)
    # winding passes a band's non-finite derivative on to the same check
    d_e = lambda kx, ky: complex(math.nan, 0.0) if ky > 0.25 else 1 + 1j
    with pytest.raises(ValueError, match="finite"):
        winding(LoopSpec.circle(KPoint(0, 0), 0.3), band_derivative(d_e))


def test_loopspec_validation():
    with pytest.raises(ValueError):
        LoopSpec.circle(KPoint(0, 0), -0.1)
    bad = ((KPoint(math.nan, 0), 0.3), (KPoint(0, math.inf), 0.3), (KPoint(0, 0), math.nan), (KPoint(0, 0), math.inf))
    for center, radius in bad:
        with pytest.raises(ValueError, match="finite"):
            LoopSpec.circle(center, radius)
    with pytest.raises(ValueError):
        LoopSpec.polyline([KPoint(0, 0), KPoint(1, 0), KPoint(0, 0)])
    open_pts = [KPoint(0.3 * math.cos(u), 0.3 * math.sin(u)) for u in np.linspace(0, 5.0, 40)]
    with pytest.raises(ValueError):
        LoopSpec.polyline(open_pts)
    closed = [KPoint(0.3 * math.cos(u), 0.3 * math.sin(u)) for u in np.linspace(0, 2 * PI, 40)]
    for bad in (KPoint(math.nan, 0), KPoint(0, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            LoopSpec.polyline(closed[:10] + [bad] + closed[11:])
    # nan ends would pass the closure check: hypot(nan) > 1e-9 is False
    with pytest.raises(ValueError, match="finite"):
        LoopSpec.polyline([KPoint(math.nan, 0)] + closed[1:-1] + [KPoint(math.nan, 0)])


@pytest.mark.parametrize(
    "center,expected",
    [
        ((0.0, 0.0), 1),       # sink
        ((PI, 0.0), -1),       # saddle
        ((0.0, PI), -1),       # saddle
        ((PI, PI), 1),         # source
        ((1.5, 1.5), 0),       # nothing enclosed
    ],
)
def test_hermitian_winding(center, expected):
    res = winding_hermitian(LoopSpec.circle(KPoint(*center), 0.3), P1)
    assert res.w == expected
    assert res.min_field_norm > 0
    # independent check via numpy phase unwrapping at dense sampling
    assert round(unwrap_winding(center, 0.3, P1)) == expected


def test_winding_equals_index_for_all_zeros():
    for z in euler_characteristic(P1).modes:
        loop = LoopSpec.circle(z.location, 0.3)
        assert winding_hermitian(loop, P1).w == z.index


def _rectangle(kx_lo, kx_hi, ky_lo, ky_hi, per_side=200):
    corners = [(kx_lo, ky_lo), (kx_hi, ky_lo), (kx_hi, ky_hi), (kx_lo, ky_hi)]
    pts = []
    for (x0, y0), (x1, y1) in zip(corners, corners[1:] + corners[:1]):
        for t in np.arange(per_side) / per_side:
            pts.append(KPoint(x0 + t * (x1 - x0), y0 + t * (y1 - y0)))
    return pts + [pts[0]]


@pytest.mark.parametrize(
    "ky_lo,ky_hi,enclosed",
    [
        (-0.52, 0.52, 1),  # the source at (pi, 0)
        (-1.66, 1.66, 3),  # that source and the pitchfork saddle pair
        (0.5, 2.7, 2),     # a saddle and a source
    ],
)
def test_winding_equals_enclosed_index_sum(ky_lo, ky_hi, enclosed):
    # (3, 1, 3) lies between the pitchfork and the fold: 8 zeros, 6 of
    # them on kx = pi.  A rectangle around a stretch of that line winds
    # by the index sum of the zeros it holds.
    p = ModelParams(3, 1, 3)
    half = 1.0
    inside = [
        z
        for z in euler_characteristic(p).modes
        if abs(reduce_angle(z.location.kx - PI)) < half and ky_lo < z.location.ky < ky_hi
    ]
    assert len(inside) == enclosed
    loop = LoopSpec.polyline(_rectangle(PI - half, PI + half, ky_lo, ky_hi))
    assert winding_hermitian(loop, p).w == sum(z.index for z in inside)


@pytest.mark.parametrize("s", [1e-12, 1e-10, 1e-8, 1e-4, 1.0, 1e4, 1e8])
def test_winding_is_scale_free(s):
    # scaling R, r and c by s scales h and the velocity by s, so neither
    # the gap floor nor the zero-on-loop floor may depend on the units;
    # the default CLI loop around the sink of (3, 1, 3)
    loop = LoopSpec.circle(KPoint(0, 0), 0.3)
    ref = winding_hermitian(loop, ModelParams(3, 1, 3))
    res = winding_hermitian(loop, ModelParams(3 * s, 1 * s, 3 * s))
    assert res.w == ref.w == 1
    assert res.samples == ref.samples
    assert res.min_field_norm == pytest.approx(s * ref.min_field_norm, rel=1e-9)
    # a non-Hermitian band has no R: E = s ((kx - a)^2 / 2 + i (ky - b) kx),
    # dE/dkx = s ((kx - a) + i (ky - b))
    a, b = 1.0, 0.5
    d_e = lambda kx, ky: s * ((kx - a) + 1j * (ky - b))
    res = winding(LoopSpec.circle(KPoint(a, b), 0.4), band_derivative(d_e))
    assert res.w == 1
    assert res.min_field_norm == pytest.approx(s * 0.4, rel=1e-6)


def test_orientation_reversal_negates():
    t = np.linspace(0, 2 * PI, 129)
    fwd = [KPoint(0.3 * math.cos(u), 0.3 * math.sin(u)) for u in t]
    rev = list(reversed(fwd))
    a = winding_hermitian(LoopSpec.polyline(fwd), P1)
    b = winding_hermitian(LoopSpec.polyline(rev), P1)
    assert a.w == 1 and b.w == -1
    assert a.total_angle == pytest.approx(-b.total_angle, abs=1e-9)


def test_loop_deformation_invariance():
    # loops homotopic in the complement of the zeros give equal w
    for radius in (0.15, 0.3, 0.45):
        assert winding_hermitian(LoopSpec.circle(KPoint(0, 0), radius), P1).w == 1
    for radius in (0.1, 0.2):
        assert winding_hermitian(LoopSpec.circle(KPoint(1.5, 1.5), radius), P1).w == 0


def test_hermitian_zero_on_loop():
    # a loop through the origin hits the sink dead on
    with pytest.raises(ZeroOnLoop):
        winding_hermitian(LoopSpec.circle(KPoint(0.3, 0.0), 0.3), P1)


def test_hermitian_gapless_loop():
    # loop passing straight through the band touching at (pi, pi)
    p = ModelParams(3, 1, 2)
    with pytest.raises(GaplessPoint):
        winding_hermitian(LoopSpec.circle(KPoint(PI - 0.2, PI), 0.2), p)


def test_nonhermitian_constant_pair():
    # E = (kx - pi) + i (ky - pi): dE/dkx = 1 + 0i is constant
    d_e = lambda kx, ky: 1.0 + 0j
    res = winding(LoopSpec.circle(KPoint(PI, PI), 0.4), band_derivative(d_e))
    assert res.w == 0


def test_nonhermitian_enclosed_zero():
    # E = (kx - a)^2 / 2 + i (ky - b) kx: dE/dkx = (kx - a) + i (ky - b)
    a, b = 1.0, 0.5
    d_e = lambda kx, ky: (kx - a) + 1j * (ky - b)
    inside = winding(LoopSpec.circle(KPoint(a, b), 0.4), band_derivative(d_e))
    outside = winding(LoopSpec.circle(KPoint(a + 2.0, b), 0.4), band_derivative(d_e))
    assert inside.w == 1
    assert outside.w == 0


def test_nonhermitian_autodensification():
    # E = ((kx-a) + i(ky-b))^65 / 65: dE/dkx = ((kx-a) + i(ky-b))^64 winds
    # 64 times; the circle's 256 starting samples put the increments at
    # exactly pi/2, so winding must densify
    a, b = 1.0, 1.0
    d_e = lambda kx, ky: ((kx - a) + 1j * (ky - b)) ** 64
    res = winding(LoopSpec.circle(KPoint(a, b), 1.0), band_derivative(d_e))
    assert res.w == 64
    assert res.samples == 512


def test_nonhermitian_real_band_domain():
    # a purely real band E = |h| has no imaginary velocity: dE/dkx = vx.
    # Near a velocity zero the pair degenerates and winding must refuse
    d_e = lambda kx, ky: velocity_and_gap(kx, ky, P1)[0]
    with pytest.raises(ZeroOnLoop):
        winding(LoopSpec.circle(KPoint(0, 0), 0.3), band_derivative(d_e))


def test_nonhermitian_y_axis_pair():
    # E = (ky - b)^2 / 2 + i (kx - a) ky: the y-axis pair (Re dE/dky,
    # Im dE/dky) = ((ky - b), (kx - a)) is the mirrored circle field, so the
    # loop around (a, b) winds once with reversed orientation
    a, b = 0.5, 1.0
    d_e = lambda kx, ky: (ky - b) + 1j * (kx - a)
    res = winding(LoopSpec.circle(KPoint(a, b), 0.4), band_derivative(d_e))
    assert res.w == -1
