"""Winding numbers: planar core, Hermitian and non-Hermitian adapters."""

import math

import numpy as np
import pytest

from blochflow import (
    KPoint,
    LoopSpec,
    ModelParams,
    find_zero_modes,
    winding_hermitian,
    winding_nonhermitian,
)
from blochflow.errors import GaplessPoint, InsufficientSampling, ZeroOnLoop
from blochflow.model import bloch_components
from blochflow.winding import winding_planar
from blochflow.zeromode import WeightMode

from oracles import unwrap_winding

P1 = ModelParams(3, 1, 1)
PI = math.pi


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


def test_loopspec_validation():
    with pytest.raises(ValueError):
        LoopSpec.circle(KPoint(0, 0), -0.1)
    bad = ((KPoint(math.nan, 0), 0.3), (KPoint(0, math.inf), 0.3), (KPoint(0, 0), math.nan), (KPoint(0, 0), math.inf))
    for center, radius in bad:
        with pytest.raises(ValueError, match="finite"):
            LoopSpec.circle(center, radius)
    with pytest.raises(ValueError):
        LoopSpec.circle(KPoint(0, 0), 0.3, samples=8)
    with pytest.raises(ValueError):
        LoopSpec.polyline([KPoint(0, 0), KPoint(1, 0), KPoint(0, 0)])
    open_pts = [KPoint(0.3 * math.cos(u), 0.3 * math.sin(u)) for u in np.linspace(0, 5.0, 40)]
    with pytest.raises(ValueError):
        LoopSpec.polyline(open_pts)


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
    for z in find_zero_modes(P1, weight_mode=WeightMode.CANONICAL_CELL):
        loop = LoopSpec.circle(z.location, 0.3)
        assert winding_hermitian(loop, P1).w == z.index


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


def test_sampling_convergence():
    base = winding_hermitian(LoopSpec.circle(KPoint(0, 0), 0.3, samples=16), P1)
    for factor in (2, 4, 8, 16):
        denser = winding_hermitian(
            LoopSpec.circle(KPoint(0, 0), 0.3, samples=16 * factor), P1
        )
        assert denser.w == base.w == 1


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
    band = lambda kx, ky: (kx - PI) + 1j * (ky - PI)
    res = winding_nonhermitian(LoopSpec.circle(KPoint(PI, PI), 0.4), band, component="x")
    assert res.w == 0  # dE/dkx = 1 + 0i is constant


def test_nonhermitian_enclosed_zero():
    a, b = 1.0, 0.5
    band = lambda kx, ky: 0.5 * (kx - a) ** 2 + 1j * ((ky - b) * kx)
    inside = winding_nonhermitian(LoopSpec.circle(KPoint(a, b), 0.4), band)
    outside = winding_nonhermitian(LoopSpec.circle(KPoint(a + 2.0, b), 0.4), band)
    assert inside.w == 1
    assert outside.w == 0


def test_nonhermitian_autodensification():
    # dE/dkx = ((kx-a) + i(ky-b))^4 winds four times; 16 samples put the
    # increments at exactly pi/2, so the adapter must densify
    a, b = 1.0, 1.0
    band = lambda kx, ky: ((kx - a) + 1j * (ky - b)) ** 5 / 5.0
    res = winding_nonhermitian(LoopSpec.circle(KPoint(a, b), 1.0, samples=16), band)
    assert res.w == 4
    assert res.samples == 32


def test_nonhermitian_real_band_domain():
    # a purely real band has no imaginary velocity; near a velocity zero
    # the pair degenerates and the adapter must refuse
    def real_band(kx, ky):
        hx, hy, hz = bloch_components(kx, ky, P1)
        return complex(math.sqrt(hx * hx + hy * hy + hz * hz))

    with pytest.raises(ZeroOnLoop):
        winding_nonhermitian(LoopSpec.circle(KPoint(0, 0), 0.3), real_band)


def test_nonhermitian_component_validation():
    band = lambda kx, ky: kx + 1j * ky
    with pytest.raises(ValueError):
        winding_nonhermitian(LoopSpec.circle(KPoint(0, 0), 0.3), band, component="z")


def test_component_selector_y_axis():
    # dE/dky = (ky - b) + i(kx - a): the pair is the mirrored circle field,
    # so the loop around (a, b) winds once with reversed orientation
    a, b = 0.5, 1.0
    band = lambda kx, ky: 0.5 * (ky - b) ** 2 + 1j * ((kx - a) * ky)
    res = winding_nonhermitian(LoopSpec.circle(KPoint(a, b), 0.4), band, component="y")
    assert res.w == -1
