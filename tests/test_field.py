"""Velocity field: closed form vs frame projection, Hessian, band sign."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import blochflow.field
from blochflow import (
    Band,
    Jacobian2,
    KPoint,
    ModelParams,
    velocity_band,
    velocity_closed,
    velocity_jacobian,
)
from blochflow.errors import GaplessPoint
from blochflow.field import hessian_components, velocity_and_gap
from blochflow.model import bloch_components, frame_components

from oracles import (
    fd_energy_gradient,
    fd_velocity_jacobian,
    generic_velocity_and_gap,
    params_near_critical,
    velocity_generic,
)

P1 = ModelParams(3, 1, 1)


def test_velocity_at_origin_is_zero():
    v = velocity_closed(KPoint(0, 0), P1)
    assert (v.vx, v.vy) == (0.0, 0.0)
    v = velocity_generic(KPoint(0, 0), ModelParams(2.5, 0.7, 0.4))
    assert (v.vx, v.vy) == pytest.approx((0.0, 0.0), abs=1e-15)


def test_velocity_halfpi_value():
    # h = (1, 4, 0), |h| = sqrt(17), vx = -rho*c*sin(kx)/|h| = -4/sqrt(17)
    v = velocity_closed(KPoint(math.pi / 2, 0), P1)
    assert v.vx == pytest.approx(-4.0 / math.sqrt(17), abs=1e-14)
    assert v.vy == pytest.approx(0.0, abs=1e-15)


def test_gapless_point_raises():
    with pytest.raises(GaplessPoint):
        velocity_closed(KPoint(math.pi, math.pi), ModelParams(3, 1, 2))
    with pytest.raises(GaplessPoint):
        velocity_generic(KPoint(math.pi, math.pi), ModelParams(3, 1, 2))


def test_dual_formula_agreement():
    t = np.linspace(-math.pi, math.pi, 101)
    kx, ky = np.meshgrid(t, t, indexing="ij")
    vx1, vy1, gap = velocity_and_gap(kx, ky, P1)
    vx2, vy2, _ = generic_velocity_and_gap(kx, ky, P1)
    assert np.min(gap) > 1e-6
    assert np.max(np.abs(vx1 - vx2)) <= 1e-10
    assert np.max(np.abs(vy1 - vy2)) <= 1e-10


def test_velocity_is_energy_gradient():
    t = np.linspace(-math.pi, math.pi, 101)
    kx, ky = np.meshgrid(t, t, indexing="ij")
    vx, vy, _ = velocity_and_gap(kx, ky, P1)
    gx, gy = fd_energy_gradient(kx, ky, P1, step=1e-4)
    assert np.max(np.abs(vx - gx)) <= 1e-6
    assert np.max(np.abs(vy - gy)) <= 1e-6


def test_velocity_bounded_by_frame():
    # |v_i| = |hhat . dh/dk_i| <= |dh/dk_i|, so |v| <= |d_kx| + |d_ky|
    rng = np.random.default_rng(5)
    kx = rng.uniform(-math.pi, math.pi, 500)
    ky = rng.uniform(-math.pi, math.pi, 500)
    vx, vy, _ = velocity_and_gap(kx, ky, P1)
    ax, ay, az, bx, by, bz = frame_components(kx, ky, P1)
    bound = np.sqrt(ax**2 + ay**2 + az**2) + np.sqrt(bx**2 + by**2 + bz**2)
    assert np.all(np.hypot(vx, vy) <= bound + 1e-12)


def test_velocity_periodicity():
    rng = np.random.default_rng(6)
    for kx, ky in rng.uniform(-math.pi, math.pi, (100, 2)):
        a = velocity_closed(KPoint(kx, ky), P1)
        b = velocity_closed(KPoint(kx + 2 * math.pi, ky + 2 * math.pi), P1)
        assert (a.vx, a.vy) == pytest.approx((b.vx, b.vy), abs=1e-12)


def test_jacobian_sink_at_origin():
    # analytic diagonal: dvx/dkx = -rho c/|h| = -4/5, dvy/dky = -(rR/|h|)(1 + c/rho - r/R)
    j = velocity_jacobian(KPoint(0, 0), P1)
    assert j.m[0, 0] == pytest.approx(-0.8, abs=1e-8)
    assert j.m[1, 1] == pytest.approx(-0.55, abs=1e-8)
    assert j.det == pytest.approx(0.44, abs=1e-7)
    assert j.det > 0 and j.trace < 0  # sink


def test_jacobian_saddle_on_edge():
    j = velocity_jacobian(KPoint(math.pi, 0), P1)
    assert j.det == pytest.approx(-5.0 / 9.0, abs=1e-7)
    assert j.det < 0  # saddle


def test_jacobian_symmetry():
    rng = np.random.default_rng(7)
    for kx, ky in rng.uniform(-math.pi, math.pi, (100, 2)):
        j = velocity_jacobian(KPoint(kx, ky), P1)
        assert abs(j.m[0, 1] - j.m[1, 0]) <= 1e-6


@settings(max_examples=150)
@given(params_near_critical(), st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi))
def test_hessian_matches_finite_differences(params, kx, ky):
    # the closed-form Hessian against central differences of the
    # frame-projection velocity, at k where the gap is open
    p = ModelParams(*params)
    hx, hy, hz = bloch_components(kx, ky, p)
    assume(math.sqrt(hx * hx + hy * hy + hz * hz) >= 0.1)
    hxx, hxy, hyy = (float(x) for x in hessian_components(kx, ky, p))
    m00, m01, m10, m11 = (float(x) for x in fd_velocity_jacobian(kx, ky, p))
    scale = 1.0 + max(abs(hxx), abs(hxy), abs(hyy))
    for got, want in ((hxx, m00), (hxy, m01), (hxy, m10), (hyy, m11)):
        assert abs(got - want) <= 1e-6 * scale


def test_jacobian_gapless_stencil():
    # the gap check sits at the point itself
    with pytest.raises(GaplessPoint):
        velocity_jacobian(KPoint(math.pi, math.pi), ModelParams(3, 1, 2))


def test_jacobian_evaluates_velocity_once(monkeypatch):
    # the velocity behind the gap check also feeds the Hessian, which
    # equals hessian_components bit for bit
    calls = []

    def counting(kx, ky, p):
        calls.append((kx, ky))
        return velocity_and_gap(kx, ky, p)

    rng = np.random.default_rng(11)
    for kx, ky in rng.uniform(-2 * math.pi, 2 * math.pi, (20, 2)):
        k = KPoint(kx, ky).canonical()
        want = [float(x) for x in hessian_components(k.kx, k.ky, P1)]
        with monkeypatch.context() as m:
            m.setattr(blochflow.field, "velocity_and_gap", counting)
            calls.clear()
            j = velocity_jacobian(KPoint(kx, ky), P1)
        assert len(calls) == 1
        assert [j.m[0, 0], j.m[0, 1], j.m[1, 1]] == want and j.m[1, 0] == want[1]
    gapless = ModelParams(3, 1, 2)
    with pytest.raises(GaplessPoint) as a:
        velocity_jacobian(KPoint(math.pi, -math.pi), gapless)
    with pytest.raises(GaplessPoint) as b:
        velocity_closed(KPoint(math.pi, -math.pi), gapless)
    assert str(a.value) == str(b.value)


def test_band_velocities_are_opposite():
    rng = np.random.default_rng(8)
    for kx, ky in rng.uniform(-math.pi, math.pi, (50, 2)):
        k = KPoint(kx, ky)
        up = velocity_band(k, P1, Band.UPPER)
        lo = velocity_band(k, P1, Band.LOWER)
        assert (lo.vx, lo.vy) == (-up.vx, -up.vy)


def test_band_zero_sets_and_indexes_coincide():
    # negating a 2x2 Jacobian keeps its determinant, so indexes match
    for kx, ky in ((0.0, 0.0), (math.pi, 0.0), (0.0, math.pi), (math.pi, math.pi)):
        k = KPoint(kx, ky)
        up = velocity_band(k, P1, Band.UPPER)
        lo = velocity_band(k, P1, Band.LOWER)
        assert up.norm <= 1e-12 and lo.norm <= 1e-12
        j = velocity_jacobian(k, P1)
        j_lower = Jacobian2(-j.m)
        assert np.sign(j_lower.det) == np.sign(j.det)
        assert j_lower.trace == pytest.approx(-j.trace, abs=1e-12)
