"""Velocity field: closed form vs frame projection, Jacobian at the zeros, band sign.

The point kernel is ``model._bloch`` at one point (``oracles``).  The
diagonal velocity Jacobian at a census zero is the oracle
``census_jacobian``, which the census kernel matches bit for bit
(``test_zeromode``); the general-point Hessian is the oracle
``array_hessian``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings

from blochflow import KPoint, ModelParams
from blochflow.errors import GaplessPoint, TopologyError
from blochflow.model import EPS_GAP
from blochflow.zeromode import _closed_form_census

from oracles import (
    array_hessian,
    census_jacobian,
    bloch_components,
    fd_energy_gradient,
    fd_velocity_jacobian,
    frame_components,
    generic_velocity_and_gap,
    params_near_critical,
    placed,
    pointwise,
    velocity_and_gap,
    velocity_generic,
)

P1 = ModelParams(3, 1, 1)


def _zero_jacobian(kx, ky, p):
    """(hxx, hyy, det, trace) of the census Jacobian at each zero of kx, ky."""
    hxx, hyy = pointwise(census_jacobian, kx, ky, p)
    return hxx, hyy, hxx * hyy, hxx + hyy


def test_velocity_at_origin_is_zero():
    vx, vy, _ = velocity_and_gap(0.0, 0.0, P1)
    assert (vx, vy) == (0.0, 0.0)
    v = velocity_generic(KPoint(0, 0), ModelParams(2.5, 0.7, 0.4))
    assert v == pytest.approx((0.0, 0.0), abs=1e-15)


def test_velocity_halfpi_value():
    # h = (1, 4, 0), |h| = sqrt(17), vx = -rho*c*sin(kx)/|h| = -4/sqrt(17)
    vx, vy, gap = velocity_and_gap(math.pi / 2, 0.0, P1)
    assert vx == pytest.approx(-4.0 / math.sqrt(17), abs=1e-14)
    assert vy == pytest.approx(0.0, abs=1e-15)
    assert gap == pytest.approx(math.sqrt(17), abs=1e-14)


def test_gapless_point_raises():
    # the kernel reports the closed gap for its callers to check; the
    # frame-projection oracle raises at the point
    gapless = ModelParams(3, 1, 2)
    _, _, gap = velocity_and_gap(math.pi, math.pi, gapless)
    assert gap <= EPS_GAP
    with pytest.raises(GaplessPoint):
        velocity_generic(KPoint(math.pi, math.pi), gapless)


def test_dual_formula_agreement():
    t = np.linspace(-math.pi, math.pi, 101)
    kx, ky = np.meshgrid(t, t, indexing="ij")
    vx1, vy1, gap = pointwise(velocity_and_gap, kx, ky, P1)
    vx2, vy2, _ = generic_velocity_and_gap(kx, ky, P1)
    assert np.min(gap) > 1e-6
    assert np.max(np.abs(vx1 - vx2)) <= 1e-10
    assert np.max(np.abs(vy1 - vy2)) <= 1e-10


def test_velocity_is_energy_gradient():
    t = np.linspace(-math.pi, math.pi, 101)
    kx, ky = np.meshgrid(t, t, indexing="ij")
    vx, vy, _ = pointwise(velocity_and_gap, kx, ky, P1)
    gx, gy = fd_energy_gradient(kx, ky, P1, step=1e-4)
    assert np.max(np.abs(vx - gx)) <= 1e-6
    assert np.max(np.abs(vy - gy)) <= 1e-6


def test_velocity_bounded_by_frame():
    # |v_i| = |hhat . dh/dk_i| <= |dh/dk_i|, so |v| <= |d_kx| + |d_ky|
    rng = np.random.default_rng(5)
    kx = rng.uniform(-math.pi, math.pi, 500)
    ky = rng.uniform(-math.pi, math.pi, 500)
    vx, vy, _ = pointwise(velocity_and_gap, kx, ky, P1)
    ax, ay, az, bx, by, bz = frame_components(kx, ky, P1)
    bound = np.sqrt(ax**2 + ay**2 + az**2) + np.sqrt(bx**2 + by**2 + bz**2)
    assert np.all(np.hypot(vx, vy) <= bound + 1e-12)


def test_velocity_periodicity():
    rng = np.random.default_rng(6)
    kx, ky = rng.uniform(-math.pi, math.pi, (2, 100))
    a = np.array(pointwise(velocity_and_gap, kx, ky, P1))
    b = np.array(pointwise(velocity_and_gap, kx + 2 * math.pi, ky + 2 * math.pi, P1))
    assert np.allclose(a, b, atol=1e-12)


def test_jacobian_sink_at_origin():
    # analytic diagonal: dvx/dkx = -rho c/|h| = -4/5, dvy/dky = -(rR/|h|)(1 + c/rho - r/R)
    hxx, hyy, det, trace = _zero_jacobian(0.0, 0.0, P1)
    assert hxx == pytest.approx(-0.8, abs=1e-8)
    assert hyy == pytest.approx(-0.55, abs=1e-8)
    assert array_hessian(np.array([0.0]), np.array([0.0]), P1)[1][0] == 0.0
    assert det == pytest.approx(0.44, abs=1e-7)
    assert det > 0 and trace < 0  # sink


def test_jacobian_saddle_on_edge():
    _, _, det, _ = _zero_jacobian(-math.pi, 0.0, P1)
    assert det == pytest.approx(-5.0 / 9.0, abs=1e-7)
    assert det < 0  # saddle


def test_jacobian_symmetry():
    # the closed-form velocity is a gradient: central differences of it
    # give a symmetric Jacobian whose off-diagonal is the oracle's hxy
    rng = np.random.default_rng(7)
    kx, ky = rng.uniform(-math.pi, math.pi, (2, 100))
    step = 1e-5
    vxp, vyp, _ = pointwise(velocity_and_gap, kx, ky + step, P1)
    vxm, vym, _ = pointwise(velocity_and_gap, kx, ky - step, P1)
    dvx_dky = (vxp - vxm) / (2 * step)
    vxp, vyp, _ = pointwise(velocity_and_gap, kx + step, ky, P1)
    vxm, vym, _ = pointwise(velocity_and_gap, kx - step, ky, P1)
    dvy_dkx = (vyp - vym) / (2 * step)
    hxy = array_hessian(kx, ky, P1)[1]
    assert np.max(np.abs(dvx_dky - dvy_dkx)) <= 1e-6
    assert np.max(np.abs(dvx_dky - hxy)) <= 1e-6


@settings(max_examples=150)
@given(params_near_critical())
def test_hessian_matches_finite_differences(params):
    # the census Jacobian against central differences of the
    # frame-projection velocity, at every census zero where the gap is
    # open: the diagonal matches and the off-diagonal vanishes
    p = ModelParams(*params)
    try:
        points = _closed_form_census(p, *placed(p))
    except TopologyError:
        return
    for kx, ky, _ in points:
        hx, hy, hz = bloch_components(kx, ky, p)
        if math.sqrt(hx * hx + hy * hy + hz * hz) < 0.1:
            continue
        hxx, hyy = census_jacobian(kx, ky, p)
        m00, m01, m10, m11 = (float(x) for x in fd_velocity_jacobian(kx, ky, p))
        scale = 1.0 + max(abs(hxx), abs(hyy))
        for got, want in ((hxx, m00), (0.0, m01), (0.0, m10), (hyy, m11)):
            assert abs(got - want) <= 1e-6 * scale


def test_band_zero_sets_and_indexes_coincide():
    # the lower band -|h| has velocity -v and Jacobian -J: the same zeros,
    # and negating a 2x2 Jacobian keeps its determinant, so indexes match
    kx = np.array([0.0, math.pi, 0.0, math.pi])
    ky = np.array([0.0, 0.0, math.pi, math.pi])
    vx, vy, _ = pointwise(velocity_and_gap, kx, ky, P1)
    assert np.all(np.hypot(vx, vy) <= 1e-12)
    hxx, hyy, det, trace = _zero_jacobian(kx, ky, P1)
    lower_det = (-hxx) * (-hyy)
    assert np.all(np.sign(lower_det) == np.sign(det))
    assert np.all(np.abs(det) > 1e-8)
    assert np.all((-hxx) + (-hyy) == -trace)
