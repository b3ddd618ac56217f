"""Model layer: parameters, Bloch vector, tangent frame, CSV dump."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings

from blochflow import KPoint, ModelParams
from blochflow.model import (
    SURFACE_CSV_HEADER,
    axis_distance,
    bloch_components,
    frame_components,
    write_surface_csv,
)

from oracles import (
    fd_bloch_frame,
    generic_velocity_and_gap,
    params_near_critical,
    surface_csv_rows,
)

P1 = ModelParams(3, 1, 1)


def test_params_validation():
    with pytest.raises(ValueError):
        ModelParams(1, 3, 1)  # R < r
    with pytest.raises(ValueError):
        ModelParams(1, 1, 0)  # R == r
    with pytest.raises(ValueError):
        ModelParams(3, -1, 0)
    with pytest.raises(ValueError):
        ModelParams(3, 1, -0.5)
    for bad in ((3, 1, math.nan), (3, 1, math.inf), (math.inf, 1, 1), (3, math.nan, 1)):
        with pytest.raises(ValueError, match="finite"):
            ModelParams(*bad)
    ModelParams(3, 1, 0)  # c = 0 is constructible (census rejects it later)


def test_kpoint_canonical():
    k = KPoint(3 * math.pi / 2, -3 * math.pi).canonical()
    assert k.kx == pytest.approx(-math.pi / 2, abs=1e-15)
    assert k.ky == -math.pi
    # pi folds onto -pi, the half-open edge of the domain
    assert KPoint(math.pi, math.pi).canonical() == KPoint(-math.pi, -math.pi)


def test_axis_distance_values():
    assert axis_distance(0.0, P1) == pytest.approx(4.0, abs=1e-15)
    assert axis_distance(math.pi, P1) == pytest.approx(2.0, abs=1e-15)
    assert axis_distance(math.pi / 2, P1) == pytest.approx(math.sqrt(10), abs=1e-15)


def test_axis_distance_lower_bound():
    rng = np.random.default_rng(1)
    ky = rng.uniform(-math.pi, math.pi, 2000)
    for R, r in ((3, 1), (2, 0.5), (1.7, 1.2)):
        p = ModelParams(R, r, 0.3)
        assert np.all(axis_distance(ky, p) >= R - r - 1e-12)


def test_bloch_vector_values():
    h = bloch_components(0.0, 0.0, P1)
    assert h == pytest.approx((5.0, 0.0, 0.0), abs=1e-15)
    h = bloch_components(math.pi, 0.0, P1)
    assert h == pytest.approx((-3.0, 0.0, 0.0), abs=1e-15)
    # c = R - r closes the gap at (pi, pi)
    hx, hy, hz = bloch_components(math.pi, math.pi, ModelParams(3, 1, 2))
    assert math.hypot(hx, hy, hz) == pytest.approx(0.0, abs=1e-14)


def test_periodicity():
    rng = np.random.default_rng(3)
    kx, ky = rng.uniform(-math.pi, math.pi, (2, 100))
    a = np.array(bloch_components(kx, ky, P1))
    b = np.array(bloch_components(kx + 2 * math.pi, ky, P1))
    c = np.array(bloch_components(kx, ky + 2 * math.pi, P1))
    assert np.allclose(a, b, atol=1e-12)
    assert np.allclose(a, c, atol=1e-12)


def test_frame_analytic_values():
    ax, ay, az, bx, by, bz = frame_components(0.0, 0.0, P1)
    assert (ax, ay, az) == pytest.approx((0.0, 4.0, 0.0), abs=1e-15)
    assert (bx, by, bz) == pytest.approx((0.0, 0.0, 1.0), abs=1e-15)
    ax, ay, az, bx, by, bz = frame_components(math.pi / 2, math.pi / 2, P1)
    assert (ax, ay, az) == pytest.approx((-math.sqrt(10), 0.0, 0.0), abs=1e-15)
    assert (bx, by, bz) == pytest.approx((0.0, -3.0 / math.sqrt(10), 0.0), abs=1e-15)


def test_frame_matches_finite_differences():
    # gate for the hand-derived d rho/d ky before anything downstream uses it
    t = np.linspace(-math.pi, math.pi, 101)
    kx, ky = np.meshgrid(t, t, indexing="ij")
    fd_kx, fd_ky = fd_bloch_frame(kx, ky, P1, step=1e-5)
    ax, ay, az, bx, by, bz = frame_components(kx, ky, P1)
    for got, want in zip((ax, ay, az), fd_kx):
        assert np.max(np.abs(got - want)) <= 1e-8
    for got, want in zip((bx, by, bz), fd_ky):
        assert np.max(np.abs(got - want)) <= 1e-8


def test_frame_orthogonality():
    rng = np.random.default_rng(4)
    kx = rng.uniform(-math.pi, math.pi, 1000)
    ky = rng.uniform(-math.pi, math.pi, 1000)
    ax, ay, az, bx, by, bz = frame_components(kx, ky, P1)
    assert np.max(np.abs(ax * bx + ay * by + az * bz)) <= 1e-12


def test_frame_regularity():
    # |d_kx x d_ky| never vanishes; at the origin |(0,4,0) x (0,0,1)| = 4
    t = np.linspace(-math.pi, math.pi, 101)
    kx, ky = np.meshgrid(t, t, indexing="ij")
    ax, ay, az, bx, by, bz = frame_components(kx, ky, P1)
    norm = np.linalg.norm(np.cross(np.stack([ax, ay, az], -1), np.stack([bx, by, bz], -1)), axis=-1)
    assert norm[50, 50] == pytest.approx(4.0, abs=1e-12)
    assert np.min(norm) > 0.0


def _surface_csv(p, n):
    buf = io.StringIO()
    write_surface_csv(p, n, buf)
    return buf.getvalue().splitlines()


def test_surface_csv_grid():
    lines = _surface_csv(ModelParams(3, 1, 1), 2)
    assert len(lines) == 1 + 4
    rows = [[float(tok) for tok in line.split(",")] for line in lines[1:]]
    # ky is the slow index, kx the fast one
    assert [(row[0], row[1]) for row in rows] == [(-math.pi, -math.pi), (0.0, -math.pi), (-math.pi, 0.0), (0.0, 0.0)]
    assert rows[3][2:5] == pytest.approx([5.0, 0.0, 0.0], abs=1e-15)
    assert rows[3][5:] == pytest.approx([0.0, 0.0], abs=1e-15)
    for n in (0, 1):
        with pytest.raises(ValueError):
            write_surface_csv(P1, n, io.StringIO())


@settings(max_examples=40)
@given(params_near_critical())
def test_surface_csv_matches_oracle_rows(params):
    p = ModelParams(*params)
    lines = _surface_csv(p, 8)
    assert lines[1:] == surface_csv_rows(p, 8)
    # the velocity columns also agree with the frame projection
    rows = np.array([[float(tok) for tok in line.split(",")] for line in lines[1:]])
    vx, vy, gap = generic_velocity_and_gap(rows[:, 0], rows[:, 1], p)
    ok = gap > 1e-3
    assert np.max(np.abs(rows[ok, 5] - vx[ok])) <= 1e-10
    assert np.max(np.abs(rows[ok, 6] - vy[ok])) <= 1e-10


def test_surface_csv_format():
    buf = io.StringIO()
    write_surface_csv(P1, 3, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == SURFACE_CSV_HEADER
    assert len(lines) == 1 + 9
    # ky is the slow index: first three rows share ky = -pi
    first = [line.split(",") for line in lines[1:4]]
    assert all(row[1] == format(-math.pi, ".17g") for row in first)
    assert [row[0] for row in first] == [
        format(x, ".17g") for x in (-math.pi, -math.pi + 2 * math.pi / 3, -math.pi + 4 * math.pi / 3)
    ]
    # every field parses back to a float
    for line in lines[1:]:
        assert len(line.split(",")) == 7
        for tok in line.split(","):
            float(tok)


def test_bloch_components_broadcast():
    kx = np.linspace(-math.pi, math.pi, 7)
    hx, hy, hz = bloch_components(kx, 0.0, P1)
    assert hx.shape == kx.shape
    assert np.allclose(hz, 0.0, atol=1e-15)
