"""Model layer: parameters, Bloch vector, tangent frame, CSV dump."""

import io
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blochflow import KPoint, ModelParams, gap_min
from blochflow.model import (
    PARAM_MAX,
    PARAM_MIN,
    SURFACE_CSV_HEADER,
    _kx_pi_cubic,
    _kx_pi_roots,
    bloch_components,
    write_surface_csv,
    zero_bifurcations,
)

from oracles import (
    axis_distance,
    fd_bloch_frame,
    frame_components,
    generic_velocity_and_gap,
    numpy_kx_pi_roots,
    params_near_critical,
    scan_gap_min,
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
    above = math.nextafter(PARAM_MAX, math.inf)
    below = math.nextafter(PARAM_MIN, 0.0)
    for bad in (
        (3, 1, math.nan),
        (3, 1, math.inf),
        (math.inf, 1, 1),
        (3, math.nan, 1),
        (3, 1, above),
        (above, 1, 1),
        (3, below, 1),
    ):
        with pytest.raises(ValueError, match="finite and at most"):
            ModelParams(*bad)
    ModelParams(3, 1, 0)  # c = 0 is constructible (census rejects it later)
    ModelParams(PARAM_MAX, 1, PARAM_MAX)
    ModelParams(3 * PARAM_MIN, PARAM_MIN, 0)


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
    # odd sizes and line lengths that leave unequal tails for vectorized kernels
    for n in (2, 3, 8, 17, 64):
        lines = _surface_csv(p, n)
        assert lines[1:] == surface_csv_rows(p, n)
        # the velocity columns also agree with the frame projection
        rows = np.array([[float(tok) for tok in line.split(",")] for line in lines[1:]])
        vx, vy, gap = generic_velocity_and_gap(rows[:, 0], rows[:, 1], p)
        ok = gap > 1e-3
        assert np.max(np.abs(rows[ok, 5] - vx[ok]), initial=0.0) <= 1e-10
        assert np.max(np.abs(rows[ok, 6] - vy[ok]), initial=0.0) <= 1e-10


def test_surface_csv_memory_independent_of_grid_area():
    # rows are streamed one ky line at a time: one 512 x 512 float64 array
    # alone would take 2 MB
    class CountingSink:
        def __init__(self):
            self.lines = 0

        def write(self, text):
            self.lines += text.count("\n")

        def writelines(self, lines):
            for text in lines:
                self.write(text)

    sink = CountingSink()
    tracemalloc.start()
    try:
        write_surface_csv(P1, 512, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.lines == 1 + 512 * 512
    assert peak < 1_000_000


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


def _term_size(cubic, u):
    """The sum of |c_k u^k|, which sets the rounding error of the cubic at u."""
    c3, c2, c1, c0 = (abs(x) for x in cubic)
    return ((c3 * abs(u) + c2) * abs(u) + c1) * abs(u) + c0


@st.composite
def params_around_bifurcations(draw):
    """(R, r, c) over six decades of R and r/R in [1e-8, 1 - 1e-8], with c
    anywhere in [0, 2.2 (R + r)], anywhere between the pitchfork c_p and the
    fold c_f, or 1e-12 R to 0.1 R from either, on either side."""
    R = 10.0 ** draw(st.floats(-3.0, 3.0))
    r = R * draw(st.floats(1e-8, 1.0 - 1e-8))
    c_p, c_f = zero_bifurcations(R, r)
    where = draw(st.sampled_from(("anywhere", "window", "edge")))
    if where == "anywhere":
        return R, r, draw(st.floats(0.0, 2.2 * (R + r)))
    if where == "window":
        return R, r, c_p + (c_f - c_p) * draw(st.floats(0.0, 1.0))
    offset = R * 10.0 ** draw(st.floats(-12.0, -1.0))
    return R, r, draw(st.sampled_from((c_p, c_f))) + draw(st.sampled_from((-offset, offset)))


@settings(max_examples=200)
@given(params_around_bifurcations())
def test_kx_pi_roots_match_numpy_oracle(params):
    # the closed form against the companion-matrix eigenvalues, and its gap
    # minimum against the dense scan.  Nearer to c_p or c_f, rounding alone
    # decides the root count: at r/R ~ 1e-8 the window (c_p, c_f) is only
    # about 1e-16 R wide, and as r -> R the root near u = 1 meets the one
    # near u = R/r, so the cubic fixes it only to about 4e-16 R^2 / (R - r).
    R, r, c = params
    c_p, c_f = zero_bifurcations(R, r)
    assume(c >= 0.0 and abs(c - c_p) > 1e-12 * R * R / (R - r) and abs(c - c_f) > 1e-12 * R)
    p = ModelParams(R, r, c)
    mine, ref = sorted(_kx_pi_roots(p)), numpy_kx_pi_roots(p)
    assert len(mine) == len(ref)
    cubic = c3, c2, c1, _ = _kx_pi_cubic(p)
    for u, v in zip(mine, ref):
        # near the fold the two roots merge, and the rounded cubic fixes each
        # only to its rounding error over its slope there
        slope = abs((3.0 * c3 * v + 2.0 * c2) * v + c1)
        assert abs(u - v) <= 1e-12 + 4.0 * sys.float_info.epsilon * _term_size(cubic, v) / slope
    g, scan = gap_min(p), scan_gap_min(p)
    assert g <= scan + 1e-12 * R
    assert abs(g - scan) <= 1e-9 * R


@pytest.mark.parametrize(
    "R, r, c",
    [
        (592453769653587.0, 592453769653584.6, 4.75100321963074),
        (8.89978575632993e-40, 8.899785756274985e-40, 1.098884277179589e-50),
        (1.9592723737235127e35, 1.9592723737234356e35, 1.5424507828098445e22),
        (7.8310679462611075e-28, 1.431351057544347e-28, 7.9622415667794515e-28),
    ],
)
def test_kx_pi_roots_at_rounding_edges(R, r, c):
    # the first three have r -> R and c within rounding of c_p, where the
    # depressed cubic rounds to one real root (Cardano's, within rounding of
    # u = -1); the last has c one ulp below c_f, where the cubic at the fold
    # point rounds below 0
    p = ModelParams(R, r, c)
    cubic = c3, c2, c1, c0 = _kx_pi_cubic(p)
    for u in _kx_pi_roots(p):
        assert abs(u) < 1.0
        assert abs(((c3 * u + c2) * u + c1) * u + c0) <= 1e-12 * _term_size(cubic, u)
    assert abs(gap_min(p) - scan_gap_min(p)) <= 1e-9 * R
