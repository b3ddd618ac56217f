"""Chern number: dual discretizations, gap structure, phase boundaries."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import blochflow.chern
from blochflow import ModelParams, chern_plaquette, gapless_boundary
from blochflow.chern import (
    DIRECT_N,
    EPS_GAP_CHERN,
    GRID_N,
    _chern_preimages,
    _degree_integrand,
    _solid_angle_sum,
    _unit_grid,
    chern_direct,
    gap_min,
)
from blochflow.cli import main
from blochflow.errors import DegenerateTriangle, GaplessModel, InsufficientSampling
from blochflow.model import _phase

from oracles import (
    axis_distance,
    bloch_components,
    critical_shifts,
    fd_degree_integrand,
    frame_chern_direct,
    frame_degree_integrand,
    integrand_preimage_count,
    loop_gap_min,
    params_near_critical,
    periodic_unit_grid,
    random_gapped_params,
    roll_solid_angle_sum,
    scan_gap_min,
)


def test_gapless_boundary_values():
    assert gapless_boundary(3, 1) == (2, 4)
    assert gapless_boundary(2, 0.5) == (1.5, 2.5)
    with pytest.raises(ValueError):
        gapless_boundary(1, 2)


def test_gap_min_at_closings():
    assert gap_min(ModelParams(3, 1, 2)) <= 1e-6
    assert gap_min(ModelParams(3, 1, 4)) <= 1e-6


def test_gap_min_gapped_value():
    g = gap_min(ModelParams(3, 1, 1))
    assert g >= 0.9
    assert g == pytest.approx(scan_gap_min(ModelParams(3, 1, 1)), abs=1e-6)
    # the closed form must not report more than any sampled gap
    assert g <= scan_gap_min(ModelParams(3, 1, 1)) + 1e-12


@settings(max_examples=120)
@given(params_near_critical())
def test_gap_min_matches_scan_oracle(params):
    # up to and across the closings c = R -+ r, the pitchfork and the fold
    p = ModelParams(*params)
    g = gap_min(p)
    scan = scan_gap_min(p)
    assert g <= scan + 1e-12
    assert abs(g - scan) <= 1e-9


@settings(max_examples=150)
@given(params_near_critical(), st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi))
def test_degree_integrand_matches_finite_differences(params, kx, ky):
    # the hand-worked r (rho (rho + c cos kx) cos ky + r R sin^2 ky) / |h|^3
    # against central differences of the unit Bloch vector, and against the
    # triple product of the tangent frame to rounding, up to the closings
    # and bifurcations
    p = ModelParams(*params)
    gap = math.hypot(*bloch_components(kx, ky, p))
    assume(gap >= 0.05)
    (exact,) = _degree_integrand([math.cos(kx)], ky, p)
    assert abs(exact - float(fd_degree_integrand(kx, ky, p))) <= 1e-6 * (1.0 + abs(exact))
    # near a closing the numerator cancels; both formulas round relative to
    # the size of its terms, not to the integrand
    rho = float(axis_distance(ky, p))
    size = p.r * (rho * (rho + p.c) + p.r * p.R) / gap**3
    assert abs(exact - float(frame_degree_integrand(kx, ky, p))) <= 1e-12 * size


@st.composite
def params_at_critical_shifts(draw):
    """(R, r, c) with c at R - r, R + r, c_p or c_f exactly, a few ulps from one, or up to 1e-3 R from one.

    R and r are floats over six decades, or integers up to 1e20, beyond
    where every integer is a float."""
    if draw(st.booleans()):
        R = draw(st.integers(2, 10**20))
        r = draw(st.integers(1, R - 1))
    else:
        R = 10.0 ** draw(st.floats(-3.0, 3.0))
        r = R * draw(st.floats(1e-8, 1.0 - 1e-8))
    c = draw(st.sampled_from(critical_shifts(R, r)))
    how = draw(st.sampled_from(("at", "ulps", "offset")))
    if how == "ulps":
        toward = draw(st.sampled_from((0.0, math.inf)))
        for _ in range(draw(st.integers(1, 64))):
            c = math.nextafter(c, toward)
    elif how == "offset":
        c = max(0.0, c + R * draw(st.floats(-1e-3, 1e-3)))
    return R, r, c


@settings(max_examples=400)
@given(params_at_critical_shifts())
@example((3, 1, 2))
@example((3, 1, 4))
@example((3.0, 1.0, 8.0 / 3.0))
@example((3.0, 1.0, critical_shifts(3.0, 1.0)[3]))
@example((2**53 + 1, 1, 2**53))
def test_gap_min_bits_match_the_loop(params):
    # the unrolled ends and the skipped solver give the loop's bits, at and
    # next to the closings and the bifurcations, for integer R and r too
    p = ModelParams(*params)
    assert gap_min(p).hex() == loop_gap_min(p).hex()


def test_gap_min_matches_boundary_roots():
    lo, hi = gapless_boundary(3, 1)
    assert gap_min(ModelParams(3, 1, lo)) <= 1e-6
    assert gap_min(ModelParams(3, 1, hi)) <= 1e-6
    for c in (lo - 0.3, (lo + hi) / 2, hi + 0.3):
        assert gap_min(ModelParams(3, 1, c)) > 0.05


@pytest.mark.parametrize("c,value", [(1.0, 0), (3.0, 1), (5.0, 0)])
def test_chern_plaquette_values(c, value):
    res = chern_plaquette(ModelParams(3, 1, c))
    assert res.value == value
    assert abs(res.raw - value) <= 1e-9
    assert res.method == "plaquette_solid_angle"


@pytest.mark.parametrize("c,value", [(1.0, 0), (3.0, 1), (5.0, 0)])
def test_chern_direct_values(c, value):
    p = ModelParams(3, 1, c)
    res = chern_direct(p)
    assert res.value == value
    assert abs(res.raw - value) <= 1e-3
    assert res.method == "direct_quadrature"
    # the same midpoint sum over the frame triple product
    assert abs(res.raw - frame_chern_direct(p, DIRECT_N)) <= 1e-12


def test_chern_gapless_refusal():
    with pytest.raises(GaplessModel):
        chern_direct(ModelParams(3, 1, 2))
    with pytest.raises(GaplessModel):
        chern_plaquette(ModelParams(3, 1, 4))


@pytest.mark.parametrize("c", [2.0001, 3.9999])
def test_chern_direct_refuses_uncertain_sum(c, capsys):
    # 1e-4 inside either closing the midpoint sum lands near 1/2 and used
    # to round to 0; the plaquette count is 1
    p = ModelParams(3, 1, c)
    assert chern_plaquette(p).value == 1
    with pytest.raises(InsufficientSampling, match="--method plaquette"):
        chern_direct(p)
    assert main(["chern", "--c", str(c), "--method", "direct"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "InsufficientSampling" in err and "|raw - value|" in err


@pytest.mark.parametrize("s", [1e-12, 1e-8, 1e-6, 1e-3, 1.0, 1e3, 1e8])
def test_chern_is_scale_free(s):
    # scaling R, r and c together scales h and leaves hhat unchanged, so
    # the gap gate must not refuse a model whose gap is small only in
    # absolute terms
    p = ModelParams(3 * s, 1 * s, 3 * s)
    assert chern_plaquette(p).value == 1
    assert chern_direct(p).value == 1
    for c, value in ((1, 0), (3, 1), (5, 0)):
        q = ModelParams(3 * s, 1 * s, c * s)
        assert _chern_preimages(q, gap_min(q), _phase(q)) == value
    gapless = ModelParams(3 * s, 1 * s, 2 * s)
    with pytest.raises(GaplessModel, match="gap / R"):
        chern_plaquette(gapless)
    with pytest.raises(GaplessModel, match="gap / R"):
        _chern_preimages(gapless, gap_min(gapless), _phase(gapless))


def test_chern_grid_stability():
    p = ModelParams(3, 1, 3)
    assert abs(chern_direct(p).raw - frame_chern_direct(p, 128)) < 1e-3


def test_plaquette_robust_near_closing():
    # the degree count stays exactly quantized even at gap ~ 1e-3, where
    # the quadrature integrand is far too sharp for any fixed grid
    res = chern_plaquette(ModelParams(3, 1, 2.001))
    assert res.value == 1
    assert abs(res.raw - 1) <= 1e-9


@st.composite
def params_near_closing(draw):
    """(R, r, c) over six decades of R and r/R in [1e-8, 1 - 1e-8], with c
    either anywhere in [0, 2.2 (R + r)] or within 1e-3 R of R -+ r, down to
    about EPS_GAP_CHERN R from it."""
    R = 10.0 ** draw(st.floats(-3.0, 3.0))
    r = R * draw(st.floats(1e-8, 1.0 - 1e-8))
    if draw(st.booleans()):
        return R, r, draw(st.floats(0.0, 2.2 * (R + r)))
    offset = R * 10.0 ** draw(st.floats(math.log10(EPS_GAP_CHERN), -3.0))
    return R, r, R + draw(st.sampled_from((-r, r))) + draw(st.sampled_from((-offset, offset)))


@settings(max_examples=300)
@given(params_near_closing())
def test_even_grid_resolves_every_gapped_set(params):
    # (pi, 0) and (pi, pi), the preimages of -x and the only places the gap
    # can close, are nodes of the even GRID_N grid, so one pass orients
    # every triangle and counts C = [c < R + r] - [c < R - r] exactly; the
    # signed preimage count gives the same C, and the same refusal
    R, r, c = params
    assume(c >= 0.0)
    p = ModelParams(R, r, c)
    g = gap_min(p)
    if not g / R > EPS_GAP_CHERN:
        with pytest.raises(GaplessModel):
            _chern_preimages(p, g, _phase(p))
        return
    raw = _solid_angle_sum(_unit_grid(p, GRID_N)) / (4.0 * math.pi)
    assert not math.isnan(raw)
    assert abs(raw - ((c < R + r) - (c < R - r))) <= 1e-9
    assert _chern_preimages(p, g, _phase(p)) == round(raw)


@st.composite
def params_at_closings(draw):
    """(R, r, c) with c at R - r or R + r exactly, 1 to 64 ulps from one, 1e-12 R to 1e-3 R from one, or anywhere.

    R and r are floats over six decades with r / R up to 1 - 1e-12, or an
    integer triple up to 1e20, beyond where every integer is a float."""
    if draw(st.booleans()):
        R = draw(st.integers(2, 10**20))
        r = draw(st.integers(1, R - 1))
        c = draw(st.sampled_from((R - r, R + r))) + draw(st.integers(-(R // 1000), R // 1000))
        return R, r, max(0, c)
    R = 10.0 ** draw(st.floats(-3.0, 3.0))
    r = R * draw(st.floats(1e-12, 1.0 - 1e-12))
    c = R + draw(st.sampled_from((-r, r)))
    how = draw(st.sampled_from(("at", "ulps", "offset", "anywhere")))
    if how == "ulps":
        toward = draw(st.sampled_from((0.0, math.inf)))
        for _ in range(draw(st.integers(1, 64))):
            c = math.nextafter(c, toward)
    elif how == "offset":
        c += draw(st.sampled_from((-R, R))) * 10.0 ** draw(st.floats(-12.0, -3.0))
    elif how == "anywhere":
        c = draw(st.floats(0.0, 2.2 * (R + r)))
    return R, r, max(0.0, c)


@settings(max_examples=500)
@given(params_at_closings())
@example((3, 1, 2))
@example((3, 1, 4))
@example((3, 1, 1))
@example((3, 1, 3))
@example((3, 1, 5))
@example((2**53 + 1, 1, 2**53 + 2))
def test_preimage_count_matches_the_integrand_signed_count(params):
    # the two comparisons give the int that signing each preimage by the
    # Chern integrand gives, or the same refusal, at and next to the closings
    p = ModelParams(*params)
    g = gap_min(p)
    try:
        want = integrand_preimage_count(p, g)
    except GaplessModel as e:
        with pytest.raises(GaplessModel) as info:
            _chern_preimages(p, g, _phase(p))
        assert str(info.value) == str(e)
        return
    got = _chern_preimages(p, g, _phase(p))
    assert type(got) is int and got == want


@settings(max_examples=500)
@given(params_at_closings())
@example((3, 1, 1))
@example((3, 1, 3))
@example((3, 1, 5))
def test_integrand_sign_at_the_preimages_is_the_comparison(params):
    # on gapped sets the integrand at (pi, 0) is positive exactly when
    # c < R + r, and at (pi, pi) negative exactly when c < R - r: the sign
    # of r rho (rho - c) cos ky, which the comparisons stand on
    R, r, c = params
    p = ModelParams(R, r, c)
    assume(gap_min(p) / R > EPS_GAP_CHERN)
    assert (_degree_integrand([-1.0], 0.0, p)[0] > 0.0) == (c < R + r)
    assert (_degree_integrand([-1.0], math.pi, p)[0] < 0.0) == (c < R - r)


def test_unorientable_grid_raises(monkeypatch):
    monkeypatch.setattr(blochflow.chern, "_solid_angle_sum", lambda u: math.nan)
    with pytest.raises(DegenerateTriangle):
        chern_plaquette(ModelParams(3, 1, 3))


def _wrapped(u):
    """The component lists of the open grid that wraps the periodic (n, n, 3) grid ``u``, axis 0 kx.

    Each is a list of ky lines of kx nodes, as ``_unit_grid`` gives them.
    """
    return tuple(np.pad(u[..., k], ((0, 1), (0, 1)), mode="wrap").T.tolist() for k in range(3))


def _periodic(grid):
    """The periodic (n, n, 3) grid, axis 0 kx, that the component lists ``grid`` of ``_unit_grid`` wrap."""
    return np.stack([np.array(comp)[:-1, :-1].T for comp in grid], axis=-1)


def _assert_kernels_agree(p, n):
    grid = _unit_grid(p, n)
    # row and column n repeat row and column 0
    for comp in grid:
        assert comp[n] == comp[0] and [row[n] for row in comp] == [row[0] for row in comp]
    new = _solid_angle_sum(grid)
    ref = roll_solid_angle_sum(periodic_unit_grid(p, n))
    assert math.isnan(new) == math.isnan(ref)
    if not math.isnan(ref):
        assert abs(new - ref) / (4.0 * math.pi) <= 1e-12


@pytest.mark.parametrize("n", [16, 32, 64, 128, 256, 512])
def test_solid_angle_sum_matches_roll_oracle(n):
    sets = random_gapped_params(np.random.default_rng(15), 8, avoid=0.01)
    # both phases, so that a sign error in either triangle shows
    assert {R - r < c < R + r for R, r, c in sets} == {True, False}
    for R, r, c in sets:
        _assert_kernels_agree(ModelParams(R, r, c), n)


@settings(max_examples=80)
@given(params_near_critical(), st.sampled_from((16, 32, 64, 128, 256, 512)))
def test_solid_angle_sum_matches_roll_oracle_near_critical(params, n):
    # coarse grids near a closing leave triangles unorientable: both
    # kernels must then give NaN together
    p = ModelParams(*params)
    assume(gap_min(p) / p.R > EPS_GAP_CHERN)
    _assert_kernels_agree(p, n)


def test_solid_angle_ambiguity_flag():
    grid = _unit_grid(ModelParams(3, 1, 1), 16)
    assert not math.isnan(_solid_angle_sum(grid))
    # antipodal neighbours make the half-angle denominator nonpositive
    u = _periodic(grid)
    assert _wrapped(u) == grid
    u[0, 0] = (0.0, 0.0, 1.0)
    u[1, 0] = (0.0, 0.0, -1.0)
    assert math.isnan(_solid_angle_sum(_wrapped(u)))
    assert math.isnan(roll_solid_angle_sum(u))


# Corner offsets from a plaquette's a = (i, j): b = (1, 0), c = (1, 1), d = (0, 1).
TRIANGLE_ABC = ((0, 0), (1, 0), (1, 1))
TRIANGLE_ACD = ((0, 0), (1, 1), (0, 1))


@pytest.mark.parametrize("corners", [TRIANGLE_ABC, TRIANGLE_ACD], ids=["abc", "acd"])
@pytest.mark.parametrize("i,j", [(3, 5), (15, 15)], ids=["inner", "wrapped"])
def test_single_triangle_ambiguity_flag(corners, i, j):
    # Three nodes 120 degrees apart on the equator of a grid that otherwise
    # points north: the one triangle holding all three has denominator
    # 1 - 3/2 < 0, every other one at least 1/2.  At (15, 15) the far
    # corners lie on the wrap row and column.
    n = 16
    u = np.zeros((n, n, 3))
    u[..., 2] = 1.0
    north = _wrapped(u)
    assert _solid_angle_sum(north) == 0.0
    for (di, dj), phi in zip(corners, (0.0, 2.0 * math.pi / 3, 4.0 * math.pi / 3)):
        u[(i + di) % n, (j + dj) % n] = (math.cos(phi), math.sin(phi), 0.0)
    assert math.isnan(_solid_angle_sum(_wrapped(u)))
    assert math.isnan(roll_solid_angle_sum(u))


def test_near_antipodal_diagonal_flag():
    # a = (1, 0, 0) and c 1e-13 rad from -a on the plaquette's diagonal,
    # b = d off the a-c great circle, every other node north: both
    # triangles have a denominator of about 6e-14 > 0 and a numerator of
    # about 8e-14, so only the hypot test can flag them
    n, eta = 16, 1e-13
    u = np.zeros((n, n, 3))
    u[..., 2] = 1.0
    u[3, 5] = (1.0, 0.0, 0.0)
    u[4, 6] = (-math.cos(eta), math.sin(eta), 0.0)
    u[4, 5] = u[3, 6] = (0.0, 0.6, 0.8)
    assert math.isnan(_solid_angle_sum(_wrapped(u)))
    assert math.isnan(roll_solid_angle_sum(u))


def test_methods_agree_on_random_parameters():
    rng = np.random.default_rng(11)
    for R, r, c in random_gapped_params(rng, 20, avoid=0.1):
        p = ModelParams(R, r, c)
        d = chern_direct(p)
        q = chern_plaquette(p)
        assert d.value == q.value == _chern_preimages(p, gap_min(p), _phase(p))
        assert abs(q.raw - q.value) <= 1e-9
        assert abs(d.raw - d.value) <= 1e-3


def test_chern_integer_quantization_random():
    rng = np.random.default_rng(12)
    for R, r, c in random_gapped_params(rng, 10, avoid=0.1):
        res = chern_plaquette(ModelParams(R, r, c))
        assert abs(res.raw - round(res.raw)) <= 1e-9


def test_deformation_invariance():
    # any c-path keeping the gap open cannot change the value
    for c in np.linspace(2.5, 3.5, 11):
        p = ModelParams(3, 1, float(c))
        assert gap_min(p) > 0.05
        assert chern_plaquette(p).value == 1
    for c in np.linspace(4.5, 5.5, 6):
        assert chern_plaquette(ModelParams(3, 1, float(c))).value == 0


def test_value_flips_only_at_boundaries():
    lo, hi = gapless_boundary(3, 1)
    inside = chern_plaquette(ModelParams(3, 1, (lo + hi) / 2)).value
    below = chern_plaquette(ModelParams(3, 1, lo - 0.5)).value
    above = chern_plaquette(ModelParams(3, 1, hi + 0.5)).value
    assert inside == 1 and below == 0 and above == 0
