"""Chern number: dual discretizations, gap structure, phase boundaries."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blochflow import (
    ModelParams,
    chern_direct,
    chern_plaquette,
    gap_min,
    gapless_boundary,
)
from blochflow.chern import ChernMethod, _degree_integrand
from blochflow.errors import GaplessModel
from blochflow.model import bloch_components

from oracles import (
    axis_distance,
    fd_degree_integrand,
    frame_chern_direct,
    frame_degree_integrand,
    params_near_critical,
    random_gapped_params,
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
@given(params_near_critical(), st.floats(-np.pi, np.pi), st.floats(-np.pi, np.pi))
def test_degree_integrand_matches_finite_differences(params, kx, ky):
    # the hand-worked r (rho (rho + c cos kx) cos ky + r R sin^2 ky) / |h|^3
    # against central differences of the unit Bloch vector, and against the
    # triple product of the tangent frame to rounding, up to the closings
    # and bifurcations
    p = ModelParams(*params)
    gap = float(np.linalg.norm(bloch_components(kx, ky, p)))
    assume(gap >= 0.05)
    exact = float(_degree_integrand(kx, ky, p))
    assert abs(exact - float(fd_degree_integrand(kx, ky, p))) <= 1e-6 * (1.0 + abs(exact))
    # near a closing the numerator cancels; both formulas round relative to
    # the size of its terms, not to the integrand
    rho = float(axis_distance(ky, p))
    size = p.r * (rho * (rho + p.c) + p.r * p.R) / gap**3
    assert abs(exact - float(frame_degree_integrand(kx, ky, p))) <= 1e-12 * size


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
    assert res.method is ChernMethod.PLAQUETTE_SOLID_ANGLE


@pytest.mark.parametrize("c,value", [(1.0, 0), (3.0, 1), (5.0, 0)])
def test_chern_direct_values(c, value):
    p = ModelParams(3, 1, c)
    res = chern_direct(p, 256)
    assert res.value == value
    assert abs(res.raw - value) <= 1e-3
    assert res.method is ChernMethod.DIRECT_QUADRATURE
    # the same midpoint sum over the frame triple product
    assert abs(res.raw - frame_chern_direct(p, 256)) <= 1e-12


def test_chern_gapless_refusal():
    with pytest.raises(GaplessModel):
        chern_direct(ModelParams(3, 1, 2), 64)
    with pytest.raises(GaplessModel):
        chern_plaquette(ModelParams(3, 1, 4))


def test_chern_grid_preconditions():
    with pytest.raises(ValueError):
        chern_direct(ModelParams(3, 1, 1), 16)


@pytest.mark.parametrize("s", [1e-12, 1e-8, 1e-6, 1e-3, 1.0, 1e3, 1e8])
def test_chern_is_scale_free(s):
    # scaling R, r and c together scales h and leaves hhat unchanged, so
    # the gap gate must not refuse a model whose gap is small only in
    # absolute terms
    p = ModelParams(3 * s, 1 * s, 3 * s)
    assert chern_plaquette(p).value == 1
    assert chern_direct(p).value == 1
    with pytest.raises(GaplessModel, match="gap / R"):
        chern_plaquette(ModelParams(3 * s, 1 * s, 2 * s))


def test_chern_grid_stability():
    a = chern_direct(ModelParams(3, 1, 3), 128)
    b = chern_direct(ModelParams(3, 1, 3), 256)
    assert abs(a.raw - b.raw) < 1e-3


def test_plaquette_robust_near_closing():
    # the degree count stays exactly quantized even at gap ~ 1e-3, where
    # the quadrature integrand is far too sharp for any fixed grid
    res = chern_plaquette(ModelParams(3, 1, 2.001))
    assert res.value == 1
    assert abs(res.raw - 1) <= 1e-9


def test_solid_angle_ambiguity_flag():
    import math as _math

    from blochflow.chern import _solid_angle_sum, _unit_grid

    # antipodal neighbours make the half-angle denominator nonpositive
    u = _unit_grid(ModelParams(3, 1, 1), 16)
    assert not _math.isnan(_solid_angle_sum(u))
    u = u.copy()
    u[0, 0] = (0.0, 0.0, 1.0)
    u[1, 0] = (0.0, 0.0, -1.0)
    assert _math.isnan(_solid_angle_sum(u))


def test_methods_agree_on_random_parameters():
    rng = np.random.default_rng(11)
    for R, r, c in random_gapped_params(rng, 20, avoid=0.1):
        p = ModelParams(R, r, c)
        d = chern_direct(p, 256)
        q = chern_plaquette(p)
        assert d.value == q.value
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
