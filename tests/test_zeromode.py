"""Zero-mode census, classification, weights, Euler characteristic."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from blochflow import (
    KPoint,
    ModelParams,
    WeightMode,
    ZeroKind,
    ZeroMode,
    euler_characteristic,
    find_zero_modes,
)
import blochflow.field
import blochflow.zeromode
from blochflow.errors import (
    DegenerateField,
    DegenerateZero,
    GaplessModel,
    NonIntegralSum,
    NonIsolatedZero,
    TopologyError,
)
from blochflow.field import Jacobian2, velocity_and_gap
from blochflow.model import axis_distance
from blochflow.zeromode import (
    _check_isolated,
    _dedup,
    _newton_census,
    classify,
    index_from_det,
    torus_distance,
    weighted_index_sum,
    zero_modes_json,
)

import oracles
from oracles import (
    brute_zero_census,
    converged_clouds,
    full_backtrack_census,
    greedy_dedup,
    pairwise_isolation,
    params_near_critical,
    random_gapped_params,
)

P1 = ModelParams(3, 1, 1)
P3 = ModelParams(3, 1, 3)

PI = math.pi


def _match(modes, kx, ky, tol=1e-9):
    hits = [z for z in modes if math.hypot(z.location.kx - kx, z.location.ky - ky) <= tol]
    assert len(hits) == 1, f"expected one mode at ({kx}, {ky}), found {len(hits)}"
    return hits[0]


def test_census_structure_reference_params():
    modes = find_zero_modes(P1)
    assert len(modes) == 9

    sink = _match(modes, 0.0, 0.0)
    assert sink.kind is ZeroKind.SINK
    assert sink.index == 1
    assert sink.weight == Fraction(1)

    for sx, sy in ((-PI, -PI), (-PI, PI), (PI, -PI), (PI, PI)):
        z = _match(modes, sx, sy)
        assert z.kind is ZeroKind.SOURCE
        assert z.index == 1
        assert z.weight == Fraction(1, 4)

    for sx, sy in ((0.0, -PI), (0.0, PI), (-PI, 0.0), (PI, 0.0)):
        z = _match(modes, sx, sy)
        assert z.kind is ZeroKind.SADDLE
        assert z.index == -1
        assert z.weight == Fraction(1, 2)


def test_census_canonical_mode():
    modes = find_zero_modes(P1, weight_mode=WeightMode.CANONICAL_CELL)
    assert len(modes) == 4
    assert all(z.weight == Fraction(1) for z in modes)
    assert sorted(z.kind.value for z in modes) == ["saddle", "saddle", "sink", "source"]


def test_census_zero_quality():
    from blochflow.field import velocity_and_gap

    for z in find_zero_modes(P1):
        vx, vy, _ = velocity_and_gap(z.location.kx, z.location.ky, P1)
        assert math.hypot(float(vx), float(vy)) <= 1e-12
        assert abs(z.det) > 1e-8


def test_degenerate_field_error():
    with pytest.raises(DegenerateField):
        find_zero_modes(ModelParams(3, 1, 0))


def test_gapless_model_error():
    with pytest.raises(GaplessModel):
        find_zero_modes(ModelParams(3, 1, 2))
    with pytest.raises(GaplessModel):
        find_zero_modes(ModelParams(3, 1, 4))


def test_extra_zero_window_census():
    # between c = (R^2-r^2)/R and the fold, extra zero pairs live on kx = +-pi
    modes = find_zero_modes(P3)
    assert len(modes) > 9
    assert len(modes) == 17
    # every edge zero with generic ky must satisfy the defining equation
    # c = rho(ky) (1 - (r/R) cos ky), by substitution
    extra = [
        z
        for z in modes
        if abs(abs(z.location.kx) - PI) < 1e-7 and min(abs(z.location.ky), abs(abs(z.location.ky) - PI)) > 1e-6
    ]
    assert len(extra) == 8  # 4 canonical zeros, each on two edge copies
    for z in extra:
        g = axis_distance(z.location.ky, P3) * (1 - (P3.r / P3.R) * math.cos(z.location.ky))
        assert g == pytest.approx(P3.c, abs=1e-9)
    assert weighted_index_sum(modes) == Fraction(0)


def test_census_completeness_against_sign_scan():
    for p in (P1, P3):
        brute = brute_zero_census(p, 512)
        mine = sorted(
            (z.location.kx, z.location.ky)
            for z in find_zero_modes(p, weight_mode=WeightMode.CANONICAL_CELL)
        )
        assert len(brute) == len(mine)
        for a, b in zip(brute, mine):
            assert float(torus_distance(a[0], a[1], b[0], b[1])) < 1e-6


@settings(max_examples=300)
@given(converged_clouds())
def test_dedup_matches_greedy_oracle(cloud):
    # one pass per kept point picks the same points, in the same order, as
    # the point-by-point greedy loop, across the kx = -+pi seam too
    assert _dedup(*cloud) == greedy_dedup(*cloud)


@settings(max_examples=300)
@given(converged_clouds())
def test_isolation_check_matches_pairwise_oracle(cloud):
    # the distance matrix reports the same first crowded pair as the double loop
    reps = greedy_dedup(*cloud)

    def outcome(check):
        try:
            check(*reps)
        except NonIsolatedZero as e:
            return str(e)
        return None

    assert outcome(_check_isolated) == outcome(pairwise_isolation)


def _census_outcome(census, p):
    """repr of the zero list (bit for bit, signed zeros included), or the
    typed error and its message."""
    try:
        return repr(census(p))
    except TopologyError as e:
        return type(e), str(e)


@settings(max_examples=60)
@given(params_near_critical())
def test_census_matches_full_backtrack_oracle(params):
    # re-evaluating only the seeds that backtrack, and building the Hessian
    # from the stored velocity, changes no bit of the census
    p = ModelParams(*params)
    assert _census_outcome(_newton_census, p) == _census_outcome(full_backtrack_census, p)


def test_census_kernel_work(monkeypatch):
    # k-points sent to velocity_and_gap per census at (R, r) = (3, 1),
    # Hessian path included; the full-backtrack loop sent 72,564, 306,852
    # and 164,426 at c = 1.2, 3.2 and 4.5
    points = []

    def counting(kx, ky, p):
        points.append(max(np.size(kx), np.size(ky)))
        return velocity_and_gap(kx, ky, p)

    for module in (blochflow.field, blochflow.zeromode, oracles):
        monkeypatch.setattr(module, "velocity_and_gap", counting)
    for c, before in ((1.2, 72564), (3.2, 306852), (4.5, 164426)):
        p = ModelParams(3, 1, c)
        points.clear()
        full_backtrack_census(p)
        full = sum(points)
        points.clear()
        _newton_census(p)
        assert sum(points) <= min(before, full) / 2, (c, sum(points), full)


def test_classify_rules():
    sink = Jacobian2(np.array([[-1.0, 0.0], [0.0, -2.0]]))
    source = Jacobian2(np.array([[1.0, 0.0], [0.0, 2.0]]))
    saddle = Jacobian2(np.array([[1.0, 0.0], [0.0, -2.0]]))
    assert classify(sink) is ZeroKind.SINK
    assert classify(source) is ZeroKind.SOURCE
    assert classify(saddle) is ZeroKind.SADDLE
    with pytest.raises(DegenerateZero):
        classify(Jacobian2(np.array([[1e-5, 0.0], [0.0, 1e-5]])))


def test_index_rules():
    assert index_from_det(0.44) == 1
    assert index_from_det(-5.0 / 9.0) == -1
    with pytest.raises(DegenerateZero):
        index_from_det(1e-9)
    modes = find_zero_modes(P1)
    for z in modes:
        assert index_from_det(z.det) == z.index
        assert z.index == (1 if z.det > 0 else -1)


def test_euler_characteristic_reference():
    res = euler_characteristic(P1)
    assert res.chi == 0
    # exact rational bookkeeping: 1 (sink) + 1 (corner sources) - 2 (edge saddles)
    by_kind = {}
    for z in res.modes:
        by_kind[z.kind] = by_kind.get(z.kind, Fraction(0)) + z.weight * z.index
    assert by_kind[ZeroKind.SINK] == Fraction(1)
    assert by_kind[ZeroKind.SOURCE] == Fraction(1)
    assert by_kind[ZeroKind.SADDLE] == Fraction(-2)


def test_euler_weight_modes_agree():
    for p in (P1, P3, ModelParams(2, 0.5, 0.8)):
        closed = euler_characteristic(p, weight_mode=WeightMode.CLOSED_BZ)
        cell = euler_characteristic(p, weight_mode=WeightMode.CANONICAL_CELL)
        assert closed.chi == cell.chi == 0
        assert weighted_index_sum(closed.modes) == weighted_index_sum(cell.modes)


def test_euler_random_parameter_sweep():
    rng = np.random.default_rng(20260810)
    for R, r, c in random_gapped_params(rng, 20):
        assert euler_characteristic(ModelParams(R, r, c)).chi == 0


def test_census_keeps_edge_zero_near_upper_closing():
    # 1.5e-3 above c = R + r the seed at (-pi, 0) sits on a zero whose |v|
    # rounds to about 1.3e-12, above the tolerance; its Newton step does not
    p = ModelParams(3, 1, 4.0015)
    res = euler_characteristic(p, weight_mode=WeightMode.CANONICAL_CELL)
    assert res.chi == 0
    assert len(res.modes) == 4
    _match(res.modes, -PI, 0.0)


def test_band_independent_census():
    # the census runs on the band-free field; negating it (lower band)
    # preserves zeros and dets, so indexes cannot change
    modes = find_zero_modes(P1, weight_mode=WeightMode.CANONICAL_CELL)
    for z in modes:
        flipped = Jacobian2(-z.jac.m)
        assert index_from_det(flipped.det) == z.index


def test_non_isolated_zero_near_fold():
    # just under the fold where the extra zero pair merges, the two zeros
    # crowd within the isolation radius
    with pytest.raises(NonIsolatedZero):
        find_zero_modes(ModelParams(3, 1, 3.1682004804590176 - 1e-8))


def test_degenerate_bifurcation_is_typed_error():
    # at c = (R^2 - r^2)/R the edge zeros are being born; the census must
    # refuse with a typed error, never return a broken census
    with pytest.raises((DegenerateZero, NonIsolatedZero)):
        find_zero_modes(ModelParams(3, 1, 8.0 / 3.0))


def test_non_integral_sum_detection():
    from blochflow.zeromode import integral_chi

    # a fabricated lone half-weight zero cannot sum to an integer
    j = Jacobian2(np.array([[1.0, 0.0], [0.0, 1.0]]))
    lone = ZeroMode(KPoint(-PI, 0.3), j, 1.0, 2.0, 1, ZeroKind.SOURCE, Fraction(1, 2))
    assert weighted_index_sum([lone]) == Fraction(1, 2)
    with pytest.raises(NonIntegralSum):
        integral_chi(weighted_index_sum([lone]), Fraction(0))
    # integral but inconsistent across weight modes is also rejected
    with pytest.raises(NonIntegralSum):
        integral_chi(Fraction(0), Fraction(2))
    assert integral_chi(Fraction(0), Fraction(0)) == 0


def test_zero_modes_json_schema():
    modes = find_zero_modes(P1)
    records = json.loads(zero_modes_json(modes))
    assert len(records) == 9
    for rec in records:
        assert set(rec) == {"kx", "ky", "det", "trace", "index", "kind", "weight_num", "weight_den"}
        assert rec["kind"] in ("sink", "source", "saddle")
        assert rec["index"] in (-1, 1)
        assert rec["weight_den"] in (1, 2, 4)
