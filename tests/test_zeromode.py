"""Zero-mode census, classification, closed-zone weights, Euler characteristic."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochflow import (
    LoopSpec,
    ModelParams,
    ZeroKind,
    euler_characteristic,
    winding_hermitian,
)
import blochflow.zeromode
from blochflow.errors import (
    DegenerateField,
    DegenerateZero,
    GaplessModel,
    NonIsolatedZero,
    TopologyError,
)
from blochflow.field import hessian, velocity_and_gap
from blochflow.zeromode import (
    BIFURCATION_MARGIN,
    _check_isolated,
    classify,
    torus_distance,
    zero_bifurcations,
    zero_modes_json,
)

from oracles import (
    axis_distance,
    brute_zero_census,
    census_fold,
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


def _closed_zone(p):
    """The `zeros` JSON records of p: every closed-zone copy with its weight."""
    return json.loads(zero_modes_json(euler_characteristic(p).modes))


def _weight(rec):
    return Fraction(rec["weight_num"], rec["weight_den"])


def _match_record(records, kx, ky, tol=1e-9):
    hits = [rec for rec in records if math.hypot(rec["kx"] - kx, rec["ky"] - ky) <= tol]
    assert len(hits) == 1, f"expected one record at ({kx}, {ky}), found {len(hits)}"
    return hits[0]


def test_census_structure_reference_params():
    records = _closed_zone(P1)
    assert len(records) == 9

    sink = _match_record(records, 0.0, 0.0)
    assert sink["kind"] == ZeroKind.SINK.value
    assert sink["index"] == 1
    assert _weight(sink) == Fraction(1)

    for sx, sy in ((-PI, -PI), (-PI, PI), (PI, -PI), (PI, PI)):
        rec = _match_record(records, sx, sy)
        assert rec["kind"] == ZeroKind.SOURCE.value
        assert rec["index"] == 1
        assert _weight(rec) == Fraction(1, 4)

    for sx, sy in ((0.0, -PI), (0.0, PI), (-PI, 0.0), (PI, 0.0)):
        rec = _match_record(records, sx, sy)
        assert rec["kind"] == ZeroKind.SADDLE.value
        assert rec["index"] == -1
        assert _weight(rec) == Fraction(1, 2)


def test_census_canonical_mode():
    modes = euler_characteristic(P1).modes
    assert len(modes) == 4
    assert sorted(z.kind.value for z in modes) == ["saddle", "saddle", "sink", "source"]


def _near_bifurcation(p):
    return min(abs(p.c - b) for b in zero_bifurcations(p.R, p.r)) / p.R <= BIFURCATION_MARGIN


def _canonical_zeros(p):
    return [(z.location.kx, z.location.ky) for z in euler_characteristic(p).modes]


def test_census_zero_quality_reference_params():
    for z in euler_characteristic(P1).modes:
        vx, vy, _ = velocity_and_gap(z.location.kx, z.location.ky, P1)
        assert math.hypot(float(vx), float(vy)) <= 1e-12
        assert abs(z.det) > 1e-8


FIXED_ZEROS = [(-PI, -PI), (-PI, 0.0), (0.0, -PI), (0.0, 0.0)]


@settings(max_examples=200)
@given(params_near_critical())
def test_census_zero_quality(params):
    # Outside the bifurcation margin the four fixed zeros sit exactly on the
    # symmetry points (there |v| evaluates to the rounding floor of sin(pi)
    # over |h|, above 1e-12 near a gap closing); every other zero is a root
    # of v to 1e-12 with a nondegenerate Jacobian.
    p = ModelParams(*params)
    if _near_bifurcation(p):
        return
    try:
        modes = euler_characteristic(p).modes
    except (DegenerateField, GaplessModel):
        return
    points = [(z.location.kx, z.location.ky) for z in modes]
    assert [q for q in points if q in FIXED_ZEROS] == FIXED_ZEROS
    for z in modes:
        assert abs(z.det) > 1e-8
        if (z.location.kx, z.location.ky) not in FIXED_ZEROS:
            vx, vy, _ = velocity_and_gap(z.location.kx, z.location.ky, p)
            assert math.hypot(float(vx), float(vy)) <= 1e-12


def _census_outside_margin(params):
    """Parameters and canonical modes for draws outside the bifurcation
    margin and away from c = 0 and the gap closings, else None."""
    p = ModelParams(*params)
    if _near_bifurcation(p):
        return None
    try:
        return p, euler_characteristic(p).modes
    except (DegenerateField, GaplessModel):
        return None


@settings(max_examples=200)
@given(params_near_critical())
def test_index_equals_small_loop_winding(params):
    # the index two ways: the sign of the Hessian determinant, and the
    # winding of v on a circle around the zero that encloses no other
    # zero (radius a quarter of the distance to the nearest one)
    found = _census_outside_margin(params)
    if found is None:
        return
    p, modes = found
    kx = np.array([z.location.kx for z in modes])
    ky = np.array([z.location.ky for z in modes])
    d = torus_distance(kx[:, None], ky[:, None], kx[None, :], ky[None, :])
    np.fill_diagonal(d, np.inf)
    for z, nearest in zip(modes, d.min(axis=1)):
        assert winding_hermitian(LoopSpec.circle(z.location, nearest / 4.0), p).w == z.index


def _closed_zone_images(kx, ky):
    """Every translate of (kx, ky) by multiples of 2 pi inside [-pi, pi]^2."""
    shifts = (-2.0 * PI, 0.0, 2.0 * PI)
    return {
        (kx + a, ky + b)
        for a in shifts
        for b in shifts
        if -PI <= kx + a <= PI and -PI <= ky + b <= PI
    }


@settings(max_examples=200)
@given(params_near_critical())
def test_closed_zone_weights(params):
    # the `zeros` records hold every image of every canonical zero in
    # [-pi, pi]^2, with its classification; the weights of one zero's
    # images sum to 1, so weight * index sums to chi
    found = _census_outside_margin(params)
    if found is None:
        return
    p, canonical = found
    records = _closed_zone(p)
    by_location = {(rec["kx"], rec["ky"]): rec for rec in records}
    assert len(by_location) == len(records)
    images = [_closed_zone_images(z.location.kx, z.location.ky) for z in canonical]
    assert set(by_location) == set().union(*images)
    for z, locations in zip(canonical, images):
        copies = [by_location[k] for k in locations]
        assert sum(_weight(c) for c in copies) == 1
        assert {(c["det"], c["trace"], c["index"], c["kind"]) for c in copies} == {
            (z.det, z.trace, z.index, z.kind.value)
        }
    assert sum(_weight(rec) * rec["index"] for rec in records) == euler_characteristic(p).chi


def test_degenerate_field_error():
    with pytest.raises(DegenerateField):
        euler_characteristic(ModelParams(3, 1, 0))


def test_gapless_model_error():
    with pytest.raises(GaplessModel):
        euler_characteristic(ModelParams(3, 1, 2))
    with pytest.raises(GaplessModel):
        euler_characteristic(ModelParams(3, 1, 4))


def test_extra_zero_window_census():
    # between c = (R^2-r^2)/R and the fold, extra zero pairs live on kx = +-pi
    records = _closed_zone(P3)
    assert len(euler_characteristic(P3).modes) == 8
    assert len(records) == 17
    # every edge zero with generic ky must satisfy the defining equation
    # c = rho(ky) (1 - (r/R) cos ky), by substitution
    extra = [
        rec
        for rec in records
        if abs(abs(rec["kx"]) - PI) < 1e-7 and min(abs(rec["ky"]), abs(abs(rec["ky"]) - PI)) > 1e-6
    ]
    assert len(extra) == 8  # 4 canonical zeros, each on two edge copies
    for rec in extra:
        g = axis_distance(rec["ky"], P3) * (1 - (P3.r / P3.R) * math.cos(rec["ky"]))
        assert g == pytest.approx(P3.c, abs=1e-9)
    assert sum(_weight(rec) * rec["index"] for rec in records) == 0


def test_census_completeness_against_sign_scan():
    for p in (P1, P3):
        brute = brute_zero_census(p, 512)
        mine = sorted(
            (z.location.kx, z.location.ky)
            for z in euler_characteristic(p).modes
        )
        assert len(brute) == len(mine)
        for a, b in zip(brute, mine):
            assert float(torus_distance(a[0], a[1], b[0], b[1])) < 1e-6


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
    """The zero list, or the class of the typed error."""
    try:
        return census(p)
    except TopologyError as e:
        return type(e)


def _newton_zeros(p):
    """The Newton oracle's zeros, with the library's nondegeneracy check."""
    zeros = full_backtrack_census(p)
    kx, ky = np.array(zeros).T
    hxx, hxy, hyy = hessian(kx, ky, p)
    for det, trace in zip((hxx * hyy - hxy * hxy).tolist(), (hxx + hyy).tolist()):
        classify(det, trace, p.R)
    return zeros


@settings(max_examples=60)
@given(params_near_critical())
def test_census_matches_full_backtrack_oracle(params):
    # the paper's generic Newton census certifies the closed form: outside
    # the bifurcation margin both find the same zeros or raise the same
    # typed error; inside it the closed form always raises
    p = ModelParams(*params)
    mine = _census_outcome(_canonical_zeros, p)
    if _near_bifurcation(p):
        assert mine is NonIsolatedZero
        return
    ref = _census_outcome(_newton_zeros, p)
    if not isinstance(ref, list):
        assert mine is ref
        return
    assert isinstance(mine, list) and len(mine) == len(ref)
    for kx, ky in mine:
        assert min(float(torus_distance(kx, ky, x, y)) for x, y in ref) < 1e-9


def test_census_kernel_work(monkeypatch):
    # the closed form evaluates all its zeros in one hessian call, which
    # evaluates the velocity itself: 4 or 8 points per census
    calls = []

    def counting(kernel):
        def wrapped(kx, ky, *args):
            calls.append((kernel.__name__, max(np.size(kx), np.size(ky))))
            return kernel(kx, ky, *args)

        return wrapped

    monkeypatch.setattr(blochflow.zeromode, "hessian", counting(hessian))
    for c, count in ((1.2, 4), (3.0, 8), (4.5, 4)):
        calls.clear()
        assert len(euler_characteristic(ModelParams(3, 1, c)).modes) == count
        assert calls == [("hessian", count)]


@settings(max_examples=100)
@given(st.floats(1.5, 4.0), st.floats(0.2, 0.8))
def test_fold_matches_scan(R, ratio):
    # the closed-form fold is the maximum that the dense scan approaches
    # from below, and the bifurcations sit inside the Chern phase
    r = R * ratio
    c_p, c_f = zero_bifurcations(R, r)
    assert 0.0 <= c_f - census_fold(R, r) <= 1e-6 * c_f
    assert R - r < c_p < c_f < R + r


@pytest.mark.parametrize("R, r", [(3.0, 1.0), (2.0, 1.5), (1.2, 1.0), (4.0, 0.8)])
def test_bifurcation_margin(R, r):
    # within the margin of 1e-5 R of c_p or c_f the census raises; just
    # outside it the zero count is 4 below c_p, 8 between c_p and c_f, 4
    # above c_f
    c_p, c_f = zero_bifurcations(R, r)
    margin = BIFURCATION_MARGIN * R
    for c in (c_p - margin / 2, c_p + margin / 2, c_f - margin / 2, c_f + margin / 2):
        with pytest.raises(NonIsolatedZero):
            euler_characteristic(ModelParams(R, r, c))
    for c, count in ((c_p - 2 * margin, 4), (c_p + 2 * margin, 8), (c_f - 2 * margin, 8), (c_f + 2 * margin, 4)):
        assert len(_canonical_zeros(ModelParams(R, r, c))) == count


@pytest.mark.parametrize("s", [1e-50, 1e-6, 1e-4, 1e-3, 1.0, 1e3, 1e5])
def test_census_is_scale_free(s):
    # scaling R, r and c together scales h; the zeros and their kinds stay
    want = [(z.location, z.kind) for z in euler_characteristic(P1).modes]
    res = euler_characteristic(ModelParams(3 * s, s, s))
    assert res.chi == 0
    assert len(res.modes) == 4
    assert [(z.location, z.kind) for z in res.modes] == want


def test_pitchfork_end_roots_are_the_fixed_zeros(monkeypatch):
    # at (R, r) = (2, 1) the cubic at c_p = 3/2 has the exact roots u = -+1,
    # which are the fixed zeros (pi, pi) and (pi, 0), not new ones; with the
    # margin switched off, their singular Jacobian is what raises
    monkeypatch.setattr(blochflow.zeromode, "BIFURCATION_MARGIN", -1.0)
    assert zero_bifurcations(2.0, 1.0)[0] == 1.5
    with pytest.raises(DegenerateZero):
        euler_characteristic(ModelParams(2.0, 1.0, 1.5))


def test_classify_rules():
    # (det, trace) of diag(-1, -2), diag(1, 2), diag(1, -2) and diag(1e-5, 1e-5)
    assert classify(2.0, -3.0, 1.0) is ZeroKind.SINK
    assert classify(2.0, 3.0, 1.0) is ZeroKind.SOURCE
    assert classify(-2.0, -1.0, 1.0) is ZeroKind.SADDLE
    with pytest.raises(DegenerateZero) as err:
        classify(1e-10, 2e-5, 1.0)
    assert str(err.value) == "|det J| = 1.000e-10 <= 1.0e-08"
    with pytest.raises(DegenerateZero):
        classify(-1e-9, 0.0, 1.0)
    # the threshold is on det / R^2: det scales like the square of the parameters
    assert classify(2e-8, 1.0, R=1e-2) is ZeroKind.SOURCE
    with pytest.raises(DegenerateZero) as err:
        classify(5e-8, 1.0, R=3.0)
    assert str(err.value) == "|det J| = 5.000e-08 <= 9.0e-08"


def test_index_rules():
    modes = euler_characteristic(P1).modes
    for z in modes:
        assert z.index == (1 if z.det > 0 else -1)
        assert z.kind is classify(z.det, z.trace, P1.R)


def test_euler_characteristic_reference():
    assert euler_characteristic(P1).chi == 0
    # exact rational bookkeeping of the `zeros` records: 1 (sink) + 1
    # (corner sources) - 2 (edge saddles)
    by_kind = {}
    for rec in _closed_zone(P1):
        by_kind[rec["kind"]] = by_kind.get(rec["kind"], Fraction(0)) + _weight(rec) * rec["index"]
    assert by_kind[ZeroKind.SINK.value] == Fraction(1)
    assert by_kind[ZeroKind.SOURCE.value] == Fraction(1)
    assert by_kind[ZeroKind.SADDLE.value] == Fraction(-2)


def test_euler_weight_modes_agree():
    # the weighted closed-zone sum of the `zeros` records is chi
    for p in (P1, P3, ModelParams(2, 0.5, 0.8)):
        res = euler_characteristic(p)
        assert res.chi == sum(z.index for z in res.modes) == 0
        assert sum(_weight(rec) * rec["index"] for rec in _closed_zone(p)) == res.chi


def test_euler_random_parameter_sweep():
    rng = np.random.default_rng(20260810)
    for R, r, c in random_gapped_params(rng, 20):
        assert euler_characteristic(ModelParams(R, r, c)).chi == 0


def test_census_keeps_edge_zero_near_upper_closing():
    # 1.5e-3 above c = R + r, |v| at the fixed zero (-pi, 0) rounds to about
    # 1.3e-12; the census must keep it all the same
    p = ModelParams(3, 1, 4.0015)
    res = euler_characteristic(p)
    assert res.chi == 0
    assert len(res.modes) == 4
    _match(res.modes, -PI, 0.0)


def test_band_independent_census():
    # the census runs on the band-free field; negating it (lower band)
    # keeps det and negates the trace, so indexes cannot change while
    # sinks and sources trade places
    swap = {ZeroKind.SINK: ZeroKind.SOURCE, ZeroKind.SOURCE: ZeroKind.SINK, ZeroKind.SADDLE: ZeroKind.SADDLE}
    modes = euler_characteristic(P1).modes
    for z in modes:
        assert classify(z.det, -z.trace, P1.R) is swap[z.kind]


def test_non_isolated_zero_near_fold():
    # just under the fold where the extra zero pair merges, the two zeros
    # crowd within the isolation radius
    with pytest.raises(NonIsolatedZero):
        euler_characteristic(ModelParams(3, 1, 3.1682004804590176 - 1e-8))


def test_degenerate_bifurcation_is_typed_error():
    # at c = (R^2 - r^2)/R the edge zeros are being born; the census must
    # refuse with a typed error, never return a broken census
    with pytest.raises((DegenerateZero, NonIsolatedZero)):
        euler_characteristic(ModelParams(3, 1, 8.0 / 3.0))


def test_zero_modes_json_schema():
    modes = euler_characteristic(P1).modes
    records = json.loads(zero_modes_json(modes))
    assert len(records) == 9
    for rec in records:
        assert set(rec) == {"kx", "ky", "det", "trace", "index", "kind", "weight_num", "weight_den"}
        assert rec["kind"] in ("sink", "source", "saddle")
        assert rec["index"] in (-1, 1)
        assert rec["weight_den"] in (1, 2, 4)
