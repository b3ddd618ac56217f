"""Zero-mode census, classification, closed-zone weights, Euler characteristic."""

import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from blochflow import (
    LoopSpec,
    ModelParams,
    euler_characteristic,
    winding_hermitian,
)
import blochflow.zeromode
from blochflow.cli import closed_zone_records
from blochflow.errors import (
    DegenerateField,
    DegenerateZero,
    GaplessModel,
    NonIsolatedZero,
    TopologyError,
)
from blochflow.zeromode import (
    BIFURCATION_MARGIN,
    _check_isolated,
    _closed_form_census,
    ZeroKind,
    _jacobian,
    classify,
    zero_bifurcations,
)

from oracles import (
    array_hessian,
    axis_distance,
    brute_zero_census,
    census_fold,
    full_backtrack_census,
    pairwise_isolation,
    params_near_critical,
    random_gapped_params,
    torus_distance,
    velocity_and_gap,
)

P1 = ModelParams(3, 1, 1)
P3 = ModelParams(3, 1, 3)

PI = math.pi


def _match(modes, kx, ky, tol=1e-9):
    hits = [z for z in modes if math.hypot(z.location.kx - kx, z.location.ky - ky) <= tol]
    assert len(hits) == 1, f"expected one mode at ({kx}, {ky}), found {len(hits)}"
    return hits[0]


def _closed_zone(p):
    """The `zeros` records of p: every closed-zone copy with its weight."""
    return closed_zone_records(euler_characteristic(p).modes)


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


def _isolation_outcome(check, *args):
    """The NonIsolatedZero message of check(*args), or None."""
    try:
        check(*args)
    except NonIsolatedZero as e:
        return str(e)
    return None


def _assert_isolation_matches_oracle(points, ky):
    # the 1-D check on ``ky`` fires exactly when the pair-by-pair oracle
    # fires on every zero, and the pair it names is one that the oracle
    # finds crowded, in either order
    got = _isolation_outcome(_check_isolated, ky)
    crowded = {_isolation_outcome(pairwise_isolation, *zip(a, b)) for a, b in itertools.permutations(points, 2)}
    crowded.discard(None)
    assert (got is None) == (_isolation_outcome(pairwise_isolation, *zip(*points)) is None)
    assert got is None or got in crowded
    return got


@st.composite
def crowding_params(draw):
    """(R, r, c) with r -> R and c near the pitchfork c_p or the fold c_f:
    there zeros on kx = pi can crowd each other outside the bifurcation margin."""
    R = 10.0 ** draw(st.floats(-3.0, 3.0))
    r = R * (1.0 - 10.0 ** draw(st.floats(-8.0, -1.0)))
    anchor = draw(st.sampled_from(zero_bifurcations(R, r)))
    offset = draw(st.sampled_from((-1.0, 1.0))) * 10.0 ** draw(st.floats(-5.0, -2.0))
    return R, r, abs(anchor + offset * R)


@settings(max_examples=300)
@given(crowding_params())
@example((1.0, 0.99, 0.019920000000000028))  # -pi crowded by -arccos u and, across the wrap, by +arccos u
def test_isolation_check_matches_pairwise_oracle(params):
    # the census's own candidate points: every zero it found, and the ky
    # values on kx = pi that it hands to the 1-D check
    p = ModelParams(*params)
    seen = []
    try:
        with mock.patch.object(blochflow.zeromode, "_check_isolated", seen.append):
            points = _closed_form_census(p)
    except TopologyError:
        return  # c ~ 0, a closed gap, or inside the bifurcation margin: no check runs
    assert seen[0] == [y for x, y in points if x == -PI]
    _assert_isolation_matches_oracle(points, seen[0])


def test_isolation_check_fires_on_census():
    # r -> R just above c_p: the zero pair born at (pi, pi) crowds it
    p = ModelParams(1.0, 0.99, 0.019920000000000028)
    with pytest.raises(NonIsolatedZero) as err:
        euler_characteristic(p)
    assert str(err.value) == "zeros at (-3.14159, -3.14159) and (-3.14159, -3.14114) are only 4.507e-04 apart"


@pytest.mark.parametrize(
    "ky, want",
    [
        # crowded only across the wrap, from the largest ky to -pi
        ([-PI, 0.0, 1.0, PI - 5e-4], "zeros at (-3.14159, 3.14109) and (-3.14159, -3.14159) are only 5.000e-04 apart"),
        ([-PI, -2.0, -1e-4, 0.0, 1e-4, 2.0], "zeros at (-3.14159, -0.0001) and (-3.14159, 0) are only 1.000e-04 apart"),
        ([-PI, -2.0, 0.0, 2.0, PI - 2e-3], None),  # 2e-3 across the wrap is isolated
        ([-PI, -2.0, 0.0, 2.0], None),
    ],
)
def test_isolation_check_wraps(ky, want):
    points = [(-PI, y) for y in ky] + [(0.0, -PI), (0.0, 0.0)]
    assert _assert_isolation_matches_oracle(points, ky) == want


def _census_outcome(census, p):
    """The zero list, or the class of the typed error."""
    try:
        return census(p)
    except TopologyError as e:
        return type(e)


def _newton_zeros(p):
    """The Newton oracle's zeros, with the library's nondegeneracy check on the oracle Hessian."""
    zeros = full_backtrack_census(p)
    for kx, ky in zeros:
        hxx, hxy, hyy = (float(h[0]) for h in array_hessian(np.array([kx]), np.array([ky]), p))
        classify(hxx * hyy - hxy * hxy, hxx + hyy, p.R)
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
    # the census evaluates the Jacobian once per zero, on floats, and on
    # nothing else: 4 or 8 points per census
    points = []

    def counting(kx, ky, p):
        assert type(kx) is float and type(ky) is float
        points.append((kx, ky))
        return _jacobian(kx, ky, p)

    monkeypatch.setattr(blochflow.zeromode, "_jacobian", counting)
    assert not hasattr(blochflow.zeromode, "np")
    for c, count in ((1.2, 4), (3.0, 8), (4.5, 4)):
        points.clear()
        modes = euler_characteristic(ModelParams(3, 1, c)).modes
        assert len(points) == count
        assert points == [(z.location.kx, z.location.ky) for z in modes]
        assert all(type(z.det) is float and type(z.trace) is float for z in modes)


def _kind(hxx, hxy, hyy, R):
    """The zero kind of a Hessian, or DegenerateZero."""
    try:
        return classify(hxx * hyy - hxy * hxy, hxx + hyy, R)
    except DegenerateZero:
        return DegenerateZero


@st.composite
def hessian_params(draw):
    """(R, r, c): R over six decades, r/R from 1e-8 to 1 - 1e-8, and c
    anywhere up to 2.5 R or near c_p, c_f or R -+ r."""
    R = 10.0 ** draw(st.floats(-3.0, 3.0))
    ratio = draw(
        st.one_of(
            st.floats(1e-8, 1.0 - 1e-8),
            st.floats(-8.0, -1.0).map(lambda e: 10.0**e),
            st.floats(-8.0, -1.0).map(lambda e: 1.0 - 10.0**e),
        )
    )
    r = R * ratio
    anchor = draw(st.sampled_from((None, *zero_bifurcations(R, r), R - r, R + r)))
    if anchor is None:
        return R, r, R * draw(st.floats(0.0, 2.5))
    return R, r, abs(anchor + R * draw(st.floats(-1e-2, 1e-2)))


@settings(max_examples=300)
@given(hessian_params())
def test_float_hessian_matches_array_oracle(params):
    # at every census zero the diagonal Jacobian (math) is the general-point
    # array Hessian (the oracle, numpy, whose rho**3 is its own power) up to
    # the last bits, the oracle's hxy is rounding noise, and both give the
    # same kind
    p = ModelParams(*params)
    try:
        points = _closed_form_census(p)
    except TopologyError:
        return
    for kx, ky in points:
        hxx, hyy = _jacobian(kx, ky, p)
        want = [float(h[0]) for h in array_hessian(np.array([kx]), np.array([ky]), p)]
        scale = max(abs(h) for h in want)
        got = (hxx, 0.0, hyy)
        assert all(abs(a - b) <= 1e-13 * scale for a, b in zip(got, want)), (got, want)
        assert _kind(*got, p.R) is _kind(*want, p.R)


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


def _exact_zero_count(R, r, c):
    """The zero count on fractions: 8 for c_p < c < c_f, else 4; None at c_p or c_f itself.

    c > c_p = (R^2 - r^2)/R is c R > R^2 - r^2, and c < c_f = (R^2 +
    r^2/3)^(3/2) / R^2 is c^2 R^4 < (R^2 + r^2/3)^3, for c >= 0.
    """
    R, r, c = Fraction(R), Fraction(r), Fraction(c)
    past_pitchfork = c * R - (R * R - r * r)
    past_fold = c * c * R**4 - (R * R + r * r / 3) ** 3
    if past_pitchfork == 0 or past_fold == 0:
        return None
    return 8 if past_pitchfork > 0 > past_fold else 4


def _assert_exact_count_or_refused(p):
    """The census either refuses with a typed error or counts the zeros exactly."""
    try:
        modes = euler_characteristic(p).modes
    except TopologyError:
        return
    assert len(modes) == _exact_zero_count(*p), p


def _bifurcation_probes(R, r):
    """c within 64 ulps of c_p and of c_f, and c_p, c_f -+ R 10^(k/2) for k from -32 to -10."""
    for anchor in zero_bifurcations(R, r):
        below = above = anchor
        yield anchor
        for _ in range(64):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
            yield below
            yield above
        for k in range(-32, -9):
            yield anchor - R * 10.0 ** (k / 2)
            yield anchor + R * 10.0 ** (k / 2)


@settings(max_examples=40)
@given(
    st.floats(-2.0, 2.0).map(lambda e: 10.0**e),
    st.one_of(st.floats(0.05, 0.95), st.floats(-6.0, -1.0).map(lambda e: 1.0 - 10.0**e)),
)
def test_census_near_bifurcations_has_the_exact_zero_count(R, ratio):
    # every census answered within 64 ulps, or 1e-16 R to 1e-5 R, of the
    # pitchfork or the fold has the zero count that exact arithmetic gives
    r = R * ratio
    for c in _bifurcation_probes(R, r):
        if c >= 0.0:  # c_p is below 1e-5 R when r -> R
            _assert_exact_count_or_refused(ModelParams(R, r, c))


@pytest.mark.parametrize(
    "R, r, c",
    [
        (2.3153344835519594, 0.32878778207253967, 2.3387183317975406),
        (6.174753256309591, 1.22421071723912, 6.296506326970005),
        (3.828670879763378, 0.2954808071287429, 3.8400785236814268),
    ],
)
def test_census_refuses_just_inside_the_fold(R, r, c):
    # within 2e-16 R inside the float c_f: 8 zeros, but the float cubic finds
    # no root pair, so a census that answered here would count 4
    assert _exact_zero_count(R, r, c) == 8
    _assert_exact_count_or_refused(ModelParams(R, r, c))


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
        euler_characteristic(ModelParams(3, 1, zero_bifurcations(3, 1)[1] - 1e-8))


def test_degenerate_bifurcation_is_typed_error():
    # at c = (R^2 - r^2)/R the edge zeros are being born; the census must
    # refuse with a typed error, never return a broken census
    with pytest.raises((DegenerateZero, NonIsolatedZero)):
        euler_characteristic(ModelParams(3, 1, 8.0 / 3.0))


def test_zero_modes_json_schema():
    records = _closed_zone(P1)
    assert len(records) == 9
    for rec in records:
        assert set(rec) == {"kx", "ky", "det", "trace", "index", "kind", "weight_num", "weight_den"}
        assert rec["kind"] in ("sink", "source", "saddle")
        assert rec["index"] in (-1, 1)
        assert rec["weight_den"] in (1, 2, 4)
