"""Zero-mode census, classification, closed-zone weights, Euler characteristic."""

import math
import random
import sys
from fractions import Fraction

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
from blochflow.model import PARAM_MAX, PARAM_MIN, _phase, _trig_rho, zero_bifurcations
from blochflow.zeromode import _census_zeros, _chi, _closed_form_census, _line_jacobians, ZeroKind

from oracles import (
    SMALL_C_LIMIT,
    array_hessian,
    array_velocity_and_gap,
    axis_distance,
    brute_zero_census,
    census_fold,
    census_gap,
    census_jacobian,
    classify,
    fraction_phase,
    full_backtrack_census,
    params_near_critical,
    placed,
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


# The oracles that check the census zero by zero cannot do so within 1e-5 R
# of c_p or c_f, where zeros are born or merge: the 64 x 64 Newton seed grid
# of full_backtrack_census raises NonIsolatedZero on its own near-duplicate
# seeds where the census answers, and the loop of a quarter of the distance
# to the nearest zero can run out of samples (InsufficientSampling).  This is
# the oracles' limit, not the census's: on the params_near_critical draws the
# census's two float checks refuse only well inside this band.  Nor can they
# check c / R <= SMALL_C_LIMIT, where the census answers (``oracles``).
ORACLE_BAND = 1e-5


def _near_bifurcation(p):
    return min(abs(p.c - b) for b in zero_bifurcations(p.R, p.r)) / p.R <= ORACLE_BAND


def _beyond_the_oracles(p):
    return _near_bifurcation(p) or p.c / p.R <= SMALL_C_LIMIT


def _assert_refusal_is_exact_or_float(p, error):
    """A census refusal is one that the exact phase or the census's own floats decide, with no threshold:
    c == 0 (DegenerateField); c exactly at R -+ r (GaplessModel) or at c_p or c_f (DegenerateZero); a
    float check (NonIsolatedZero or DegenerateZero) within ORACLE_BAND of c_p or c_f; or a DegenerateZero
    where every zero whose float det and trace miss its kind has a det of 0.0 or a subnormal one."""
    phase = fraction_phase(*p)
    if p.c == 0.0:
        assert type(error) is DegenerateField, (p, error)
    elif phase % 2:
        assert type(error) is (GaplessModel if phase in (1, 7) else DegenerateZero), (p, error)
    elif not (_near_bifurcation(p) and type(error) in (NonIsolatedZero, DegenerateZero)):
        assert type(error) is DegenerateZero, (p, error)
        missed = [det for _, _, det, trace, kind in _oracle_zeros(p) if _shown(det, trace) is not kind]
        assert missed and all(abs(det) < sys.float_info.min for det in missed), (p, error)


def _census_or_refused(p):
    """The census of p, or None where it refuses as it may (``_assert_refusal_is_exact_or_float``)."""
    try:
        return euler_characteristic(p)
    except TopologyError as e:
        _assert_refusal_is_exact_or_float(p, e)
        return None


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
    # In every answered census, near the bifurcations too, the four fixed
    # zeros sit exactly on the symmetry points (there |v| evaluates to the
    # rounding floor of sin(pi) over |h|, above 1e-12 near a gap closing);
    # every other zero is a root of v to 1e-12; each Jacobian shows its
    # zero's kind (``classify``)
    p = ModelParams(*params)
    res = _census_or_refused(p)
    if res is None:
        return
    modes = res.modes
    points = [(z.location.kx, z.location.ky) for z in modes]
    assert [q for q in points if q in FIXED_ZEROS] == FIXED_ZEROS
    for z in modes:
        assert classify(z.det, z.trace) is z.kind
        if (z.location.kx, z.location.ky) not in FIXED_ZEROS:
            vx, vy, _ = velocity_and_gap(z.location.kx, z.location.ky, p)
            assert math.hypot(float(vx), float(vy)) <= 1e-12


@settings(max_examples=200)
@given(params_near_critical())
def test_index_equals_small_loop_winding(params):
    # the index two ways: the sign of the Hessian determinant, and the
    # winding of v on a circle around the zero that encloses no other
    # zero (radius a quarter of the distance to the nearest one), outside
    # the bands where that loop cannot resolve
    p = ModelParams(*params)
    res = None if _beyond_the_oracles(p) else _census_or_refused(p)
    if res is None:
        return
    modes = res.modes
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
    p = ModelParams(*params)
    res = _census_or_refused(p)
    if res is None:
        return
    canonical, records = res.modes, _closed_zone(p)
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


@st.composite
def crowding_params(draw):
    """(R, r, c) with r -> R and c near the pitchfork c_p or the fold c_f:
    there zeros on kx = pi crowd each other."""
    R = 10.0 ** draw(st.floats(-3.0, 3.0))
    r = R * (1.0 - 10.0 ** draw(st.floats(-8.0, -1.0)))
    anchor = draw(st.sampled_from(zero_bifurcations(R, r)))
    offset = draw(st.sampled_from((-1.0, 1.0))) * 10.0 ** draw(st.floats(-5.0, -2.0))
    return R, r, abs(anchor + offset * R)


@settings(max_examples=300)
@given(crowding_params())
@example((1.0, 0.99, 0.019920000000000028))  # -pi, -arccos u and, across the wrap, +arccos u within 1e-3
def test_crowded_census_is_exact(params):
    # 1e-5 R to 1e-2 R from c_p or c_f as r -> R, the zeros on kx = pi can
    # lie much closer than 1e-3 in ky: the census answers all the same,
    # exactly, unless c = 0, c = R -+ r exactly or a float det underflows
    p = ModelParams(*params)
    res = _census_or_refused(p)
    if res is not None:
        _assert_exact(res, p)


def test_census_answers_where_zeros_crowd():
    # r / R = 0.99 just above c_p = 0.0199: the zero pair born at (pi, pi)
    # lies within 1e-3 of it in ky, where a 1e-3 isolation radius refused
    for c in (0.019920000000000028, 0.01995):
        p = ModelParams(1.0, 0.99, c)
        res = euler_characteristic(p)
        assert min(PI - abs(z.location.ky) for z in res.modes if z.location.ky != -PI) < 1e-3
        _assert_exact(res, p)
    # at the float 0.0199, just below c_p, det J at (pi, 0) is 0.0 in floats
    with pytest.raises(DegenerateZero, match=r"det J = 0\.000e\+00 and trace J = .* do not show a saddle"):
        euler_characteristic(ModelParams(1.0, 0.99, 0.0199))


def _census_outcome(census, p):
    """The zero list, or the class of the typed error."""
    try:
        return census(p)
    except TopologyError as e:
        return type(e)


def _newton_zeros(p):
    """The Newton oracle's zeros, each with a kind that the oracle Hessian shows (``classify``)."""
    zeros = full_backtrack_census(p)
    for kx, ky in zeros:
        hxx, hxy, hyy = (float(h[0]) for h in array_hessian(np.array([kx]), np.array([ky]), p))
        classify(hxx * hyy - hxy * hxy, hxx + hyy)
    return zeros


@settings(max_examples=60)
@given(params_near_critical())
def test_census_matches_full_backtrack_oracle(params):
    # the paper's generic Newton census certifies the closed form: outside
    # the oracle's bands both find the same zeros or raise the same typed
    # error; inside them, and where the oracle's seed grid has a gap of at
    # most EPS_GAP R, the closed form answers exactly or refuses as it may
    # (``_census_or_refused``)
    p = ModelParams(*params)
    ref = None if _beyond_the_oracles(p) else _census_outcome(_newton_zeros, p)
    if ref is None or ref is GaplessModel:
        res = _census_or_refused(p)
        if res is not None:
            _assert_exact(res, p)
        return
    mine = _census_outcome(_canonical_zeros, p)
    if not isinstance(ref, list):
        assert mine is ref
        return
    assert isinstance(mine, list) and len(mine) == len(ref)
    for kx, ky in mine:
        assert min(float(torus_distance(kx, ky, x, y)) for x, y in ref) < 1e-9


def test_census_kernel_work(monkeypatch):
    # the census kernel evaluates the factors of each distinct |ky| once, on
    # floats, and nothing else: the fixed zeros share the lines ky = -pi and
    # 0, and each pair (pi, -+arccos u) one more, so 2 lines for 4 zeros and
    # 4 for 8; every consumer of the kernel does the same work
    lines = []

    def counting(ky, p):
        assert type(ky) is float
        lines.append(ky)
        return _trig_rho(ky, p)

    monkeypatch.setattr(blochflow.zeromode, "_trig_rho", counting)
    assert not hasattr(blochflow.zeromode, "np")
    for c, count in ((1.2, 2), (3.0, 4), (4.5, 2)):
        p = ModelParams(3, 1, c)
        lines.clear()
        zeros = _census_zeros(p, *placed(p))
        assert len(zeros) == 2 * count
        assert len(lines) == count
        assert sorted(abs(y) for y in lines) == sorted({abs(z[1]) for z in zeros})
        assert all(type(x) is float for z in zeros for x in z[:4])
        assert all(type(z[4]) is ZeroKind for z in zeros)
        for consumer in (lambda p: _chi(p, *placed(p)), euler_characteristic):
            lines.clear()
            consumer(p)
            assert len(lines) == count


@settings(max_examples=300)
@given(st.floats(-1.0, 1.0))
@example(-1.0)
@example(1.0)
def test_libm_facts_of_the_census_kernel(u):
    # the kernel takes cos kx as 1.0 at kx = 0 and -1.0 at -pi, and the pair
    # (pi, -+arccos u) from the line of one of them: sin is odd and cos even
    # bit for bit
    assert math.cos(0.0) == 1.0
    assert math.cos(-math.pi) == -1.0
    ky = math.acos(u)
    assert math.sin(-ky).hex() == (-math.sin(ky)).hex()
    assert math.cos(-ky).hex() == math.cos(ky).hex()


def _near(draw, anchor, scale):
    """anchor itself, 1 to 64 ulps from it, or 1e-12 to 1e-3 times scale from it, either side."""
    how = draw(st.sampled_from(("at", "ulps", "relative")))
    if how == "at":
        return anchor
    if how == "ulps":
        steps = draw(st.integers(-64, 64).filter(bool))
        for _ in range(abs(steps)):
            anchor = math.nextafter(anchor, math.inf if steps > 0 else -math.inf)
        return anchor
    return anchor + draw(st.sampled_from((-1.0, 1.0))) * scale * 10.0 ** draw(st.floats(-12.0, -3.0))


@st.composite
def kernel_params(draw):
    """(R, r, c): R over six decades, r/R up to 1 - 1e-12, and c at, 1 to 64
    ulps from, or 1e-12 R to 1e-3 R from c_p, c_f, R -+ r or 0; or an
    integer triple."""
    if draw(st.integers(0, 4)) == 0:
        R = draw(st.integers(2, 12))
        return R, draw(st.integers(1, R - 1)), draw(st.integers(0, 3 * R))
    R = 10.0 ** draw(st.floats(-3.0, 3.0))
    r = R * draw(st.one_of(st.floats(1e-3, 1.0 - 1e-3), st.floats(-12.0, -1.0).map(lambda e: 1.0 - 10.0**e)))
    anchor = draw(st.sampled_from((0.0, *zero_bifurcations(R, r), R - r, R + r)))
    return R, r, abs(_near(draw, anchor, R))


def _refusal(census, p):
    """census(p), or the class and message of its typed error."""
    try:
        return census(p)
    except TopologyError as e:
        return type(e), str(e)


def _oracle_zeros(p):
    """(kx, ky, det, trace, kind) at each census point: det and trace by the per-zero oracle Jacobian."""
    zeros = []
    for kx, ky, kind in _closed_form_census(p, *placed(p)):
        hxx, hyy = census_jacobian(kx, ky, p)
        zeros.append((kx, ky, hxx * hyy, hxx + hyy, kind))
    return zeros


def _shown(det, trace):
    """The kind that (det, trace) shows (``classify``), or None."""
    try:
        return classify(det, trace)
    except DegenerateZero:
        return None


def _bits(zeros):
    return [tuple(x.hex() for x in z) for z in zeros]


@settings(max_examples=400)
@given(kernel_params())
@example((3, 1, 2))
@example((2.0, 1.0, 1.5))
@example((1.0, 0.99, 0.019920000000000028))
def test_census_kernel_matches_the_per_zero_oracle(params):
    # each kernel zero has the oracle's location, det and trace bit for bit
    # and the census's kind; both consumers answer where those floats show
    # every kind (``classify``), exactly, and otherwise raise DegenerateZero;
    # all three raise the census's error with the same message
    p = ModelParams(*params)
    want = _refusal(_oracle_zeros, p)
    got, res = _refusal(lambda p: _census_zeros(p, *placed(p)), p), _refusal(euler_characteristic, p)
    chi = _refusal(lambda p: _chi(p, *placed(p)), p)
    if not isinstance(want, list):
        assert got == res == chi == want
        return
    if any(_shown(det, trace) is not kind for _, _, det, trace, kind in want):
        assert got == res == chi and got[0] is DegenerateZero
        return
    assert _bits([z[:4] for z in got]) == _bits([z[:4] for z in want])
    assert [z[4] for z in got] == [z[4] for z in want]
    assert [(*z.location, z.det, z.trace, z.kind) for z in res.modes] == want
    _assert_exact(res, p)
    assert chi == res.chi == 0
    assert type(chi) is int


@st.composite
def band_params(draw):
    """(R, r, c) next to c = 0 or a closing: R = 10^U(-3, 3), r/R in [0.01, 0.99] or 1 - 10^U(-9, -1),
    and c = R 10^U(-300, -6), or 1 to 64 ulps or R 10^U(-16, -9) from the float R - r or R + r."""
    R = 10.0 ** draw(st.floats(-3.0, 3.0))
    r = R * draw(st.one_of(st.floats(0.01, 0.99), st.floats(-9.0, -1.0).map(lambda e: 1.0 - 10.0**e)))
    anchor = draw(st.sampled_from((None, R - r, R + r)))
    if anchor is None:
        return R, r, R * 10.0 ** draw(st.floats(-300.0, -6.0))
    if draw(st.booleans()):
        steps = draw(st.integers(-64, 64).filter(bool))
        for _ in range(abs(steps)):
            anchor = math.nextafter(anchor, math.inf if steps > 0 else -math.inf)
        return R, r, anchor
    return R, r, abs(anchor + draw(st.sampled_from((-1.0, 1.0))) * R * 10.0 ** draw(st.floats(-16.0, -9.0)))


@settings(max_examples=400)
@given(band_params())
@example((3.0, 1.0, 3e-7))
@example((3e6, 1e6, 4000000.001))
@example((1.0, 0.1, 1.1))  # the float 1.1 is R + r rounded, just above the exact R + r
@example((3.0, 1.0, 5e-324))  # det J at (pi, 0) underflows to -0.0
@example((3.0, 1.0, 2.0))
def test_census_answers_next_to_zero_and_the_closings(params):
    # no band around c = 0 or R -+ r: every answer has the exact zero count
    # and kinds and chi = 0, and every refusal is one that the exact phase or
    # the census's own floats decide (``_assert_refusal_is_exact_or_float``)
    p = ModelParams(*params)
    res = _census_or_refused(p)
    if res is not None:
        _assert_exact(res, p)
        assert len(res.modes) == (8 if fraction_phase(*p) == 4 else 4)


# det J at (pi, 0) and (pi, pi) is + and - c r R (c - c_p) / (c - (R +- r))^2.
# The kernel's relative error is at most DET_BOUND (eps + delta) (1 + kappa):
# kappa = ((R +- r)^2 + c R) / (R |c - c_p|) is the cancellation of G_yy's
# terms next to c_p, and delta = (r sin(-pi) / (R - r))^2 at (pi, pi) the
# float ky = -pi's share in rho (0 at ky = 0).  Measured: at most 1.9 on
# 160,000 sets drawn as in band_params and within 1e-12 R to 1e-3 R of c_p,
# c_f and R -+ r, with every product normal.
DET_BOUND = 4.0


@settings(max_examples=400)
@given(st.one_of(band_params(), kernel_params()))
@example((1.0, 0.1, 1.1))
@example((2.0, 1.0, 1.175494351e-38))
def test_fixed_zero_det_matches_the_factored_form(params):
    p = ModelParams(*params)
    R, r, c = (Fraction(x) for x in p)
    c_p = (R * R - r * r) / R
    for ky, sign in ((0.0, 1), (-PI, -1)):
        closing = R + sign * r
        if c in (0, c_p, R - r, R + r):
            return  # det is 0, or |h| is 0 at one of the two points
        det = _line_jacobians(ky, p)[0][0]
        if min(p.c * p.r * p.R, p.c * (p.R - p.r), abs(det)) < sys.float_info.min:
            continue  # a subnormal product has fewer bits than eps assumes
        want = sign * c * r * R * (c - c_p) / (c - closing) ** 2
        kappa = (closing**2 + c * R) / (R * abs(c - c_p))
        delta = (r * Fraction(math.sin(PI)) / (R - r)) ** 2 if sign < 0 else 0
        eps = Fraction(sys.float_info.epsilon)
        assert abs(Fraction(det) - want) <= DET_BOUND * (eps + delta) * (1 + kappa) * abs(want), (p, ky, det)


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
@example((1.0, 1e-08, 0.9999999999999999))
@example((1.0, 1e-08, 0.99999999))
def test_float_hessian_matches_array_oracle(params):
    # at every census zero the diagonal Jacobian (math) is the general-point
    # array Hessian (the oracle, numpy, whose rho**3 is its own power) up to
    # the last bits, the oracle's hxy is rounding noise, and both show the
    # same kind wherever each diagonal entry is well above those bits.  At
    # (pi, 0) and (pi, pi) the oracle's |h| is the float sqrt, whose rho
    # rounds R +- r: next to a closing it loses digits that census_jacobian's
    # |c - (R +- r)| keeps, as at (1, 1e-8, 0.9999999999999999).  There the
    # oracle's entries are scaled to the census's |h|.  Its float ky = -pi
    # also gives it hz = r sin(-pi) and a vx of c rho sin(-pi) / |h|, terms of
    # relative size (1e-16 R / |h|)^2 in its Hessian; where its |h| is at
    # most 1e-9 R, as at (1, 1e-8, 0.99999999), they exceed the test's bound
    # and the point is skipped (the factored-form test checks it).
    p = ModelParams(*params)
    try:
        points = _closed_form_census(p, *placed(p))
    except TopologyError:
        return
    for kx, ky, _ in points:
        hxx, hyy = census_jacobian(kx, ky, p)
        x, y = np.array([kx]), np.array([ky])
        want = [float(h[0]) for h in array_hessian(x, y, p)]
        if kx == -PI and ky in (0.0, -PI):
            gap = float(array_velocity_and_gap(x, y, p)[2][0])
            if gap <= 1e-9 * p.R:
                continue
            want = [h * (gap / census_gap(p, ky)) for h in want]
        scale = max(abs(h) for h in want)
        got = (hxx, 0.0, hyy)
        assert all(abs(a - b) <= 1e-13 * scale for a, b in zip(got, want)), (got, want)
        if min(abs(hxx), abs(hyy)) > 1e-12 * scale:
            assert _shown(hxx * hyy, hxx + hyy) is _shown(want[0] * want[2] - want[1] ** 2, want[0] + want[2])


@settings(max_examples=100)
@given(st.floats(1.5, 4.0), st.floats(0.2, 0.8))
def test_fold_matches_scan(R, ratio):
    # the closed-form fold is the maximum that the dense scan approaches
    # from below, and the bifurcations sit inside the Chern phase
    r = R * ratio
    c_p, c_f = zero_bifurcations(R, r)
    assert 0.0 <= c_f - census_fold(R, r) <= 1e-6 * c_f
    assert R - r < c_p < c_f < R + r


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


def _exact_fixed_kinds(R, r, c):
    """The kinds of the fixed zeros (pi, 0) and (pi, pi), decided on fractions.

    There hxx = c rho / |h| > 0, and G_yy is r R (c - c_p) / (R + r) at
    ky = 0 and r R (c_p - c) / (R - r) at ky = pi.  So (pi, 0) is a source
    for c > c_p and a saddle for c < c_p, and (pi, pi) the reverse.
    """
    R, r, c = Fraction(R), Fraction(r), Fraction(c)
    if c * R > R * R - r * r:
        return ZeroKind.SOURCE, ZeroKind.SADDLE
    return ZeroKind.SADDLE, ZeroKind.SOURCE


def _assert_exact(res, p):
    """An answered census has the zero count and the fixed-zero kinds on
    kx = pi that exact arithmetic gives, and chi = 0; (0, 0) is a sink and
    (0, pi) a saddle; on kx = pi off ky in {0, pi}, the root pair nearer
    ky = pi (the smaller u) is a source pair and the other a saddle pair;
    and each zero's float det and trace show its kind (``classify``)."""
    assert len(res.modes) == _exact_zero_count(*p), p
    kinds = {(z.location.kx, z.location.ky): z.kind for z in res.modes}
    assert (kinds[(-PI, 0.0)], kinds[(-PI, -PI)]) == _exact_fixed_kinds(*p), p
    assert (kinds[(0.0, 0.0)], kinds[(0.0, -PI)]) == (ZeroKind.SINK, ZeroKind.SADDLE), p
    pairs = sorted((abs(ky), kind.value) for (kx, ky), kind in kinds.items() if kx == -PI and ky not in (-PI, 0.0))
    assert [kind for _, kind in pairs] == (["saddle"] * 2 + ["source"] * 2 if pairs else []), p
    assert all(classify(z.det, z.trace) is z.kind for z in res.modes), p
    assert res.chi == 0, p


def _assert_exact_count_or_refused(p):
    """The census either refuses with a typed error or is exact (_assert_exact)."""
    try:
        res = euler_characteristic(p)
    except TopologyError:
        return
    _assert_exact(res, p)


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


def test_census_answers_near_the_pitchfork():
    # the bifurcation probes 1e-12 R to 1e-5 R from c_p, for 100 (R, r)
    # pairs drawn as in test_census_near_bifurcations_has_the_exact_zero_count
    # from a fixed seed: every answered census is exact, and at least 95 %
    # are answered on each side of c_p
    rng = random.Random(29)
    answered = {-1: [], 1: []}
    for i in range(100):
        R = 10.0 ** rng.uniform(-2.0, 2.0)
        r = R * (rng.uniform(0.05, 0.95) if i % 2 else 1.0 - 10.0 ** rng.uniform(-6.0, -1.0))
        c_p = zero_bifurcations(R, r)[0]
        for c in _bifurcation_probes(R, r):
            if c < 0.0 or not 1e-12 <= abs(c - c_p) / R <= 1e-5:
                continue
            p = ModelParams(R, r, c)
            try:
                res = euler_characteristic(p)
            except TopologyError:
                res = None
            else:
                _assert_exact(res, p)
            answered[1 if c > c_p else -1].append(res is not None)
    for side in answered.values():
        assert len(side) >= 1000 and sum(side) >= 0.95 * len(side)


@st.composite
def phase_params(draw):
    """(R, r, c): R from about 1e-49 to 1e49, r/R from 1e-12 to 1 - 1e-12 but
    r at least PARAM_MIN, and c = 0.0, -0.0, anywhere up to 2 R or at, 1 to 64
    ulps from, or 1e-12 R to 1e-3 R from R - r, c_p, c_f or R + r; or an
    integer triple."""
    if draw(st.integers(0, 4)) == 0:
        R = draw(st.integers(2, 40))
        return R, draw(st.integers(1, R - 1)), draw(st.integers(0, 3 * R))
    R = 10.0 ** draw(st.floats(-49.0, 49.0))
    ratio = draw(st.one_of(st.floats(1e-12, 1.0 - 1e-12), st.floats(-12.0, -1.0).map(lambda e: 1.0 - 10.0**e)))
    r = max(PARAM_MIN, R * ratio)
    anchor = draw(st.sampled_from((None, 0.0, -0.0, R - r, *zero_bifurcations(R, r), R + r)))
    if anchor is None:
        return R, r, R * draw(st.floats(0.0, 2.0))
    if anchor == 0.0:
        return R, r, anchor
    return R, r, min(PARAM_MAX, abs(_near(draw, anchor, R)))


def test_phase_numbers_the_nine_positions():
    # at (3, 1): R - r = 2, c_p = 8/3, c_f = 3.1682..., R + r = 4; c_p is 1.5
    # at (2, 1), and c_f is 17576 at (12167, 11109), (23, 21, 26) times 529
    cases = [(3, 1, 1), (3, 1, 2), (3, 1, 2.5), (2, 1, 1.5), (3, 1, 3), (12167, 11109, 17576), (3, 1, 3.5), (3, 1, 4)]
    assert [_phase(ModelParams(*p)) for p in [*cases, (3, 1, 5)]] == list(range(9))


@settings(max_examples=400)
@given(phase_params())
@example((2.0, 1.0, 1.5))  # c_p
@example((1.0, 0.5, 0.75))  # c_p
@example((12167, 11109, 17576))  # c_f
@example((3, 1, 3))
@example((3.0, 1.0, 2.0))  # R - r
@example((3.0, 1.0, 4.0))  # R + r
@example((3.0, 1.0, -0.0))
@example((1e49, 1e-50, 1e49))  # R -+ r round to R, c = R lies between them
@example((2e-50, 1e-50, 1e-50))  # R - r at PARAM_MIN
@example((1e49, 5e48, 5e48))  # R - r at 1e49
def test_phase_matches_the_fraction_oracles(params):
    # _phase places c among R - r < c_p < c_f < R + r as the fractions
    # oracle does, at each of the four and next to it; the zero count and
    # the fixed-zero kinds read from it are the fractions oracles', c = c_p
    # and c = c_f included
    p = ModelParams(*params)
    phase = _phase(p)
    assert type(phase) is int and phase == fraction_phase(*p)
    assert (_exact_fixed_kinds(*p) == (ZeroKind.SOURCE, ZeroKind.SADDLE)) is (phase > 3)
    count = _exact_zero_count(*p)
    assert (count is None) is (phase in (3, 5))
    assert (count == 8) is (phase == 4)


# c_p - 1e-8 R, c_p + 1e-6 R, c_f - 1e-7 R and c_f + 1e-12 R, as (anchor, offset / R)
BIFURCATION_OFFSETS = ((0, -1e-8), (0, 1e-6), (1, -1e-7), (1, 1e-12))


@pytest.mark.parametrize(
    "R, r",
    # with r/R nearer 1, det J at (pi, 0) is below 1e-8 R^2 at c_p - 1e-8 R,
    # and the zero pair near (pi, pi) or the fold closer than 1e-3 in ky
    [(3.0, 1.0), (4.0, 0.8), (2.0, 1.5), (1.2, 1.0)],
    ids=["3.0-1.0", "4.0-0.8", "2.0-1.5", "1.2-1.0"],
)
def test_census_answers_close_to_the_bifurcations(R, r):
    # no band around c_p or c_f, no det threshold and no isolation radius:
    # the census answers, and every answer is exact
    for anchor, offset in BIFURCATION_OFFSETS:
        p = ModelParams(R, r, zero_bifurcations(R, r)[anchor] + offset * R)
        _assert_exact(euler_characteristic(p), p)


@pytest.mark.parametrize("s", [1e-50, 1e-6, 1e-4, 1e-3, 1.0, 1e3, 1e5])
def test_census_is_scale_free(s):
    # scaling R, r and c together scales h; the zeros and their kinds stay
    want = [(z.location, z.kind) for z in euler_characteristic(P1).modes]
    res = euler_characteristic(ModelParams(3 * s, s, s))
    assert res.chi == 0
    assert len(res.modes) == 4
    assert [(z.location, z.kind) for z in res.modes] == want


def test_pitchfork_end_roots_are_the_fixed_zeros():
    # at (R, r) = (2, 1) the cubic at c_p = 3/2 has the exact roots u = -+1,
    # which are the fixed zeros (pi, pi) and (pi, 0), not new ones; the
    # census refuses c = c_p itself, before any float decides
    assert zero_bifurcations(2.0, 1.0)[0] == 1.5
    with pytest.raises(DegenerateZero, match="is the pitchfork c_p exactly"):
        euler_characteristic(ModelParams(2.0, 1.0, 1.5))


@pytest.mark.parametrize(
    "R, r, c, which",
    # (23, 21, 26) times 529 at c_f: R^2 + r^2/3 = (26 * 529)^2
    [(1.0, 0.5, 0.75, "pitchfork c_p"), (1.0, 0.75, 0.4375, "pitchfork c_p"), (12167, 11109, 17576, "fold c_f")],
)
def test_census_refuses_exactly_at_the_bifurcations(R, r, c, which):
    # c is c_p or c_f in exact arithmetic: zeros merge there, and the census
    # refuses by the exact phase, whatever the floats would show
    assert _exact_zero_count(R, r, c) is None
    with pytest.raises(DegenerateZero, match=f"is the {which} exactly"):
        euler_characteristic(ModelParams(R, r, c))


def test_classify_rules():
    # the kinds follow where c lies: (0, 0) is a sink and (0, pi) a saddle;
    # (pi, 0) is a source and (pi, pi) a saddle above c_p = 8/3, the reverse
    # below; between c_p and c_f = 3.1682, of the pair with the larger
    # |ky| = arccos u (the smaller u) both are sources, of the other both
    # saddles; and each float (det, trace) shows its kind (``classify``)
    for c, pi_0, pi_pi in ((1.0, "saddle", "source"), (3.0, "source", "saddle"), (3.5, "source", "saddle")):
        modes = euler_characteristic(ModelParams(3, 1, c)).modes
        kinds = {(z.location.kx, z.location.ky): z.kind.value for z in modes}
        assert kinds.pop((0.0, 0.0)) == "sink" and kinds.pop((0.0, -PI)) == "saddle"
        assert (kinds.pop((-PI, 0.0)), kinds.pop((-PI, -PI))) == (pi_0, pi_pi)
        ky = sorted(kinds, key=lambda k: abs(k[1]))
        assert [kinds[k] for k in ky] == (["saddle"] * 2 + ["source"] * 2 if c == 3.0 else [])
        assert all(classify(z.det, z.trace) is z.kind for z in modes)


def test_index_rules():
    modes = euler_characteristic(P1).modes
    for z in modes:
        assert z.index == (1 if z.det > 0 else -1)
        assert z.kind is classify(z.det, z.trace)


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
        assert classify(z.det, -z.trace) is swap[z.kind]


def test_census_answers_just_below_the_fold():
    # 1e-8 below the fold, where the two zero pairs merge, each source lies
    # within 1e-3 of its saddle in ky: the census answers 8 zeros, exactly
    p = ModelParams(3, 1, zero_bifurcations(3, 1)[1] - 1e-8)
    res = euler_characteristic(p)
    ky = sorted(z.location.ky for z in res.modes if z.location.kx == -PI)
    assert min(b - a for a, b in zip(ky, ky[1:])) < 1e-3
    _assert_exact(res, p)


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
