"""Model layer: parameters, Bloch vector, tangent frame, CSV dump."""

import errno
import io
import json
import math
import pickle
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blochflow import KPoint, LoopSpec, ModelParams, SweepAxis, chern, model, sweep, winding, zeromode
from blochflow.chern import chern_plaquette, gap_min
from blochflow.cli import main
from blochflow.errors import SpoolError
from blochflow.model import (
    PARAM_MAX,
    PARAM_MIN,
    SURFACE_CSV_HEADER,
    _bloch,
    _kx_pi_cubic,
    _kx_pi_roots,
    _kx_trig,
    _trig_rho,
    write_surface_csv,
    zero_bifurcations,
)
from blochflow.sweep import sweep_chern, sweep_euler
from blochflow.winding import winding_hermitian
from blochflow.zeromode import euler_characteristic

from oracles import (
    array_bloch_components,
    array_trig_rho,
    array_velocity_and_gap,
    axis_distance,
    bloch_components,
    fd_bloch_frame,
    frame_components,
    generator_params_error,
    generic_velocity_and_gap,
    numpy_kx_pi_roots,
    params_near_critical,
    pointwise,
    scan_gap_min,
    surface_csv_rows,
    velocity_and_gap,
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


# NaN, -+inf, -+0.0, the bounds and their neighbours, integers (int(PARAM_MAX)
# is the float's value, one more lies above it) and bools
_PARAM_EDGES = (
    math.nan,
    math.inf,
    -math.inf,
    0.0,
    -0.0,
    PARAM_MAX,
    -PARAM_MAX,
    math.nextafter(PARAM_MAX, 0.0),
    math.nextafter(PARAM_MAX, math.inf),
    math.nextafter(-PARAM_MAX, -math.inf),
    PARAM_MIN,
    -PARAM_MIN,
    math.nextafter(PARAM_MIN, 0.0),
    math.nextafter(PARAM_MIN, 1.0),
    3 * PARAM_MIN,
    1.0,
    3.0,
    0,
    1,
    3,
    -1,
    int(PARAM_MAX),
    int(PARAM_MAX) + 1,
    True,
    False,
)


def _params_error(R, r, c):
    try:
        ModelParams(R, r, c)
    except ValueError as e:
        return str(e)
    return None


def test_params_checks_match_the_generator_form_on_every_edge():
    for R in _PARAM_EDGES:
        for r in _PARAM_EDGES:
            for c in _PARAM_EDGES:
                assert _params_error(R, r, c) == generator_params_error(R, r, c), (R, r, c)


_PARAM_VALUES = st.one_of(st.sampled_from(_PARAM_EDGES), st.floats(), st.integers(-(10**60), 10**60), st.booleans())


@settings(max_examples=500)
@given(_PARAM_VALUES, _PARAM_VALUES, _PARAM_VALUES)
def test_params_checks_match_the_generator_form(R, r, c):
    # the chained range test accepts and rejects what the generator did, with the same message
    assert _params_error(R, r, c) == generator_params_error(R, r, c)


@pytest.mark.parametrize(
    "cls, good, bad, message",
    [
        (ModelParams, (3.0, 1.0, 1.0), {"r": 5.0}, "must exceed tube radius"),
        (ModelParams, (3.0, 1.0, 1.0), {"c": -1.0}, "must be nonnegative"),
        (ModelParams, (3.0, 1.0, 1.0), {"R": math.inf}, "finite and at most"),
        (SweepAxis, ("c", 0.0, 1.0, 3), {"name": "q"}, "axis name must be one of"),
        (SweepAxis, ("c", 0.0, 1.0, 3), {"stop": math.nan}, "must be finite"),
        (SweepAxis, ("c", 0.0, 1.0, 3), {"steps": 0}, "steps >= 1"),
        (SweepAxis, ("c", 0.0, 1.0, 3), {"start": 2.0}, "start < stop"),
        (SweepAxis, ("c", 0.0, 1.0, 3), {"steps": 2.5}, "steps must be an integer"),
        (SweepAxis, ("c", 0.0, 1.0, 3), {"steps": 3.0}, "steps must be an integer"),
        (LoopSpec, (KPoint(0.0, 0.0), 0.3, None), {"radius": -0.3}, "must be positive and finite"),
        (LoopSpec, (KPoint(0.0, 0.0), 0.3, None), {"radius": math.nan}, "must be positive and finite"),
        (LoopSpec, (KPoint(0.0, 0.0), 0.3, None), {"center": None}, "a center and a radius .* or points alone"),
    ],
)
def test_validated_records_check_every_constructor(cls, good, bad, message):
    # the records are named tuples, whose _make and _replace build the tuple
    # without calling __new__: each way in must still run the checks
    record = cls(*good)
    values = {**record._asdict(), **bad}
    for build in (
        lambda: cls(*values.values()),
        lambda: cls(**values),
        lambda: cls._make(values.values()),
        lambda: record._replace(**bad),
    ):
        with pytest.raises(ValueError, match=message):
            build()
    again = pickle.loads(pickle.dumps(record))
    assert (again, type(again)) == (record, cls)
    assert record._replace() == record == good
    # a pickle of a record with the bad values, built past the checks
    forged = pickle.dumps(tuple.__new__(cls, values.values()))
    with pytest.raises(ValueError, match=message):
        pickle.loads(forged)


# One instance of each public record class, with the command whose JSON
# object lists that record's fields, if any.
_RECORDS = {
    "ModelParams": (lambda: ModelParams(3, 1, 1), None),
    "KPoint": (lambda: KPoint(0.5, -1.0), None),
    "SweepAxis": (lambda: SweepAxis("c", 0.5, 4.5, 9), None),
    "LoopSpec": (lambda: LoopSpec.circle(KPoint(0.0, 0.0), 0.3), None),
    "ZeroMode": (lambda: euler_characteristic(ModelParams(3, 1, 1)).modes[0], None),
    "EulerResult": (lambda: euler_characteristic(ModelParams(3, 1, 3)), None),
    "ChernResult": (lambda: chern_plaquette(ModelParams(3, 1, 3)), ["chern", "--c", "3"]),
    "WindingResult": (lambda: winding_hermitian(LoopSpec.circle(KPoint(0.0, 0.0), 0.3), P1), ["winding", "--c", "3"]),
    "SweepCell": (lambda: sweep_euler([SweepAxis("c", 0.5, 4.5, 3)], P1).cells[1], None),
    "PhaseDiagramGrid": (lambda: sweep_chern([SweepAxis("c", 0.5, 4.5, 3)], P1), None),
}


def test_every_public_record_class_is_listed():
    modules = (model, zeromode, chern, winding, sweep)
    found = {name for m in modules for name, v in vars(m).items() if isinstance(v, type) and hasattr(v, "_fields")}
    assert found == set(_RECORDS)


@pytest.mark.parametrize("name", _RECORDS)
def test_records_are_slotted_named_tuples(name, capsys):
    build, command = _RECORDS[name]
    record = build()
    assert type(record).__name__ == name
    # no instance __dict__: neither a new attribute nor a field can be set
    assert not hasattr(record, "__dict__")
    for attribute in ("note", record._fields[0]):
        with pytest.raises(AttributeError):
            setattr(record, attribute, None)
    again = pickle.loads(pickle.dumps(record))
    assert (again, type(again)) == (record, type(record))
    if command:
        # the CLI writes the record's _asdict() in field order, samples as samples_used
        assert main(command) == 0
        keys = list(json.loads(capsys.readouterr().out))
        assert keys == [{"samples": "samples_used"}.get(f, f) for f in record._fields]


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
    a = np.array(pointwise(bloch_components, kx, ky, P1))
    b = np.array(pointwise(bloch_components, kx + 2 * math.pi, ky, P1))
    c = np.array(pointwise(bloch_components, kx, ky + 2 * math.pi, P1))
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
    buf = io.BytesIO()
    write_surface_csv(p, n, buf)
    return buf.getvalue().decode("ascii").splitlines()


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
            write_surface_csv(P1, n, io.BytesIO())


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


@pytest.mark.parametrize(
    "c, n",
    [
        (0.0, 33),
        (0.0, 64),
        (5e-324, 13),
        (5e-324, 47),
        (5e-324, 64),
        (3e-308, 64),
        (1.0, 2),
        (1.0, 3),
        (1.0, 26),
        (1.0, 33),
        (1.0, 47),
        (0.0, 47),
        (1.0, 64),
        (1.0, 100),
        (3e-308, 104),
        (1.0, 256),
        (1.3, 512),
    ],
)
def test_surface_csv_mirror_pairs_match_oracle_rows(c, n):
    # Node n - i mirrors node i in kx, and line n - i mirrors line i in ky:
    # every pair, on the exactly symmetric ticks
    # (test_surface_csv_formats_a_quarter_of_the_grid), and none at n = 2.
    # A partner's vx takes its sign from its own node's vx, which is 0 at
    # c = 0 and where it underflows (c = 5e-324).  At c = 3e-308 node 0's
    # vx underflows to 0 on 3 of the 64 lines.  At n = 13, 26, 47 and 104
    # tick 0 lies just below -pi, where sin kx > 0, and node 0's hy and vx
    # change sign; at the odd n = 13 and 47 with c = 5e-324 that meets
    # partner rows whose vx underflows and keeps no sign.
    p = ModelParams(3, 1, c)
    assert _surface_csv(p, n)[1:] == surface_csv_rows(p, n)


def _ticks(n):
    """The dump's ticks: exactly symmetric, tick n - i is -tick i."""
    return [math.pi * (2 * i - n) / n for i in range(n)]


@pytest.mark.parametrize("n", [2, 3, 26, 33, 47, 64, 100, 256, 512, 1024, 4096])
def test_libm_facts_of_the_dump_ticks(n):
    # the dump mirrors node n - i from node i, and line n - i from line i,
    # where sin is odd and cos even bit for bit on its ticks; at 268 of the
    # sizes from 2 to 4096, 26 and 47 among them, tick 0 rounds to the float
    # below -pi, where sin > 0, so node 0 takes its hy sign from its own sin
    ticks = _ticks(n)
    if n in (26, 47):
        assert ticks[0] == math.nextafter(-math.pi, -math.inf) and math.sin(ticks[0]) > 0.0
    else:
        assert ticks[0] == -math.pi
    for i in range(1, (n + 1) // 2):
        assert ticks[n - i] == -ticks[i]
        assert math.sin(ticks[n - i]).hex() == (-math.sin(ticks[i])).hex()
        assert math.cos(ticks[n - i]).hex() == math.cos(ticks[i]).hex()


@pytest.mark.parametrize("n", [2, 3, 33, 64, 100, 256, 512])
def test_surface_csv_mirror_pair_counts(monkeypatch, n):
    # The share of the dump that the two mirrors save: every one of the
    # (n - 1) // 2 pairs of ky lines is formatted once, every other line
    # alone, and no line twice.  A tick formula that loses pairs fails here
    # instead of making the dump slower.
    ticks, pairs = _ticks(n), range(1, (n + 1) // 2)
    calls = []

    def counting(p, plan, y, heads):
        calls.append((y, heads))
        return [b"%d\n" % len(calls)] * len(heads)

    monkeypatch.setattr(model, "_surface_line", counting)
    buf = io.BytesIO()
    write_surface_csv(P1, n, buf)
    assert [y for y, heads in calls if len(heads) == 2] == [ticks[i] for i in pairs]
    assert sorted(y for y, _ in calls) == ticks[: n // 2 + 1]
    # the second line of each pair is its partner's, read back at its own turn
    lines = buf.getvalue().splitlines()[1:]
    assert all(lines[n - i] == lines[i] for i in pairs) and len(set(lines)) == n - len(pairs)


def _negated(tok):
    """The CSV string of -x, from that of x."""
    return tok if tok == "0" else tok[1:] if tok[0] == "-" else "-" + tok


@pytest.mark.parametrize("c", [1.3, 0.0, 5e-324])
def test_surface_csv_formats_a_quarter_of_the_grid(monkeypatch, c):
    # The share of the dump that the two mirrors save, at every size: each
    # of the (n - 1) // 2 pairs of ky lines is formatted once, every other
    # line alone, and each formatted line evaluates h at nodes 0 to n // 2
    # alone.  That holds at c = 0, where vx underflows to 0 (c = 5e-324),
    # and at n = 13, 26, 47, ..., where tick 0 lies just below -pi.  A
    # layout that loses pairs fails here instead of making the dump slower.
    p, bloch, nodes = ModelParams(3, 1, c), model._bloch, []

    def counting(kx_trig, lines, p):
        nodes.append(len(lines))
        return bloch(kx_trig, lines, p)

    monkeypatch.setattr(model, "_bloch", counting)
    for n in range(2, 131):
        nodes.clear()
        rows = [line.split(",") for line in _surface_csv(p, n)[1:]]
        assert nodes == [n // 2 + 1] * (n // 2 + 1), n
        # the second line of each pair is its partner's at -ky, read back
        # at its own turn: kx, hx, hy and vx repeat, and ky, hz and vy flip
        columns = [list(zip(*rows[j * n : (j + 1) * n])) for j in range(n)]
        for i in range(1, (n + 1) // 2):
            a, b = columns[i], columns[n - i]
            assert [b[0], b[2], b[3], b[5]] == [a[0], a[2], a[3], a[5]]
            assert [b[1], b[4], b[6]] == [tuple(map(_negated, a[k])) for k in (1, 4, 6)]


def test_surface_csv_memory_independent_of_grid_area():
    # rows are streamed one ky line at a time: one 512 x 512 float64 array
    # alone would take 2 MB
    class CountingSink:
        def __init__(self):
            self.lines = 0

        def write(self, data):
            self.lines += data.count(b"\n")

        def writelines(self, lines):
            for data in lines:
                self.write(data)

    sink = CountingSink()
    tracemalloc.start()
    try:
        write_surface_csv(P1, 512, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.lines == 1 + 512 * 512
    assert peak < 1_000_000


class _FailsAtTheFirstSpooledLine(io.BytesIO):
    """A sink that raises ``error`` on the write of line 33 of 64, the first one read back from the spool."""

    def __init__(self, error):
        super().__init__()
        self.error, self.writes = error, 0

    def write(self, data):
        self.writes += 1
        if self.writes == 1 + 34:
            raise self.error
        return super().write(data)


@pytest.mark.parametrize(
    "error",
    # a closed stdout, Ctrl-C, and a failed --out write
    [BrokenPipeError(errno.EPIPE, "Broken pipe"), KeyboardInterrupt(), OSError(errno.ENOSPC, "No space left")],
    ids=["epipe", "interrupt", "enospc"],
)
def test_surface_csv_leaves_nothing_on_a_write_error(error, assert_nothing_left):
    # the spool holds lines 33 to 63 when the write fails, and is closed
    # before the error leaves the dump, even while the error is held
    sink = _FailsAtTheFirstSpooledLine(error)
    with pytest.raises(type(error)) as raised:
        write_surface_csv(P1, 64, sink)
    assert type(raised.value) is type(error)
    assert_nothing_left()
    assert sink.getvalue().count(b"\n") == 1 + 33 * 64


def test_surface_csv_spool_error_names_the_spool(full_spool, spool_dir, assert_nothing_left):
    # a full TMPDIR is the spool's failure, not the output's
    with pytest.raises(SpoolError, match=f"^the field dump's spool in TMPDIR {spool_dir}: \\[Errno 28\\] ") as raised:
        write_surface_csv(P1, 64, io.BytesIO())
    assert isinstance(raised.value, OSError) and raised.value.__cause__.errno == errno.ENOSPC
    assert_nothing_left()


def test_surface_csv_format():
    buf = io.BytesIO()
    write_surface_csv(P1, 3, buf)
    lines = buf.getvalue().decode("ascii").splitlines()
    assert lines[0] == SURFACE_CSV_HEADER
    assert len(lines) == 1 + 9
    # ky is the slow index: first three rows share ky = -pi
    first = [line.split(",") for line in lines[1:4]]
    assert all(row[1] == format(-math.pi, ".17g") for row in first)
    # the ticks pi (2 i - n) / n, where tick n - i is -tick i exactly
    assert [row[0] for row in first] == [format(x, ".17g") for x in (-math.pi, -math.pi / 3, math.pi / 3)]
    # every field parses back to a float
    for line in lines[1:]:
        assert len(line.split(",")) == 7
        for tok in line.split(","):
            float(tok)


def test_bloch_on_a_ky_line():
    # one ky line of 7 kx nodes: one value per node, and the same floats as
    # the points one at a time
    kx = np.linspace(-math.pi, math.pi, 7).tolist()
    hx, hy, vx, vy, gap = _bloch(_kx_trig(kx), [_trig_rho(0.0, P1)] * len(kx), P1)
    assert len(hx) == len(hy) == len(vx) == len(vy) == len(gap) == len(kx)
    assert [bloch_components(x, 0.0, P1) for x in kx] == [(a, b, 0.0) for a, b in zip(hx, hy)]
    assert [velocity_and_gap(x, 0.0, P1) for x in kx] == list(zip(vx, vy, gap))


@settings(max_examples=300)
@given(
    st.floats(-3.0, 3.0),
    st.floats(1e-8, 1.0 - 1e-8),
    st.floats(0.0, 2.5),
    st.floats(-math.pi, math.pi),
    st.floats(-math.pi, math.pi),
)
def test_float_kernels_match_array_oracle_bit_for_bit(log_R, ratio, shift, kx, ky):
    # rho, h and v on floats (math, squares as products) against the array
    # forms (numpy), with R over six decades: the same bits, so the field
    # dump keeps its bytes
    R = 10.0**log_R
    p = ModelParams(R, R * ratio, R * shift)
    want = array_trig_rho(np.array([kx]), np.array([ky]), p)
    assert _trig_rho(ky, p)[:3] == tuple(float(x[0]) for x in want[2:])
    assert bloch_components(kx, ky, p) == tuple(float(np.ravel(x)[0]) for x in array_bloch_components(kx, ky, p))
    got = velocity_and_gap(kx, ky, p)
    want = tuple(float(x[0]) for x in array_velocity_and_gap(np.array([kx]), np.array([ky]), p))
    assert got == want
    # and the signs of zeros, which the dump prints
    assert [math.copysign(1.0, x) for x in got] == [math.copysign(1.0, x) for x in want]


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


def _exact_cubic(R, r, c, u):
    """(R^2 + r^2 + 2 R r u)(R - r u)^2 - c^2 R^2, exactly, on Fractions."""
    return (R * R + r * r + 2 * R * r * u) * (R - r * u) ** 2 - c * c * R * R


@settings(max_examples=300)
@given(st.floats(-3.0, 3.0), st.floats(-9.0, -1.0), st.floats(-5.0, -1.5))
def test_kx_pi_roots_bracket_exact_roots_near_the_pitchfork(log_R, log_gap, log_offset):
    # r -> R with c just above the pitchfork c_p, the band the numpy oracle
    # cannot check: each closed-form root must sit within 2^20 ulp of a sign
    # change of the exact cubic, on the floats R, r, c as given.  The draws
    # keep c more than 1e-5 R from c_p and c_f, so c / R > 1e-5: how close
    # to c_p the roots stay this accurate is not settled here.
    R = 10.0**log_R
    r = R * (1.0 - 10.0**log_gap)
    c_p, c_f = zero_bifurcations(R, r)
    c = c_p + R * 10.0**log_offset
    assume(min(c - c_p, c_f - c) > 1e-5 * R)
    roots = _kx_pi_roots(ModelParams(R, r, c))
    assert len(roots) == 2
    exact = [Fraction(x) for x in (R, r, c)]
    for u in roots:
        d = Fraction(math.ulp(u)) * 2**20
        assert _exact_cubic(*exact, Fraction(u) - d) * _exact_cubic(*exact, Fraction(u) + d) <= 0


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
