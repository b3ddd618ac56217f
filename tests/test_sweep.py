"""Parameter sweeps: phase structure, tags, deterministic persistence."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import blochflow.chern
import blochflow.sweep
import blochflow.zeromode
from blochflow import ModelParams, SweepAxis, chern_plaquette, euler_characteristic, sweep_chern
from blochflow.chern import EPS_GAP_CHERN, _gap_min, gap_min
from blochflow.cli import CSV_HEADER, grid_to_csv
from blochflow.errors import DegenerateField, DegenerateZero, GaplessModel, NonIsolatedZero
from blochflow.model import _kx_pi_roots, zero_bifurcations
from blochflow.sweep import GAPLESS_THRESHOLD, PhaseDiagramGrid, SweepCell, sweep_euler

from oracles import field_joined_csv, fraction_phase

BASE = ModelParams(3, 1, 1)


def test_axis_validation():
    with pytest.raises(ValueError):
        SweepAxis("q", 0, 1, 5)
    with pytest.raises(ValueError):
        SweepAxis("c", 1, 0, 5)
    with pytest.raises(ValueError):
        SweepAxis("c", 0, 1, 0)
    for start, stop in ((0, math.inf), (math.nan, 1), (-math.inf, 1)):
        with pytest.raises(ValueError, match="finite"):
            SweepAxis("c", start, stop, 3)
    assert list(SweepAxis("c", 0.5, 2.0, 1).values()) == [0.5]
    assert len(SweepAxis("c", 0.2, 5.8, 57).values()) == 57


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# widths of a few subnormal steps, where the step itself rounds to zero
_SUBNORMAL_AXIS = st.tuples(st.floats(-1e-300, 1e-300), st.integers(1, 64)).map(lambda t: (t[0], t[0] + t[1] * 5e-324))


@settings(max_examples=200)
@given(st.one_of(st.tuples(_FINITE, _FINITE), _SUBNORMAL_AXIS), st.integers(1, 100))
@example((-1e308, 1e308), 1)
def test_axis_values_match_numpy_linspace(bounds, steps):
    # the plain linspace gives np.linspace's values bit for bit (signed
    # zeros included), down to subnormal widths and up to overflowing ones
    start, stop = sorted(bounds)
    assume(start < stop)
    values = SweepAxis("c", start, stop, steps).values()
    if steps == 1 and math.isinf(stop - start):
        # np.linspace gives 0 * inf + start = NaN here, the plain linspace start
        assert values == [start]
        return
    with np.errstate(all="ignore"):
        want = np.linspace(start, stop, steps).tolist()
    assert [float(v).hex() for v in values] == [v.hex() for v in want]


def test_chern_sweep_phase_structure():
    grid = sweep_chern([SweepAxis("c", 0.2, 5.8, 57)], BASE)
    assert len(grid.cells) == 57
    by_c = {round(cell.params.c, 6): cell for cell in grid.cells}
    lo, hi = 2.0, 4.0
    for c, cell in by_c.items():
        if math.isclose(c, lo, abs_tol=1e-9) or math.isclose(c, hi, abs_tol=1e-9):
            assert cell.status == "gapless"
            assert cell.chern is None
        elif c < lo:
            assert (cell.status, cell.chern) == ("ok", 0)
        elif c < hi:
            assert (cell.status, cell.chern) == ("ok", 1)
        else:
            assert (cell.status, cell.chern) == ("ok", 0)


def test_chern_transitions_only_next_to_gapless():
    grid = sweep_chern([SweepAxis("c", 0.2, 5.8, 57)], BASE)
    cells = grid.cells
    for prev, cur in zip(cells, cells[1:]):
        if prev.status == "ok" and cur.status == "ok":
            assert prev.chern == cur.chern


def test_euler_sweep_values_and_tags():
    grid = sweep_euler([SweepAxis("c", 0.0, 5.0, 11)], BASE)
    assert len(grid.cells) == 11
    for cell in grid.cells:
        c = round(cell.params.c, 6)
        if c == 0.0:
            assert cell.status == "degenerate"
            assert cell.chi is None
        elif c in (2.0, 4.0):
            assert cell.status == "gapless"
            assert cell.chi is None
        else:
            assert cell.status == "ok"
            assert cell.chi == 0


def test_euler_sweep_gapless_threshold():
    # every cell here has a gap below GAPLESS_THRESHOLD, though only the
    # middle one sits on the closing c = R + r
    grid = sweep_euler([SweepAxis("c", 3.9995, 4.0005, 3)], BASE)
    assert [cell.status for cell in grid.cells] == ["gapless"] * 3
    assert all(cell.chi is None for cell in grid.cells)
    assert all(cell.gap_min < GAPLESS_THRESHOLD for cell in grid.cells)


def test_single_cell_axis():
    grid = sweep_chern([SweepAxis("c", 3.0, 3.5, 1)], BASE)
    assert len(grid.cells) == 1
    assert grid.cells[0].chern == 1


def test_two_axis_sweep():
    axes = [SweepAxis("r", 0.5, 1.5, 3), SweepAxis("c", 0.5, 1.0, 2)]
    grid = sweep_chern(axes, BASE)
    assert len(grid.cells) == 6
    # axis order: r is the slow axis
    rs = [cell.params.r for cell in grid.cells]
    assert rs == sorted(rs)
    for cell in grid.cells:
        assert cell.status in ("ok", "gapless")


def test_invalid_axis_combination_rejected():
    # the message names the first invalid cell's values
    message = "sweep axis produces invalid parameters {'R': 3, 'r': 3.0, 'c': 1}: major radius must exceed"
    with pytest.raises(ValueError, match=re.escape(message)):
        sweep_chern([SweepAxis("r", 2.5, 3.5, 3)], BASE)  # r >= R cells
    with pytest.raises(ValueError):
        sweep_chern(
            [SweepAxis("c", 0.5, 1.0, 2), SweepAxis("c", 2.0, 3.0, 2)], BASE
        )  # duplicate axis


def test_csv_output_shape():
    grid = sweep_euler([SweepAxis("c", 0.5, 1.5, 3)], BASE)
    text = grid_to_csv(grid)
    assert text.endswith("ok\n")
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 3
    assert all(len(line.split(",")) == 7 for line in lines[1:])
    assert all(line.endswith("ok") for line in lines[1:])


# axis bounds on a coarse lattice, so that c = 0 and the closings c = R -+ r
# (2 and 4 at R, r = 3, 1) often fall on the grid; every drawn cell has R > r
_AXIS_DRAWS = {
    "c": (st.sampled_from((0.0, 0.5, 1.0, 2.0)), st.sampled_from((1.0, 2.0, 4.0, 6.0))),
    "r": (st.sampled_from((0.25, 0.5, 1.0)), st.sampled_from((0.5, 1.0, 1.5))),
    "R": (st.sampled_from((1.5, 2.0, 3.0)), st.sampled_from((1.0, 2.0, 3.0))),
}


@st.composite
def drawn_sweeps(draw):
    """(quantity, axes, base): one or two axes of 1 to 9 steps around one of three bases."""
    names = draw(st.sampled_from((("c",), ("r",), ("R",), ("c", "r"), ("r", "c"), ("R", "c"), ("c", "R"))))
    axes = []
    for name in names:
        start, width = (draw(d) for d in _AXIS_DRAWS[name])
        axes.append(SweepAxis(name, start, start + width, draw(st.integers(1, 9))))
    base = draw(st.sampled_from((ModelParams(3, 1, 1), ModelParams(3.0, 1.0, 0.0), ModelParams(3.0, 0.1, 2.9))))
    return draw(st.sampled_from(("chern", "euler"))), axes, base


@settings(max_examples=150)
@given(drawn_sweeps())
@example(("euler", [SweepAxis("c", 0.0, 6.0, 7)], BASE))
@example(("chern", [SweepAxis("c", 0.2, 5.8, 57), SweepAxis("r", 0.5, 1.5, 5)], BASE))
def test_csv_matches_the_field_joined_oracle(sweep):
    # one format per row gives the bytes of formatting and joining each field
    quantity, axes, base = sweep
    grid = (sweep_chern if quantity == "chern" else sweep_euler)(axes, base)
    assert grid_to_csv(grid) == field_joined_csv(grid.cells)


def _euler_cell(p):
    """(status, chi) of an Euler cell, recomputed with euler_characteristic."""
    if gap_min(p) < GAPLESS_THRESHOLD:
        return "gapless", None
    try:
        return "ok", euler_characteristic(p).chi
    except GaplessModel:
        return "gapless", None
    except (DegenerateField, DegenerateZero, NonIsolatedZero):
        return "degenerate", None


@st.composite
def euler_sweeps(draw):
    """(axes, base): a c axis of 1 to 9 steps, coarse from 0 to 6 or zoomed
    on c_p, c_f or R -+ r, and perhaps a narrow r axis before or after it."""
    R, r = draw(st.sampled_from(((3.0, 1.0), (3, 1), (1.0, 0.99), (2.0, 1.5), (3.0, 0.1))))
    anchor = draw(st.sampled_from((None, *zero_bifurcations(R, r), R - r, R + r)))
    if anchor is None:
        start, width = (draw(d) for d in _AXIS_DRAWS["c"])
    else:
        width = 2.0 * R * 10.0 ** draw(st.floats(-10.0, -2.0))
        start = anchor - width / 2.0
    axes = [SweepAxis("c", start, start + width, draw(st.integers(1, 9)))]
    if draw(st.booleans()):
        r_axis = SweepAxis("r", r * (1.0 - 1e-3), r * (1.0 + 1e-3), draw(st.integers(1, 4)))
        axes.insert(draw(st.integers(0, 1)), r_axis)
    return axes, ModelParams(R, r, 1.0)


@settings(max_examples=100)
@given(euler_sweeps())
@example(([SweepAxis("c", 0.0199, 0.0201, 5)], ModelParams(1, 0.99, 1)))
@example(([SweepAxis("c", 2.6, 3.3, 71)], BASE))
def test_euler_sweep_cells_match_euler_characteristic(sweep):
    # every cell's chi and status are those of euler_characteristic on its
    # parameters, or the tag of its refusal
    axes, base = sweep
    grid = sweep_euler(axes, base)
    assert [(cell.status, cell.chi) for cell in grid.cells] == [_euler_cell(cell.params) for cell in grid.cells]
    assert all(cell.chern is None for cell in grid.cells)


_CELL_PARAMS = st.builds(
    lambda R, s, c: (R, R * s, c),
    st.floats(1e-40, 1e40),
    st.floats(1e-8, 1.0, exclude_max=True),
    st.one_of(st.just(0), st.floats(0.0, 1e40)),
)


@settings(max_examples=200)
@given(
    st.lists(
        st.tuples(
            _CELL_PARAMS,
            st.one_of(st.none(), st.integers(-2, 2)),
            st.one_of(st.none(), st.integers(-8, 8)),
            st.floats(0.0, 1e300),
            st.sampled_from(("ok", "gapless", "degenerate")),
        ),
        max_size=5,
    )
)
def test_csv_matches_the_field_joined_oracle_on_any_cell(rows):
    # subnormal and huge floats, integer c and negative invariants, outside any sweep's reach
    cells = tuple(SweepCell(ModelParams(*p), chern, chi, g, status) for p, chern, chi, g, status in rows)
    assert grid_to_csv(PhaseDiagramGrid(cells)) == field_joined_csv(cells)


@settings(max_examples=200)
@given(st.lists(st.sampled_from((0.0, -0.0, 0, 1.0, 1, 3.0)), min_size=1, max_size=8))
@example([0.0, -0.0])
@example([-0.0, 0.0, -0.0])
def test_csv_keeps_the_sign_of_each_zero(cs):
    # 0.0 and -0.0 are one dict key but print as 0 and -0, and 1.0 is R's
    # and r's value as well as c's
    cells = tuple(SweepCell(ModelParams(3.0, 1.0, c), None, None, 0.5, "gapless") for c in cs)
    assert grid_to_csv(PhaseDiagramGrid(cells)) == field_joined_csv(cells)


@pytest.mark.parametrize("sweep", (sweep_chern, sweep_euler))
def test_csv_of_a_negative_zero_base(sweep):
    # a 2-D R x r sweep keeps the base's -0.0 in every row, as the field-joined CSV does
    grid = sweep([SweepAxis("R", 3.0, 4.0, 2), SweepAxis("r", 0.1, 0.9, 3)], ModelParams(3, 1, -0.0))
    text = grid_to_csv(grid)
    assert text == field_joined_csv(grid.cells)
    assert [line.split(",")[2] for line in text.splitlines()[1:]] == ["-0"] * 6


def test_csv_of_one_float_in_two_columns():
    # R's axis runs through the base's c, and c's axis through R and r
    axes = [SweepAxis("R", 2.5, 3.5, 3), SweepAxis("c", 0.0, 3.0, 4)]
    grid = sweep_chern(axes, ModelParams(3.0, 1.0, 3.0))
    text = grid_to_csv(grid)
    assert text == field_joined_csv(grid.cells)
    assert "\n3,1,3," in text and "\n2.5,1,1," in text


@pytest.mark.parametrize(
    "axes",
    (
        [SweepAxis("c", 0, 6, 7)],
        [SweepAxis("R", 2, 4, 3), SweepAxis("c", 0, 4, 5)],
        [SweepAxis("r", 1, 2, 2), SweepAxis("R", 3, 4, 3)],
    ),
)
def test_csv_of_integer_sweeps(axes):
    # integer params and an integer axis stop, whose ints are the floats they equal
    for sweep in (sweep_chern, sweep_euler):
        grid = sweep(axes, ModelParams(3, 1, 1))
        assert any(type(x) is int for cell in grid.cells for x in cell.params)
        assert grid_to_csv(grid) == field_joined_csv(grid.cells)


def test_output_determinism():
    axes = [SweepAxis("c", 1.5, 2.5, 5)]
    a = grid_to_csv(sweep_chern(axes, BASE))
    b = grid_to_csv(sweep_chern(axes, BASE))
    assert a == b


def test_no_silent_cells():
    grid = sweep_chern([SweepAxis("c", 1.8, 4.2, 13)], BASE)
    assert len(grid.cells) == 13
    for cell in grid.cells:
        assert cell.status in ("ok", "gapless", "degenerate")
        if cell.status == "ok":
            assert cell.chern is not None
        else:
            assert cell.chern is None


def test_chern_sweep_computes_gap_once_per_cell(monkeypatch):
    calls = []

    def counting(p, roots):
        calls.append(p)
        return _gap_min(p, roots)

    monkeypatch.setattr(blochflow.sweep, "_gap_min", counting)
    monkeypatch.setattr(blochflow.chern, "_gap_min", counting)
    grid = sweep_chern([SweepAxis("c", 0.2, 5.8, 57), SweepAxis("r", 0.5, 1.5, 5)], BASE)
    assert [cell.params for cell in grid.cells] == calls


@pytest.mark.parametrize(
    "sweep, axes, solves",
    [
        (sweep_euler, [SweepAxis("c", 0.0, 5.8, 59)], 5),
        (sweep_chern, [SweepAxis("c", 0.2, 5.8, 57), SweepAxis("r", 0.5, 1.5, 5)], 27),
    ],
    ids=["euler", "chern"],
)
def test_a_cell_solves_the_cubic_at_most_once(monkeypatch, sweep, axes, solves):
    # phase-diagram --quantity euler --axis c:0:5.8:59, and the 57 x 5 Chern
    # grid, at (3, 1): a cell solves the kx = pi cubic once for its gap_min
    # and its census where c_p < c < c_f on fractions, and nowhere else
    calls = []

    def counting(p):
        calls.append(p)
        return _kx_pi_roots(p)

    for module in (blochflow.sweep, blochflow.chern, blochflow.zeromode):
        monkeypatch.setattr(module, "_kx_pi_roots", counting)
    grid = sweep(axes, ModelParams(3.0, 1.0, 1.0))
    assert calls == [cell.params for cell in grid.cells if fraction_phase(*cell.params) == 4]
    assert len(calls) == solves


def _recomputed(p):
    """(status, chern, gap_min) of a Chern cell, recomputed with the plaquette sum."""
    g = gap_min(p)
    if g < GAPLESS_THRESHOLD:
        return "gapless", None, g
    try:
        return "ok", chern_plaquette(p).value, g
    except GaplessModel:
        return "gapless", None, g


@pytest.mark.parametrize("s", [1e-6, 1.0, 1e4])
@pytest.mark.parametrize("closing", [2, 4])
def test_chern_sweep_matches_plaquette_recomputation(s, closing):
    # every cell of a c-by-r grid straddling R -+ r at R = 3s, cell by cell
    # against gap_min and chern_plaquette; R = 3e-6 lies below the absolute
    # GAPLESS_THRESHOLD throughout
    c = closing * s
    axes = [SweepAxis("c", c - 0.01 * s, c + 0.01 * s, 9), SweepAxis("r", 0.995 * s, 1.005 * s, 5)]
    grid = sweep_chern(axes, ModelParams(3 * s, s, s))
    assert len(grid.cells) == 45
    for cell in grid.cells:
        assert (cell.status, cell.chern, cell.gap_min) == _recomputed(cell.params)
    if s == 1e-6:
        assert {cell.status for cell in grid.cells} == {"gapless"}
    else:
        assert {cell.chern for cell in grid.cells} == {0, 1, None}


def test_chern_sweep_relative_gap_gate():
    # at R = 3e4 the cells 0.02 from c = R + r have a gap above the absolute
    # GAPLESS_THRESHOLD but below EPS_GAP_CHERN R: gapless by the relative gate
    grid = sweep_chern([SweepAxis("c", 39999.96, 40000.04, 5)], ModelParams(3e4, 1e4, 1))
    assert [cell.status for cell in grid.cells] == ["ok", "gapless", "gapless", "gapless", "ok"]
    assert [cell.chern for cell in grid.cells] == [1, None, None, None, 0]
    for cell in grid.cells:
        assert (cell.status, cell.chern, cell.gap_min) == _recomputed(cell.params)
    near = (grid.cells[1], grid.cells[3])
    assert all(GAPLESS_THRESHOLD < cell.gap_min <= EPS_GAP_CHERN * cell.params.R for cell in near)
