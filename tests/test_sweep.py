"""Parameter sweeps: phase structure, tags, deterministic persistence."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import blochflow.chern
import blochflow.sweep
from blochflow import ModelParams, SweepAxis, chern_plaquette, sweep_chern
from blochflow.chern import EPS_GAP_CHERN, gap_min
from blochflow.cli import CSV_HEADER, grid_to_csv
from blochflow.errors import GaplessModel
from blochflow.sweep import GAPLESS_THRESHOLD, sweep_euler

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
    with pytest.raises(ValueError):
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

    def counting(p):
        calls.append(p)
        return gap_min(p)

    monkeypatch.setattr(blochflow.sweep, "gap_min", counting)
    monkeypatch.setattr(blochflow.chern, "gap_min", counting)
    grid = sweep_chern([SweepAxis("c", 0.2, 5.8, 57), SweepAxis("r", 0.5, 1.5, 5)], BASE)
    assert [cell.params for cell in grid.cells] == calls


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
