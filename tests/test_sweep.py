"""Parameter sweeps: phase structure, tags, deterministic persistence."""

import math

import pytest

from blochflow import ModelParams, SweepAxis, sweep_chern, sweep_euler
from blochflow.sweep import CSV_HEADER, GAPLESS_THRESHOLD, grid_to_csv

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
