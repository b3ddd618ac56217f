"""CLI: flag validation, exit codes, serialization pass-through."""

import json
import math
import os
import subprocess
import sys
import warnings

import pytest

import blochflow
from blochflow import ModelParams, euler_characteristic
from blochflow.chern import chern_json, chern_plaquette
from blochflow.cli import main
from blochflow.zeromode import zero_modes_json


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_zeros_reference(capsys):
    rc, out, err = run(capsys, ["zeros", "--R", "3", "--r", "1", "--c", "1"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[-1] == "chi 0"
    records = json.loads("\n".join(lines[:-1]))
    assert len(records) == 9
    kinds = sorted(rec["kind"] for rec in records)
    assert kinds.count("source") == 4
    assert kinds.count("saddle") == 4
    assert kinds.count("sink") == 1


def test_zeros_matches_module_serialization(capsys):
    rc, out, _ = run(capsys, ["zeros"])
    body = "\n".join(out.splitlines()[:-1])
    assert body == zero_modes_json(euler_characteristic(ModelParams(3, 1, 1)).modes)


def test_zeros_out_file(tmp_path, capsys):
    out_path = tmp_path / "zeros.json"
    rc, out, _ = run(capsys, ["zeros", "--out", str(out_path)])
    assert rc == 0
    assert out == "chi 0\n"
    assert out_path.read_text() == zero_modes_json(euler_characteristic(ModelParams(3, 1, 1)).modes)


def test_zeros_degenerate_exit(capsys):
    rc, out, err = run(capsys, ["zeros", "--c", "0"])
    assert rc == 2
    assert "degenerate" in err.lower() or "Degenerate" in err
    assert out == ""


@pytest.mark.parametrize("c, ratio_shown", [("2e-6", True), ("0", False)])
def test_zeros_small_axis_shift_message(capsys, c, ratio_shown):
    # 0 < c <= 1e-6 R does not make the kx-velocity vanish identically; the
    # message gives c / R and the threshold instead
    rc, out, err = run(capsys, ["zeros", "--R", "3", "--r", "1", "--c", c])
    assert rc == 2
    assert out == ""
    assert "DegenerateField" in err
    assert ("c / R" in err) is ratio_shown
    assert ("vanish identically" in err) is not ratio_shown


def test_zeros_gapless_exit(capsys):
    rc, _, err = run(capsys, ["zeros", "--c", "2"])
    assert rc == 2
    assert "Gapless" in err


def test_zeros_invalid_params_exit(capsys):
    rc, _, err = run(capsys, ["zeros", "--R", "1", "--r", "3", "--c", "1"])
    assert rc == 1
    assert "--R" in err


def test_bad_flag_value_exit(capsys):
    rc, _, err = run(capsys, ["zeros", "--R", "three"])
    assert rc == 1
    assert "--R" in err


@pytest.mark.parametrize(
    "argv",
    [
        "euler --c nan",
        "zeros --c inf",
        "euler --R inf",
        "chern --c nan",
        "chern --c inf",
        "phase-diagram --axis c:0:inf:3",
        "phase-diagram --axis c:nan:1:3",
        "euler --c 1e160",
        "zeros --R 1e80",
        "chern --c 1e160",
        "phase-diagram --axis c:1:1e200:3",
        "field-dump --R 1e200 --grid-n 2",
        "winding --R 1e200",
        # r below model.PARAM_MIN: |h|^2 and det J would underflow
        "euler --R 3e-160 --r 1e-160 --c 3e-160",
    ],
)
def test_non_finite_parameters_exit(capsys, argv):
    # NaN and inf pass every ordering check, so they must be rejected as
    # such; finite values above model.PARAM_MAX are refused too, well before
    # |h|^2 and det J could overflow
    argv = argv.split()
    flag = "--axis" if "--axis" in argv else "--R/--r/--c"
    rc, out, err = run(capsys, argv)
    assert rc == 1
    assert out == ""
    assert err.startswith(f"blochflow {argv[0]}: error: {flag}: ")
    assert "finite" in err
    assert "Traceback" not in err


def test_parameters_at_the_bound_run(capsys):
    rc, out, _ = run(capsys, ["euler", "--R", "1e50", "--r", "1e49", "--c", "1e50"])
    assert rc == 0
    assert json.loads(out) == {"chi": 0, "zero_modes": 17}
    rc, out, _ = run(capsys, ["chern", "--R", "1e50", "--r", "1e49", "--c", "1e50"])
    assert rc == 0
    assert json.loads(out)["value"] == 1


def test_chern_value(capsys):
    rc, out, _ = run(capsys, ["chern", "--R", "3", "--r", "1", "--c", "3"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["value"] == 1
    assert abs(doc["raw"] - 1) <= 1e-9
    assert doc["method"] == "plaquette_solid_angle"


def test_chern_matches_module_serialization(capsys):
    rc, out, _ = run(capsys, ["chern", "--c", "3"])
    assert out.rstrip("\n") == chern_json(chern_plaquette(ModelParams(3, 1, 3)))


def test_chern_direct_method(capsys):
    rc, out, _ = run(capsys, ["chern", "--c", "1", "--method", "direct"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["value"] == 0
    assert doc["method"] == "direct_quadrature"
    assert doc["grid_n"] == 256


def test_chern_small_scale(capsys):
    # (3, 1, 3) scaled by 1e-8: gapped, with the same Chern number
    rc, out, err = run(capsys, ["chern", "--R", "3e-8", "--r", "1e-8", "--c", "3e-8"])
    assert rc == 0, err
    assert json.loads(out)["value"] == 1


def test_chern_gapless_exit(capsys):
    rc, _, err = run(capsys, ["chern", "--c", "2"])
    assert rc == 2
    assert "Gapless" in err


@pytest.mark.parametrize(
    "argv, code",
    [
        ("chern --R 1 --r 1e-9 --c 1", 2),
        ("phase-diagram --R 1 --r 1e-50 --axis c:0.5:1.5:3", 0),
    ],
)
def test_parameter_edge_warns_nothing(capsys, argv, code):
    # at c = R with r / R below 1e-8, c_p and c_f round to R: the cubic has
    # no root in (-1, 1) to find, and its solver must not divide by zero
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, _, err = run(capsys, argv.split())
    assert rc == code
    assert "Warning" not in err


def test_euler_output(capsys):
    rc, out, _ = run(capsys, ["euler"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["chi"] == 0
    assert doc["zero_modes"] == 9


def test_winding_output(capsys):
    rc, out, _ = run(capsys, ["winding", "--center", "0,0", "--radius", "0.3"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["w"] == 1
    assert abs(doc["total_angle"] - 2 * math.pi) < 1e-6
    assert doc["min_field_norm"] > 0
    assert doc["samples_used"] >= 16


def test_winding_bad_center(capsys):
    for center in ("0;0", "nan,0", "0,inf"):
        rc, out, err = run(capsys, ["winding", "--center", center])
        assert rc == 1
        assert out == ""
        assert err.startswith("blochflow winding: error: --center: ")


def test_winding_bad_radius(capsys):
    for radius in ("-1", "nan", "inf"):
        rc, out, err = run(capsys, ["winding", "--radius", radius])
        assert rc == 1
        assert out == ""
        assert err.startswith("blochflow winding: error: --radius: ")


def test_phase_diagram_csv(tmp_path, capsys):
    out_path = tmp_path / "pd.csv"
    rc, _, _ = run(
        capsys,
        ["phase-diagram", "--axis", "c:0.2:5.8:57", "--R", "3", "--r", "1", "--out", str(out_path)],
    )
    assert rc == 0
    lines = out_path.read_text().splitlines()
    assert len(lines) == 58  # header + 57 cells
    assert lines[0] == "R,r,c,chern,chi,gap_min,status"
    statuses = [line.split(",")[-1] for line in lines[1:]]
    assert statuses.count("gapless") == 2
    cherns = [line.split(",")[3] for line in lines[1:]]
    assert cherns.count("1") == 19  # c = 2.1 ... 3.9


def test_phase_diagram_euler_quantity(capsys):
    rc, out, _ = run(
        capsys,
        ["phase-diagram", "--axis", "c:0.5:1.5:3", "--quantity", "euler"],
    )
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert all(line.split(",")[4] == "0" for line in lines[1:])


def test_phase_diagram_bad_axis(capsys):
    rc, _, err = run(capsys, ["phase-diagram", "--axis", "c:0.2:5.8"])
    assert rc == 1
    assert "--axis" in err
    rc, _, err = run(capsys, ["phase-diagram", "--axis", "q:0:1:5"])
    assert rc == 1


def test_field_dump(capsys):
    rc, out, _ = run(capsys, ["field-dump", "--grid-n", "2"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "kx,ky,hx,hy,hz,vx,vy"
    assert len(lines) == 5
    row = dict(zip(lines[0].split(","), lines[-1].split(",")))
    assert float(row["kx"]) == 0.0 and float(row["ky"]) == 0.0
    assert float(row["hx"]) == 5.0
    assert float(row["vx"]) == 0.0 and float(row["vy"]) == 0.0


@pytest.mark.parametrize(
    "argv, lines",
    [(["field-dump", "--grid-n", "256"], 1), (["zeros", "--c", "3"], 0)],
)
def test_closed_stdout_exits_quietly(argv, lines):
    # `blochflow ... | head -1`: the reader takes `lines` lines and closes
    # the pipe.  The zeros output fits in a pipe buffer, so there the reader
    # is gone before the process starts, or the write could win the race.
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(blochflow.__file__))}
    r, w = os.pipe()
    if not lines:
        os.close(r)
    proc = subprocess.Popen(
        [sys.executable, "-m", "blochflow", *argv], stdout=w, stderr=subprocess.PIPE, env=env
    )
    os.close(w)
    if lines:
        with os.fdopen(r) as out:
            for _ in range(lines):
                out.readline()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (1, b"")


def test_field_dump_grid_validation(capsys):
    rc, _, err = run(capsys, ["field-dump", "--grid-n", "1"])
    assert rc == 1
    assert "--grid-n" in err


def test_help_everywhere(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    for sub in ("zeros", "chern", "euler", "winding", "phase-diagram", "field-dump"):
        assert main([sub, "--help"]) == 0
        out = capsys.readouterr().out
        assert "--R" in out


def test_help_lists_defaults(capsys):
    main(["zeros", "--help"])
    out = " ".join(capsys.readouterr().out.split())
    assert "(default: 3.0)" in out     # major radius default
    assert "the 'chi N' line still goes to stdout" in out  # zeros --out keeps chi on stdout
    main(["chern", "--help"])
    out = " ".join(capsys.readouterr().out.split())
    assert "(default: plaquette)" in out  # method default


def test_census_knobs_are_not_options(capsys):
    # the census runs in its one verified configuration, and the Chern grid
    # and the loop samples refine themselves
    for argv in (
        ["euler", "--tol", "1e-16"],
        ["zeros", "--seeds", "4"],
        ["chern", "--grid-n", "32"],
        ["phase-diagram", "--axis", "c:0.5:1.5:3", "--grid-n", "32"],
        ["winding", "--samples", "64"],
        ["zeros", "--weight-mode", "canonical"],
        ["phase-diagram", "--axis", "c:0.5:1.5:3", "--format", "json"],
    ):
        rc, out, err = run(capsys, argv)
        assert rc == 1
        assert out == ""
        assert "unrecognized arguments" in err


@pytest.mark.parametrize(
    "argv",
    [["euler"], ["field-dump", "--grid-n", "4"], ["phase-diagram", "--axis", "c:0.5:1.5:3"]],
)
def test_unwritable_out_path_exit(tmp_path, capsys, argv):
    path = tmp_path / "missing" / "out.txt"
    rc, out, err = run(capsys, [*argv, "--out", str(path)])
    assert rc == 1
    assert err.startswith(f"blochflow {argv[0]}: error: --out: ")
    assert out == ""
    assert not path.exists()


def test_unknown_command_exit(capsys):
    assert main(["frobnicate"]) == 1
