"""CLI: flag validation, exit codes, the output contract."""

import json
import math
import os
import subprocess
import sys
import warnings

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import blochflow
from blochflow import (
    KPoint,
    LoopSpec,
    ModelParams,
    SweepAxis,
    chern_plaquette,
    euler_characteristic,
    sweep_chern,
    winding_hermitian,
)
from blochflow import model
from blochflow.chern import chern_direct
from blochflow.cli import COMMANDS, _json, closed_zone_records, main
from blochflow.model import PARAM_MAX, PARAM_MIN

from oracles import critical_shifts, surface_csv_rows


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


def test_zeros_out_file(tmp_path, capsys):
    out_path = tmp_path / "zeros.json"
    rc, out, _ = run(capsys, ["zeros", "--out", str(out_path)])
    assert rc == 0
    assert out == "chi 0\n"
    assert json.loads(out_path.read_text()) == closed_zone_records(euler_characteristic(ModelParams(3, 1, 1)).modes)


def test_zeros_degenerate_exit(capsys):
    rc, out, err = run(capsys, ["zeros", "--c", "0"])
    assert rc == 2
    assert "degenerate" in err.lower() or "Degenerate" in err
    assert out == ""


@pytest.mark.parametrize("c, answered", [("2e-6", True), ("0", False)])
def test_zeros_small_axis_shift_message(capsys, c, answered):
    # only c = 0 makes the kx-velocity vanish identically; a small c > 0, as
    # c = 2e-6 / 3 R, is answered: 4 zeros and chi 0
    rc, out, err = run(capsys, ["zeros", "--R", "3", "--r", "1", "--c", c])
    if answered:
        assert (rc, err) == (0, "")
        assert out.endswith("]\nchi 0\n") and len(json.loads(out[: -len("chi 0\n")])) == 9
    else:
        assert (rc, out) == (2, "")
        assert err.startswith("blochflow zeros: DegenerateField: ") and "vanish identically" in err


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


@pytest.mark.parametrize(
    "anchor, offset, zero_modes",
    [(0, -1e-8, 9), (0, 1e-6, 17), (1, -1e-7, 17), (1, 1e-12, 9)],
)
def test_euler_answers_close_to_the_bifurcations(capsys, anchor, offset, zero_modes):
    # at (3, 1), c_p - 1e-8 R, c_p + 1e-6 R, c_f - 1e-7 R and c_f + 1e-12 R:
    # the census has no band around c_p or c_f
    c = model.zero_bifurcations(3.0, 1.0)[anchor] + offset * 3.0
    rc, out, err = run(capsys, ["euler", "--c", repr(c)])
    assert (rc, err) == (0, "")
    assert json.loads(out) == {"chi": 0, "zero_modes": zero_modes}


@pytest.mark.parametrize(
    "args, closing",
    [("--c 3e-7", None), ("--R 3e6 --r 1e6 --c 4000000.001", None), ("--R 1 --r 0.1 --c 1.1", None),
     ("--c 2", "R - r"), ("--c 4", "R + r")],
)
def test_euler_next_to_zero_and_the_closings(capsys, args, closing):
    # the census has no band around c = 0 or R -+ r: it refuses only c = R -+ r
    # exactly, with one GaplessModel line; the float 1.1 lies just above the exact 1 + 0.1
    rc, out, err = run(capsys, ["euler", *args.split()])
    if closing is None:
        assert (rc, err, json.loads(out)) == (0, "", {"chi": 0, "zero_modes": 9})
    else:
        assert (rc, out) == (2, "")
        assert err == (
            f"blochflow euler: GaplessModel: c = {args.split()[-1]}.0 is {closing} exactly, "
            "where the band gap closes at a fixed zero\n"
        )


def test_phase_diagram_euler_cell_close_to_the_pitchfork(capsys):
    c = model.zero_bifurcations(3.0, 1.0)[0] + 1e-6 * 3.0
    rc, out, _ = run(capsys, ["phase-diagram", "--axis", f"c:{c!r}:2.7:2", "--quantity", "euler"])
    assert rc == 0
    cell = out.splitlines()[1].split(",")
    assert (cell[2], cell[4], cell[6]) == (repr(c), "0", "ok")


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
    # the last two circles: center +- radius rounds back to the center's kx,
    # so every sample would share one kx, and the first holds a source
    for flags in (
        ["--radius", "-1"],
        ["--radius", "nan"],
        ["--radius", "inf"],
        ["--c", "3", "--center", "3.141592653589793,0", "--radius", "1.5e-16"],
        ["--c", "3", "--center", "1e300,0", "--radius", "0.3"],
    ):
        rc, out, err = run(capsys, ["winding", *flags])
        assert rc == 1
        assert out == ""
        assert err.startswith("blochflow winding: error: --radius: ") and err.count("\n") == 1


# (c, --center) of the README's and CI's winding loops and of the benchmark's
# point queries for seeds 1 to 10, all of radius 0.3 at (R, r) = (3, 1)
DRAWN_LOOPS = [(1.0, "0,0"), (3.0, "0,0")] + [
    (c, center)
    for c, ky, nx, ny in (
        (1.243019, 0.0, 1, -0.499178),
        (4.150123, math.pi, -1, -0.841958),
        (3.465341, math.pi, 1, 1.250859),
        (0.591156, 0.0, 1, -0.22357),
        (3.851172, math.pi, 1, 2.080813),
        (4.394312, math.pi, 1, -2.55808),
        (4.956312, math.pi, -1, -2.417874),
        (1.408676, math.pi, -1, 1.234905),
        (1.144495, math.pi, -1, -0.586872),
        (4.284061, math.pi, -1, -0.96592),
    )
    for center in (f"0,{ky!r}", f"{nx * math.pi / 2!r},{ny!r}")
]


def test_winding_keeps_the_bytes_of_drawn_circles(capsys):
    # the refusal passes these loops through: each prints the record of the
    # circle built without it
    for c, center in DRAWN_LOOPS:
        rc, out, err = run(capsys, ["winding", "--c", repr(c), "--center", center, "--radius", "0.3"])
        doc = winding_hermitian(LoopSpec(KPoint(*map(float, center.split(","))), 0.3), ModelParams(3, 1, c))._asdict()
        doc["samples_used"] = doc.pop("samples")
        assert (rc, out, err) == (0, json.dumps(doc, indent=2) + "\n", "")


def test_json_writer_matches_json_dumps():
    record = {"zero": -0.0, "tiny": 5e-324, "huge": 1e300, "n": -7, "kind": "saddle"}
    for doc in (record, [record, {"kx": -math.pi, "weight_den": 4}]):
        assert _json(doc) == json.dumps(doc, indent=2) + "\n"


@st.composite
def scaled_params(draw):
    """(R, r, c) with R from 1e-3 to 1e3, or the largest parameter at PARAM_MAX, or r at
    PARAM_MIN; c lies at least 0.05 R from 0, the closings and the census bifurcations,
    where no command refuses (closer to a closing, the direct quadrature can)."""
    ratio, shift = draw(st.floats(0.2, 0.8)), draw(st.floats(0.05, 2.5))
    edge = draw(st.sampled_from(("scale", "max", "min")))
    if edge == "scale":
        R = 10.0 ** draw(st.floats(-3.0, 3.0))
    elif edge == "max":
        R = PARAM_MAX / max(1.0, shift)
    else:
        R = PARAM_MIN / ratio
    r, c = max(ratio * R, PARAM_MIN), min(shift * R, PARAM_MAX)
    assume(all(abs(c - v) > 0.05 * R for v in critical_shifts(R, r)))
    return R, r, c


# the four JSON commands: zeros (whose records include copies on the -pi
# edges and at the corner), euler, both Chern methods, and winding
JSON_COMMANDS = (["zeros"], ["euler"], ["chern"], ["chern", "--method", "direct"], ["winding"])


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(scaled_params())
def test_json_bytes_are_json_dumps(tmp_path, capsys, params):
    # what each command prints is json.dumps(doc, indent=2) of what it means,
    # and --out gets the same bytes
    flags = [f"--{name}={x!r}" for name, x in zip(("R", "r", "c"), params)]
    for command in JSON_COMMANDS:
        rc, out, err = run(capsys, [*command, *flags])
        assert (rc, err) == (0, "")
        tail = ""
        if command == ["zeros"]:
            out, tail = out[: out.rindex("chi ")], out[out.rindex("chi ") :]
            assert {rec["weight_den"] for rec in json.loads(out)} == {1, 2, 4}
        assert out == json.dumps(json.loads(out), indent=2) + "\n"
        path = tmp_path / "out"
        assert run(capsys, [*command, *flags, "--out", str(path)]) == (0, tail, "")
        assert path.read_bytes() == out.encode()


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
    # the sweep counts the axes, and the CLI names the flag
    three = ["--axis", "c:0.2:5.8:3", "--axis", "r:0.5:1.5:2", "--axis", "R:3:4:2"]
    rc, out, err = run(capsys, ["phase-diagram", *three])
    assert rc == 1 and out == ""
    assert err == "blochflow phase-diagram: error: --axis: sweeps take 1 or 2 axes, got 3\n"


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


def _blochflow(*argv, **popen_args):
    """``python -m blochflow`` on the package under test, as a subprocess."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(blochflow.__file__))}
    return subprocess.Popen([sys.executable, "-m", "blochflow", *argv], env=env, **popen_args)


# Every subcommand, then --help and --version, run through cli.main in one
# process that cannot import numpy: numpy is a test-only package.  The field
# dump writes every line from this one process.  The commands are written
# into the script and its results printed as reprs, so that the script
# itself imports nothing that the CLI must not.
_WITHOUT_NUMPY_COMMANDS = [
    ["zeros", "--c", "3"],
    ["euler", "--c", "3"],
    ["chern", "--c", "3"],
    ["chern", "--c", "3", "--method", "direct"],
    ["winding", "--c", "3"],
    ["phase-diagram", "--axis", "c:0.5:4.5:9", "--quantity", "chern"],
    ["phase-diagram", "--axis", "c:0.5:4.5:9", "--quantity", "euler"],
    ["field-dump", "--grid-n", "17"],
]
_WITHOUT_NUMPY = f"""
import sys
sys.modules["numpy"] = None  # from here on, `import numpy` raises ImportError
from blochflow.cli import main
out, commands = sys.argv[1], {_WITHOUT_NUMPY_COMMANDS!r}
codes = [main([*argv, "--out", out]) for argv in commands]
codes += [main(argv) for argv in (["--help"], ["--version"], *([cmd, "--help"] for cmd, *_ in commands))]
print(codes)
# the modules that start-up must not pay for: dataclasses alone takes
# inspect, ast, dis and tokenize with it, and argparse takes gettext and
# then locale; json with its C part _json takes about 2.3 ms and
# __future__ about 0.2 ms, measured in process on a 2 vCPU Xeon; typing
# takes contextlib with it, and re and warnings, which tempfile also takes
unwanted = {{"dataclasses", "inspect", "argparse", "gettext", "locale", "json", "_json", "__future__", "typing"}}
print(sorted(unwanted & set(sys.modules)))
"""


def test_every_subcommand_runs_without_numpy(tmp_path):
    # -S: no site, whose .pth files may preload typing or numpy and so hide an import of the CLI's own
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(blochflow.__file__))}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _WITHOUT_NUMPY, str(tmp_path / "out")],
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    codes, unwanted = proc.stdout.decode().splitlines()[-2:]
    assert codes == repr([0] * (2 * len(_WITHOUT_NUMPY_COMMANDS) + 2))
    assert unwanted == "[]"
    # the last one wrote the whole dump
    assert (tmp_path / "out").read_text().count("\n") == 1 + 17 * 17


@pytest.mark.parametrize(
    "argv, lines",
    [(["field-dump", "--grid-n", "256"], 1), (["zeros", "--c", "3"], 0)],
)
def test_closed_stdout_exits_quietly(argv, lines):
    # `blochflow ... | head -1`: the reader takes `lines` lines and closes
    # the pipe.  The zeros output fits in a pipe buffer, so there the reader
    # is gone before the process starts, or the write could win the race.
    r, w = os.pipe()
    if not lines:
        os.close(r)
    proc = _blochflow(*argv, stdout=w, stderr=subprocess.PIPE)
    os.close(w)
    if lines:
        with os.fdopen(r) as out:
            for _ in range(lines):
                out.readline()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (1, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv",
    [
        *(cmd.split() for cmd in (
            "zeros --c 3", "euler --c 3", "chern --c 3", "chern --c 3 --method direct", "winding --c 3",
            "phase-diagram --axis c:0.5:4.5:9", "phase-diagram --axis c:0.5:4.5:9 --quantity euler", "field-dump",
        )),
        *([cmd, "--help"] for cmd in COMMANDS),
        ["--help"],
        ["--version"],
    ],
    ids=" ".join,
)
def test_full_stdout_is_one_error_line(argv):
    # a failed write to stdout is one line that names stdout, exit 1, and no
    # traceback, also from the interpreter's last flush
    with open("/dev/full", "wb") as full:
        proc = _blochflow(*argv, stdout=full, stderr=subprocess.PIPE)
        _, err = proc.communicate(timeout=120)
    prog = "blochflow" if argv[0].startswith("-") else f"blochflow {argv[0]}"
    assert (proc.returncode, err.decode()) == (1, f"{prog}: error: stdout: [Errno 28] No space left on device\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_zeros_out_with_a_full_stdout_names_stdout(tmp_path):
    # the census JSON goes to --out, and only the chi line to the full stdout
    path = tmp_path / "zeros.json"
    with open("/dev/full", "wb") as full:
        proc = _blochflow("zeros", "--c", "3", "--out", str(path), stdout=full, stderr=subprocess.PIPE)
        _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (1, b"blochflow zeros: error: stdout: [Errno 28] No space left on device\n")
    assert json.loads(path.read_text()) == closed_zone_records(euler_characteristic(ModelParams(3, 1, 3)).modes)


def test_field_dump_stdout_and_out_get_the_same_bytes(tmp_path):
    # both streams are block-buffered here; every pair of lines mirrors at
    # n = 33, and the rows are those of the oracle on the same ticks
    proc = _blochflow("field-dump", "--grid-n", "33", stdout=subprocess.PIPE)
    out, _ = proc.communicate(timeout=120)
    path = tmp_path / "dump.csv"
    assert (proc.returncode, _blochflow("field-dump", "--grid-n", "33", "--out", str(path)).wait(120)) == (0, 0)
    assert path.read_bytes() == out
    assert out.decode().splitlines() == ["kx,ky,hx,hy,hz,vx,vy", *surface_csv_rows(ModelParams(3, 1, 1), 33)]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_field_dump_out_write_error_names_out(capsys, assert_nothing_left):
    rc, out, err = run(capsys, ["field-dump", "--grid-n", "64", "--out", "/dev/full"])
    assert (rc, out) == (1, "")
    assert err.startswith("blochflow field-dump: error: --out: [Errno 28] ")
    assert_nothing_left()


@pytest.mark.parametrize("out", [False, True], ids=["stdout", "out"])
def test_field_dump_spool_error_names_the_spool(capsys, tmp_path, full_spool, spool_dir, assert_nothing_left, out):
    # a full TMPDIR: one error line that names the spool, with --out or
    # without, and exit 1
    argv = ["field-dump", "--grid-n", "8", *(["--out", str(tmp_path / "dump.csv")] if out else [])]
    rc, _, err = run(capsys, argv)
    spool = f"the field dump's spool in TMPDIR {spool_dir}"
    assert (rc, err) == (1, f"blochflow field-dump: error: {spool}: [Errno 28] No space left on device\n")
    assert_nothing_left()


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


_CHOICES = "'zeros', 'chern', 'euler', 'winding', 'phase-diagram', 'field-dump'"


# argv -> the one stderr line, which names the command and the flag
USAGE_ERRORS = {
    "": "blochflow: error: the following arguments are required: command",
    "frobnicate": f"blochflow: error: argument command: invalid choice: 'frobnicate' (choose from {_CHOICES})",
    "euler --tol 1e-16": "blochflow euler: error: unrecognized arguments: --tol",
    "euler --tol=1e-16": "blochflow euler: error: unrecognized arguments: --tol=1e-16",
    "euler 3": "blochflow euler: error: unrecognized arguments: 3",
    "zeros --R": "blochflow zeros: error: argument --R: expected one argument",
    "zeros --R x": "blochflow zeros: error: argument --R: invalid float value: 'x'",
    "zeros --R=": "blochflow zeros: error: argument --R: invalid float value: ''",
    "field-dump --grid-n 2.5": "blochflow field-dump: error: argument --grid-n: invalid int value: '2.5'",
    "chern --method foo": (
        "blochflow chern: error: argument --method: invalid choice: 'foo' (choose from 'plaquette', 'direct')"
    ),
    "phase-diagram --axis c:0:1:3 --quantity foo": (
        "blochflow phase-diagram: error: argument --quantity: invalid choice: 'foo' (choose from 'chern', 'euler')"
    ),
    "phase-diagram --quantity euler": "blochflow phase-diagram: error: the following arguments are required: --axis",
    # a unique prefix is not the flag
    "winding --rad 0.3": "blochflow winding: error: unrecognized arguments: --rad",
}


@pytest.mark.parametrize("argv", USAGE_ERRORS)
def test_usage_errors(capsys, argv):
    assert run(capsys, argv.split()) == (1, "", USAGE_ERRORS[argv] + "\n")


def test_flag_value_spellings(capsys):
    # the token after a flag is its value, even when it starts with "-"
    rc, out, err = run(capsys, ["winding", "--center", "-1.5,0.2"])
    assert (rc, err) == (0, "")
    assert run(capsys, ["winding", "--center=-1.5,0.2"]) == (0, out, "")
    rc, out, err = run(capsys, ["euler", "--c", "-1"])
    assert (rc, out) == (1, "")
    assert err.startswith("blochflow euler: error: --R/--r/--c: ")
    # the last value wins; --axis collects its values
    assert run(capsys, ["euler", "--c", "5", "--c=3"]) == run(capsys, ["euler", "--c", "3"])
    rc, out, _ = run(capsys, ["phase-diagram", "--axis", "c:1:2:2", "--axis=r:0.5:1:2"])
    assert (rc, len(out.splitlines())) == (0, 1 + 2 * 2)


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_lists_every_flag(capsys, flag):
    rc, out, err = run(capsys, [flag])
    assert (rc, err) == (0, "")
    assert all(f"  {command}  " in out for command in COMMANDS)
    for command, (_, text, flags) in COMMANDS.items():
        rc, out, err = run(capsys, [command, "--R", "3", flag])
        assert (rc, err) == (0, "")
        assert text in out
        rows = {line.split()[0]: line for line in out.splitlines() if line.startswith("  --")}
        assert list(rows) == [name for name, *_ in flags]
        for name, kind, default, _ in flags:
            assert rows[name].endswith("(required)" if kind is list else f"(default: {default})")


def test_version(capsys):
    version = f"blochflow {blochflow.__version__}\n"
    assert run(capsys, ["--version"]) == (0, version, "")
    proc = _blochflow("--version", stdout=subprocess.PIPE)
    assert (proc.communicate(timeout=120)[0], proc.returncode) == (version.encode(), 0)


# The output contract, at (R, r, c) = (3, 1, 3): 8 zeros, all but (0, 0)
# on the zone edge, and Chern number 1.
P_OUT = ModelParams(3, 1, 3)
CHERN_KEYS = ["raw", "value", "gap_min", "method", "grid_n"]


def _zeros_expected(text):
    records = json.loads(text)
    # the copies at the canonical locations are the census modes, in order
    canonical = [
        (rec["kx"], rec["ky"], rec["det"], rec["trace"], rec["index"], rec["kind"])
        for rec in records
        if rec["kx"] < math.pi and rec["ky"] < math.pi
    ]
    modes = [
        (z.location.kx, z.location.ky, z.det, z.trace, z.index, z.kind.value)
        for z in euler_characteristic(P_OUT).modes
    ]
    assert canonical == modes
    return {tuple(rec) for rec in records}, {("kx", "ky", "det", "trace", "index", "kind", "weight_num", "weight_den")}


def _euler_expected(text):
    doc = json.loads(text)
    res = euler_characteristic(P_OUT)
    # each zero is listed once per closed-zone copy: twice per coordinate at -pi
    copies = sum((1 + (z.location.kx == -math.pi)) * (1 + (z.location.ky == -math.pi)) for z in res.modes)
    assert doc == {"chi": res.chi, "zero_modes": copies}
    return list(doc), ["chi", "zero_modes"]


def _chern_expected(method):
    def check(text):
        doc = json.loads(text)
        # items, not dicts: dict equality would pass a reordered record
        assert list(doc.items()) == list(method(P_OUT)._asdict().items())
        return list(doc), CHERN_KEYS

    return check


def _winding_expected(text):
    doc = json.loads(text)
    res = winding_hermitian(LoopSpec.circle(KPoint(0.0, 0.0), 0.3), P_OUT)
    want = res._asdict()
    want["samples_used"] = want.pop("samples")
    assert list(doc.items()) == list(want.items())
    return list(doc), ["w", "total_angle", "min_field_norm", "samples_used"]


def _grid_expected(text):
    header, *rows = text.splitlines()
    grid = sweep_chern([SweepAxis("c", 0.5, 4.5, 9)], P_OUT)

    def num(field, kind):
        return None if field == "" else kind(field)

    kinds = (float, float, float, int, int, float, str)
    parsed = [tuple(num(f, k) for f, k in zip(row.split(","), kinds)) for row in rows]
    assert parsed == [
        (c.params.R, c.params.r, c.params.c, c.chern, c.chi, c.gap_min, c.status) for c in grid.cells
    ]
    return header, "R,r,c,chern,chi,gap_min,status"


OUTPUTS = {
    "zeros": _zeros_expected,
    "euler": _euler_expected,
    "chern": _chern_expected(chern_plaquette),
    "chern --method direct": _chern_expected(chern_direct),
    "winding --center 0,0 --radius 0.3": _winding_expected,
    "phase-diagram --axis c:0.5:4.5:9": _grid_expected,
}


@pytest.mark.parametrize("command", OUTPUTS)
def test_output_contract(tmp_path, capsys, command):
    # key order (or CSV header) and values against the library result; one
    # final newline; and --out gets the bytes stdout gets (zeros keeps its
    # chi line on stdout)
    argv = [*command.split(), "--R", "3", "--r", "1", "--c", "3"]
    rc, out, _ = run(capsys, argv)
    assert rc == 0
    tail = ""
    if argv[0] == "zeros":
        tail = f"chi {euler_characteristic(P_OUT).chi}\n"
        assert out.endswith("]\n" + tail)
        out = out[: -len(tail)]
    got, want = OUTPUTS[command](out)
    assert got == want
    assert out.endswith("\n") and not out.endswith("\n\n")

    path = tmp_path / "out"
    rc, rest, _ = run(capsys, [*argv, "--out", str(path)])
    assert (rc, rest) == (0, tail)
    assert path.read_bytes() == out.encode()
