"""Command-line front end: census, invariants, windings, sweeps, dumps.

Exit codes: 0 success, 1 usage/validation error (message names the flag,
including an --out path that cannot be written), 2 model or domain error
(gapless model, degenerate field, ...).  Each subcommand writes exactly
the owning module's serialization, either to stdout or to --out.  Chern
grids and loop samples start fixed and refine themselves, so they are not
options; ``field-dump --grid-n`` sets the size of the output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import __version__
from .chern import chern_direct, chern_json, chern_plaquette
from .errors import TopologyError
from .model import KPoint, ModelParams, write_surface_csv
from .sweep import SweepAxis, sweep_chern, sweep_euler, grid_to_csv, grid_to_json
from .winding import LoopSpec, winding_hermitian, winding_json
from .zeromode import WeightMode, euler_characteristic, zero_modes_json


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract here is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_model_flags(sp):
    sp.add_argument("--R", type=float, default=3.0, help="torus major radius")
    sp.add_argument("--r", type=float, default=1.0, help="torus tube radius")
    sp.add_argument("--c", type=float, default=1.0, help="axis shift of the image surface")


def _add_out_flag(sp, text="write output to this path instead of stdout"):
    sp.add_argument("--out", type=str, default=None, help=text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="blochflow",
        description="Topological invariants of the two-band quantum torus from its velocity field",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser(
        "zeros",
        help="zero-mode census with weights and the Euler characteristic",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    _add_model_flags(sp)
    sp.add_argument(
        "--weight-mode",
        choices=["closed", "canonical"],
        default="closed",
        help="closed-zone fractional weights or one entry per canonical zero",
    )
    _add_out_flag(sp, "write the census JSON to this path; the 'chi N' line still goes to stdout")

    sp = sub.add_parser(
        "chern",
        help="Chern number of the gapped model",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    _add_model_flags(sp)
    sp.add_argument(
        "--method",
        choices=["plaquette", "direct"],
        default="plaquette",
        help="solid-angle plaquette sum or direct quadrature",
    )
    _add_out_flag(sp)

    sp = sub.add_parser(
        "euler",
        help="Euler characteristic from the weighted zero-mode index sum",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    _add_model_flags(sp)
    _add_out_flag(sp)

    sp = sub.add_parser(
        "winding",
        help="winding of the velocity field along a circular loop",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    _add_model_flags(sp)
    sp.add_argument("--center", type=str, default="0,0", help="loop center as 'kx,ky'")
    sp.add_argument("--radius", type=float, default=0.3, help="loop radius in radians")
    _add_out_flag(sp)

    sp = sub.add_parser(
        "phase-diagram",
        help="sweep parameters and write a phase-diagram grid",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    _add_model_flags(sp)
    sp.add_argument(
        "--axis",
        action="append",
        required=True,
        metavar="NAME:START:STOP:STEPS",
        help="sweep axis, e.g. c:0.2:5.8:57 (repeat for a 2-D sweep)",
    )
    sp.add_argument("--quantity", choices=["chern", "euler"], default="chern")
    sp.add_argument("--format", choices=["csv", "json"], default="csv")
    _add_out_flag(sp)

    sp = sub.add_parser(
        "field-dump",
        help="dump h and the velocity on a uniform grid as CSV",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    _add_model_flags(sp)
    sp.add_argument("--grid-n", type=int, default=64, help="grid nodes per axis")
    _add_out_flag(sp)

    return parser


def _model_params(args) -> ModelParams:
    try:
        return ModelParams(args.R, args.r, args.c)
    except ValueError as e:
        raise _UsageError(f"--R/--r/--c: {e}") from e


class _UsageError(Exception):
    pass


def _parse_axis(text: str) -> SweepAxis:
    parts = text.split(":")
    if len(parts) != 4:
        raise _UsageError(f"--axis: expected NAME:START:STOP:STEPS, got {text!r}")
    name, start, stop, steps = parts
    try:
        return SweepAxis(name, float(start), float(stop), int(steps))
    except ValueError as e:
        raise _UsageError(f"--axis: {e}") from e


def _emit(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _cmd_zeros(args) -> int:
    p = _model_params(args)
    mode = WeightMode.CLOSED_BZ if args.weight_mode == "closed" else WeightMode.CANONICAL_CELL
    result = euler_characteristic(p, weight_mode=mode)
    _emit(zero_modes_json(result.modes), args.out)
    sys.stdout.write(f"chi {result.chi}\n")
    return 0


def _cmd_chern(args) -> int:
    p = _model_params(args)
    res = chern_plaquette(p) if args.method == "plaquette" else chern_direct(p)
    _emit(chern_json(res), args.out)
    return 0


def _cmd_euler(args) -> int:
    p = _model_params(args)
    result = euler_characteristic(p)
    _emit(json.dumps({"chi": result.chi, "zero_modes": len(result.modes)}, indent=2), args.out)
    return 0


def _cmd_winding(args) -> int:
    p = _model_params(args)
    try:
        cx, cy = (float(v) for v in args.center.split(","))
    except ValueError as e:
        raise _UsageError(f"--center: expected 'kx,ky', got {args.center!r}") from e
    if not (math.isfinite(cx) and math.isfinite(cy)):
        raise _UsageError(f"--center: must be finite, got {args.center!r}")
    try:
        loop = LoopSpec.circle(KPoint(cx, cy), args.radius)
    except ValueError as e:
        raise _UsageError(f"--radius: {e}") from e
    res = winding_hermitian(loop, p)
    _emit(winding_json(res), args.out)
    return 0


def _cmd_phase_diagram(args) -> int:
    p = _model_params(args)
    axes = [_parse_axis(text) for text in args.axis]
    if len(axes) > 2:
        raise _UsageError(f"--axis: at most 2 axes, got {len(axes)}")
    try:
        if args.quantity == "chern":
            grid = sweep_chern(axes, p)
        else:
            grid = sweep_euler(axes, p)
    except ValueError as e:
        raise _UsageError(f"--axis: {e}") from e
    _emit(grid_to_csv(grid) if args.format == "csv" else grid_to_json(grid), args.out)
    return 0


def _cmd_field_dump(args) -> int:
    p = _model_params(args)
    if args.grid_n < 2:
        raise _UsageError(f"--grid-n: must be at least 2, got {args.grid_n}")
    if args.out is None:
        write_surface_csv(p, args.grid_n, sys.stdout)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            write_surface_csv(p, args.grid_n, fh)
    return 0


_HANDLERS = {
    "zeros": _cmd_zeros,
    "chern": _cmd_chern,
    "euler": _cmd_euler,
    "winding": _cmd_winding,
    "phase-diagram": _cmd_phase_diagram,
    "field-dump": _cmd_field_dump,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        status = _HANDLERS[args.command](args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed stdout early (`| head`): exit quietly, and point
        # stdout at devnull so the interpreter's final flush does not fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except _UsageError as e:
        sys.stderr.write(f"blochflow {args.command}: error: {e}\n")
        return 1
    except TopologyError as e:
        sys.stderr.write(f"blochflow {args.command}: {type(e).__name__}: {e}\n")
        return 2
    except OSError as e:
        if args.out is None:
            raise
        sys.stderr.write(f"blochflow {args.command}: error: --out: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
