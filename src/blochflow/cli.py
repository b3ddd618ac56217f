"""Command-line front end: census, invariants, windings, sweeps, dumps.

Exit codes: 0 success, 1 usage/validation error (message names the flag,
including an --out path that cannot be written), 2 model or domain error
(gapless model, degenerate field, ...).  Chern grids are fixed and loop
samples refine themselves, so they are not options; ``field-dump
--grid-n`` sets the size of the output.

This is the one module that formats output.  Each subcommand serializes
the record the library returns and writes the same bytes, ending in one
newline, to stdout or to --out.  ``zeros`` writes the closed-zone records
(``closed_zone_records``) as a JSON array, then a ``chi N`` line that stays
on stdout; ``euler`` writes chi and the number of those records as
``zero_modes``; ``chern`` and ``winding`` write their result records as
JSON objects in field order (``samples`` as ``samples_used``);
``phase-diagram`` writes CSV (``grid_to_csv``: 17 significant digits,
missing values empty, byte-identical for identical sweeps); ``field-dump``
streams ``model.write_surface_csv``, where one helper process formats the
odd ky lines.  Its bytes and row order are those of one process, and each
of the two processes holds one ky line at a time.  A failed helper prints
its traceback on stderr, and the dump then raises ``RuntimeError``, which
``main`` lets through: the command exits 1, never 0 with a truncated CSV.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import __version__
from .chern import chern_direct, chern_plaquette
from .errors import TopologyError
from .model import TWO_PI, KPoint, ModelParams, write_surface_csv
from .sweep import PhaseDiagramGrid, SweepAxis, sweep_chern, sweep_euler
from .winding import LoopSpec, winding_hermitian
from .zeromode import euler_characteristic


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract here is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="blochflow",
        description="Topological invariants of the two-band quantum torus from its velocity field",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, text):
        sp = sub.add_parser(name, help=text, formatter_class=argparse.ArgumentDefaultsHelpFormatter)
        sp.add_argument("--R", type=float, default=3.0, help="torus major radius")
        sp.add_argument("--r", type=float, default=1.0, help="torus tube radius")
        sp.add_argument("--c", type=float, default=1.0, help="axis shift of the image surface")
        return sp

    command("zeros", "closed-zone copies of each zero with their weights, and the Euler characteristic")
    sp = command("chern", "Chern number of the gapped model")
    sp.add_argument(
        "--method",
        choices=["plaquette", "direct"],
        default="plaquette",
        help="solid-angle plaquette sum or direct quadrature",
    )
    command("euler", "Euler characteristic: the index sum of the zeros")
    sp = command("winding", "winding of the velocity field along a circular loop")
    sp.add_argument("--center", type=str, default="0,0", help="loop center as 'kx,ky'")
    sp.add_argument("--radius", type=float, default=0.3, help="loop radius in radians")
    sp = command("phase-diagram", "sweep parameters and write a phase-diagram grid")
    sp.add_argument(
        "--axis",
        action="append",
        required=True,
        metavar="NAME:START:STOP:STEPS",
        help="sweep axis, e.g. c:0.2:5.8:57 (repeat for a 2-D sweep)",
    )
    sp.add_argument("--quantity", choices=["chern", "euler"], default="chern")
    sp = command("field-dump", "dump h and the velocity on a uniform grid as CSV")
    sp.add_argument("--grid-n", type=int, default=64, help="grid nodes per axis")

    for name, sp in sub.choices.items():
        text = "write output to this path instead of stdout"
        if name == "zeros":
            text = "write the census JSON to this path; the 'chi N' line still goes to stdout"
        sp.add_argument("--out", type=str, default=None, help=text)
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


def _edge_positions(x: float):
    """Closed-zone representatives of one census coordinate (two on the -pi edge)."""
    return (x, x + TWO_PI) if x == -math.pi else (x,)


def closed_zone_records(modes) -> list:
    """The `zeros` records: every closed-zone copy of the canonical modes, sorted by location.

    The census gives each zero once, with coordinates in [-pi, pi); a zero
    with a coordinate at -pi is repeated at +pi on that axis.  A zero with
    n copies (2 on an edge, 4 at a corner) lists each at weight
    weight_num / weight_den = 1/n, so the weights of one zero sum to 1 and
    the weighted index sum is chi.
    """
    records = []
    for z in modes:
        xs = _edge_positions(z.location.kx)
        ys = _edge_positions(z.location.ky)
        records += [
            {
                "kx": x,
                "ky": y,
                "det": z.det,
                "trace": z.trace,
                "index": z.index,
                "kind": z.kind.value,
                "weight_num": 1,
                "weight_den": len(xs) * len(ys),
            }
            for x in xs
            for y in ys
        ]
    records.sort(key=lambda rec: (rec["kx"], rec["ky"]))
    return records


CSV_HEADER = "R,r,c,chern,chi,gap_min,status"


def _fmt(x: float) -> str:
    return format(x, ".17g")


def grid_to_csv(grid: PhaseDiagramGrid) -> str:
    lines = [CSV_HEADER]
    for cell in grid.cells:
        p = cell.params
        lines.append(
            ",".join(
                (
                    _fmt(p.R),
                    _fmt(p.r),
                    _fmt(p.c),
                    "" if cell.chern is None else str(cell.chern),
                    "" if cell.chi is None else str(cell.chi),
                    _fmt(cell.gap_min),
                    cell.status,
                )
            )
        )
    return "\n".join(lines) + "\n"


def _json(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _emit(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _cmd_zeros(args) -> int:
    p = _model_params(args)
    result = euler_characteristic(p)
    _emit(_json(closed_zone_records(result.modes)), args.out)
    sys.stdout.write(f"chi {result.chi}\n")
    return 0


def _cmd_chern(args) -> int:
    p = _model_params(args)
    res = chern_plaquette(p) if args.method == "plaquette" else chern_direct(p)
    _emit(_json(res._asdict()), args.out)
    return 0


def _cmd_euler(args) -> int:
    p = _model_params(args)
    result = euler_characteristic(p)
    _emit(_json({"chi": result.chi, "zero_modes": len(closed_zone_records(result.modes))}), args.out)
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
    doc = winding_hermitian(loop, p)._asdict()
    doc["samples_used"] = doc.pop("samples")
    _emit(_json(doc), args.out)
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
    _emit(grid_to_csv(grid), args.out)
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
