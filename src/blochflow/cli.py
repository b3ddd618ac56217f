"""Command-line front end: census, invariants, windings, sweeps, dumps.

Exit codes: 0 success, 1 usage/validation error (message names the flag,
including an --out path that cannot be written), a failed field-dump
spool or a failed write to stdout (one line that names stdout; a reader
that closed it early gets none), 2 model or domain error (gapless model,
degenerate field, ...).
Chern grids are fixed and loop samples refine themselves, so they are
not options; ``field-dump --grid-n`` sets the size of the output.

Flags come from one table, ``COMMANDS``: per subcommand its handler, help
line and flags, each flag a (name, type or choices, default, help) tuple.
``_parse`` walks it.  A flag takes ``--flag=value`` or the next token,
even one that starts with ``-``; only whole names match, and the last value
wins, except for ``--axis``.  ``--help`` prints the table, ``--version``
the version; a usage error raises ``_UsageError``, which ``main`` reports.

This is the one module that formats output.  Each subcommand serializes
the record the library returns and writes the same bytes, ending in one
newline, to stdout or to --out.  ``zeros`` writes the closed-zone records
(``closed_zone_records``) as a JSON array, then a ``chi N`` line that stays
on stdout; ``euler`` writes chi and the number of those records as
``zero_modes``; ``chern`` and ``winding`` write their result records as
JSON objects in field order (``samples`` as ``samples_used``);
``phase-diagram`` writes CSV (``grid_to_csv``: 17 significant digits,
each distinct axis value formatted once, missing values empty,
byte-identical for identical sweeps); ``field-dump``
streams ``model.write_surface_csv`` into ``sys.stdout.buffer`` or a file
opened "wb": one process formats each pair of kx-mirrored nodes and
ky-mirrored lines once, a quarter of the grid at every n, joins each
line from those strings, writes every line in order, and keeps the
second line of a pair in an unlinked temporary file in ``TMPDIR`` until
its turn, about 18 MB at n = 512.  A failed read or write of that file
(``errors.SpoolError``) exits 1 with an error that names the spool and
``TMPDIR``, not ``--out``.
"""

from __future__ import annotations

import json
import math
import os
import sys
from types import SimpleNamespace

from . import __version__
from .chern import chern_direct, chern_plaquette
from .errors import SpoolError, TopologyError
from .model import TWO_PI, KPoint, ModelParams, write_surface_csv
from .sweep import PhaseDiagramGrid, SweepAxis, sweep_chern, sweep_euler
from .winding import LoopSpec, winding_hermitian
from .zeromode import euler_characteristic


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


def grid_to_csv(grid: PhaseDiagramGrid) -> str:
    # Equal nonzero numbers print alike under %.17g, so each distinct R, r
    # and c is formatted once per grid.  A zero is formatted on every row:
    # 0.0 and -0.0 are one dict key, but they print as 0 and -0.
    digits = {x: "%.17g" % x for x in {x for cell in grid.cells for x in cell.params} if x}
    lines = [CSV_HEADER]
    for (R, r, c), chern, chi, g, status in grid.cells:
        R, r, c = digits[R] if R else "%.17g" % R, digits[r] if r else "%.17g" % r, digits[c] if c else "%.17g" % c
        lines.append(f"{R},{r},{c},{'' if chern is None else chern},{'' if chi is None else chi},{g:.17g},{status}")
    return "\n".join(lines) + "\n"


def _json(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _write_out(path: str, write) -> None:
    """Call ``write`` on ``path`` opened "wb"; an OSError of that file, not of the spool, names --out."""
    try:
        with open(path, "wb") as fh:
            write(fh)
    except SpoolError:
        raise
    except OSError as e:
        raise _UsageError(f"--out: {e}") from e


def _emit(text: str, out_path) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        _write_out(out_path, lambda fh: fh.write(text.encode()))


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
        sys.stdout.flush()
        write_surface_csv(p, args.grid_n, sys.stdout.buffer)
    else:
        _write_out(args.out, lambda fh: write_surface_csv(p, args.grid_n, fh))
    return 0


def _flags(*own, out="write output to this path instead of stdout"):
    return (
        ("--R", float, 3.0, "torus major radius"),
        ("--r", float, 1.0, "torus tube radius"),
        ("--c", float, 1.0, "axis shift of the image surface"),
        *own,
        ("--out", str, None, out),
    )


# In --help order.  The flag type `list` marks --axis: it collects every value and is required.
COMMANDS = {
    "zeros": (
        _cmd_zeros,
        "closed-zone copies of each zero with their weights, and the Euler characteristic",
        _flags(out="write the census JSON to this path; the 'chi N' line still goes to stdout"),
    ),
    "chern": (
        _cmd_chern,
        "Chern number of the gapped model",
        _flags(("--method", ("plaquette", "direct"), "plaquette", "solid-angle plaquette sum or direct quadrature")),
    ),
    "euler": (_cmd_euler, "Euler characteristic: the index sum of the zeros", _flags()),
    "winding": (
        _cmd_winding,
        "winding of the velocity field along a circular loop",
        _flags(("--center", str, "0,0", "loop center as 'kx,ky'"), ("--radius", float, 0.3, "loop radius in radians")),
    ),
    "phase-diagram": (
        _cmd_phase_diagram,
        "sweep parameters and write a phase-diagram grid",
        _flags(
            ("--axis", list, None, "sweep axis NAME:START:STOP:STEPS, e.g. c:0.2:5.8:57 (repeat for a 2-D sweep)"),
            ("--quantity", ("chern", "euler"), "chern", "invariant of each cell"),
        ),
    ),
    "field-dump": (
        _cmd_field_dump,
        "dump h and the velocity on a uniform grid as CSV",
        _flags(("--grid-n", int, 64, "grid nodes per axis")),
    ),
}


def _help(command=None) -> str:
    """The top-level help, or one command's: its help line and each flag with its default."""
    rows = [("-h, --help", "show this help message and exit")]
    if command is None:
        head = "[-h] [--version] COMMAND [--flag VALUE ...]\n\n"
        head += "Topological invariants of the two-band quantum torus from its velocity field"
        rows += [("--version", "show the version number and exit"), *((cmd, row[1]) for cmd, row in COMMANDS.items())]
    else:
        _, text, flags = COMMANDS[command]
        head = f"{command} [-h] [--flag VALUE | --flag=VALUE ...]\n\n{text}"
        for name, kind, default, what in flags:
            metavar = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else name[2:].upper().replace("-", "_")
            rows.append((f"{name} {metavar}", f"{what} ({'required' if kind is list else f'default: {default}'})"))
    width = max(len(left) for left, _ in rows)
    return f"usage: blochflow {head}\n\n" + "".join(f"  {left:<{width}}  {right}\n" for left, right in rows)


def _parse(argv):
    """The arguments of a command line, or None once its help or version is printed."""
    if not argv:
        raise _UsageError("the following arguments are required: command")
    if argv[0] in ("-h", "--help", "--version"):
        sys.stdout.write(f"blochflow {__version__}\n" if argv[0] == "--version" else _help())
        return None
    if argv[0] not in COMMANDS:
        raise _UsageError(f"argument command: invalid choice: {argv[0]!r} (choose from {str(list(COMMANDS))[1:-1]})")
    command, tokens = argv[0], iter(argv[1:])
    kinds = {name: kind for name, kind, _, _ in COMMANDS[command][2]}
    args = {name: [] if kind is list else default for name, kind, default, _ in COMMANDS[command][2]}
    for token in tokens:
        if token in ("-h", "--help"):
            sys.stdout.write(_help(command))
            return None
        name, eq, value = token.partition("=")
        if name not in kinds:
            raise _UsageError(f"unrecognized arguments: {token}")
        if not eq and (value := next(tokens, None)) is None:
            raise _UsageError(f"argument {name}: expected one argument")
        kind = kinds[name]
        if isinstance(kind, tuple):
            if value not in kind:
                raise _UsageError(f"argument {name}: invalid choice: {value!r} (choose from {str(list(kind))[1:-1]})")
        elif kind is not list:
            try:
                value = kind(value)
            except ValueError:
                raise _UsageError(f"argument {name}: invalid {kind.__name__} value: {value!r}") from None
        args[name] = [*args[name], value] if kind is list else value
    missing = [name for name, kind in kinds.items() if kind is list and not args[name]]
    if missing:
        raise _UsageError(f"the following arguments are required: {', '.join(missing)}")
    return SimpleNamespace(command=command, **{name[2:].replace("-", "_"): value for name, value in args.items()})


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    prog = f"blochflow {argv[0]}" if argv and argv[0] in COMMANDS else "blochflow"
    try:
        args = _parse(argv)
        status = 0 if args is None else COMMANDS[args.command][0](args)
        sys.stdout.flush()
        return status
    except (_UsageError, SpoolError) as e:
        sys.stderr.write(f"{prog}: error: {e}\n")
        return 1
    except TopologyError as e:
        sys.stderr.write(f"{prog}: {type(e).__name__}: {e}\n")
        return 2
    except OSError as e:
        # Only stdout is left to fail, as --out and the spool raise their own errors; a reader that closed it
        # (`| head`) gets a quiet exit.  Point stdout at devnull, so that the interpreter's final flush passes.
        if not isinstance(e, BrokenPipeError):
            sys.stderr.write(f"{prog}: error: stdout: {e}\n")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
