"""blochflow benchmark: fresh CLI processes, timed, checked, optionally traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S]   # every workload, both modes

One run repeats the workload's passes (see workloads.py) one CLI process
after another (closed loop, one client) until ``--seconds`` have passed,
and at least twice.  Before the passes it launches set-up probes that
only import ``blochflow.cli``, and before every blochflow process it
times a reference process that only imports numpy (see REF_SECONDS).
Every output is checked against the analytic reference in reference.py
and against the bytes of the first pass.  With ``--trace 1`` every other pass runs with spans installed
(spans.py) and the run reports per-layer metrics instead of end-to-end
ones.  Inputs the program is known to get wrong (workloads.KNOWN_DEFECT)
run once, untimed, before the passes; their failures are printed on ``#``
lines and kept out of the result.  The last line of stdout is the result as one
JSON object.

Only the standard library is used to drive and time; the reference
checker uses numpy.  blochflow is imported from ``src/`` next to this
directory; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
SETUP_PROBES = 2
MIN_PASSES = 2
# Seconds a whole run may take before the benchmark gives up.
RUN_LIMIT = 170.0
DUMP_SPOT_ROWS = 64
# A shared machine's speed can drift by tens of percent within minutes.
# Every run therefore also times a process that only imports numpy (no
# blochflow code) and reports its times as if that process had taken
# REF_SECONDS.
REF_SECONDS = 0.15
# Reference samples taken within this many seconds of a pass or a launch
# give the speed its times are scaled by.
REF_WINDOW = 5.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The run could not be measured (a child hung, or a required file is missing)."""


class Launcher:
    """Starts child processes one at a time and reaps them with os.wait4."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = {**os.environ, **{v: "1" for v in THREAD_VARS}}
        self.count = 0

    def _spawn(self, args: list, stdout: Path, stderr: Path) -> tuple:
        """Run one process to its end: (spawn time, reap time, exit code, rusage)."""
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [(os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644), (os.POSIX_SPAWN_OPEN, 2, str(stderr), flags, 0o644)]
        limit = self.deadline - time.perf_counter()
        if limit <= 0:
            raise BenchError(f"run exceeded {RUN_LIMIT:.0f} s before launching {args[1:4]}")
        t0 = time.perf_counter()
        pid = os.posix_spawn(sys.executable, args, self.env, file_actions=actions)
        killer = threading.Timer(limit, os.kill, (pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        finally:
            killer.cancel()
        t1 = time.perf_counter()
        rc = os.waitstatus_to_exitcode(status)
        if rc < 0:
            raise BenchError(f"{args[1:4]} killed by signal {-rc} (limit {limit:.0f} s)")
        return t0, t1, rc, usage

    def reference(self) -> float:
        """Wall seconds of a process that only imports numpy: the machine's current speed."""
        self.count += 1
        tag = self.work / f"ref{self.count}"
        t0, t1, rc, _ = self._spawn([sys.executable, "-c", "import numpy"], tag.with_suffix(".out"), tag.with_suffix(".err"))
        if rc != 0:
            raise BenchError(f"reference process exited {rc}: {tag.with_suffix('.err').read_text(errors='replace')[-2000:]}")
        return t1 - t0

    def run(self, argv: list, trace: bool) -> dict:
        self.count += 1
        tag = self.work / f"launch{self.count}"
        result, stdout, stderr = (tag.with_suffix(s) for s in (".json", ".out", ".err"))
        args = [sys.executable, *(["-X", "importtime"] if trace else []), str(CHILD), str(result), str(int(trace)), *argv]
        t0, t1, rc, usage = self._spawn(args, stdout, stderr)
        try:
            doc = json.loads(result.read_text(encoding="utf-8"))
        except (OSError, ValueError) as e:
            raise BenchError(f"child {argv[:1]} exited {rc} without a result: {stderr.read_text(errors='replace')[-2000:]}") from e
        if doc["rc"] != rc:
            raise BenchError(f"child {argv[:1]} reported exit {doc['rc']} but exited {rc}")
        return {
            "t0": t0,
            "t1": t1,
            "wall": t1 - t0,
            "setup": doc["ready"] - t0,
            "main": doc["done"] - doc["main"],
            "rss_kb": doc["hwm_kb"] or usage.ru_maxrss,
            "rc": rc,
            "stdout": stdout,
            "stderr": stderr,
            "trace": doc.get("trace"),
        }


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        try:
            with open(p, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    h.update(chunk)
        except FileNotFoundError:
            h.update(b"missing")
        h.update(b"\0")
    return h.hexdigest()


def _check_dump(path: Path, inv: dict, rng: random.Random) -> tuple:
    """(failures, operations) for a field-dump file: its shape plus spot rows."""
    n = inv["n"]
    spots = {0, n * n - 1, *rng.sample(range(n * n), DUMP_SPOT_ROWS - 2)}
    fails, rows, count, header = [], [], -1, None
    try:
        with open(path, "rb") as fh:
            header = fh.readline().decode(errors="replace").rstrip("\n")
            for count, line in enumerate(fh):
                if count in spots:
                    try:
                        rows.append((count, [float(x) for x in line.split(b",")]))
                    except ValueError:
                        rows.append((count, []))
    except OSError as e:
        return [f"dump n={n}: {e}"] * (len(spots) + 1), len(spots) + 1
    if header != reference.DUMP_HEADER or count + 1 != n * n:
        fails.append(f"dump n={n}: header {header!r}, {count + 1} rows, want {n * n}")
    fails += [f"dump row {i}: not 7 numbers" for i, vals in rows if len(vals) != 7]
    R, r, c = inv["params"]
    fails += reference.check_dump_rows([(i, v) for i, v in rows if len(v) == 7], R, r, c, n)
    return fails, len(spots) + 1


def _check(inv: dict, launch: dict, out: Path | None, rng: random.Random) -> tuple:
    """(failures, operations) for one invocation's exit code and outputs."""
    if inv["kind"] == "query":
        msg = reference.check_query(inv["query"], launch["rc"], launch["stdout"].read_text(encoding="utf-8"))
        return ([msg] if msg else []), 1
    if launch["rc"] != 0:
        # Nothing the invocation should have written can be trusted.
        ops = 1 + (inv["items"] if inv["kind"] == "sweep" else DUMP_SPOT_ROWS + 1)
        return [f"{' '.join(inv['argv'])}: exit {launch['rc']}"] * ops, ops
    if inv["kind"] == "sweep":
        text = out.read_text(encoding="utf-8") if out.is_file() else ""
        fails, ops = reference.check_sweep_csv(text, inv["quantity"], inv["items"])
    else:
        fails, ops = _check_dump(out, inv, rng)
    return fails, ops + 1


class Run:
    """Launches, checks and bookkeeping for one workload run."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool, work: Path):
        self.invs = workloads.build(name, seed)
        self.known = workloads.KNOWN_DEFECT.get(name, [])
        self.known_fails: list = []
        self.known_ops = 0
        self.seed, self.seconds, self.trace, self.work = seed, seconds, trace, work
        self.t_begin = time.perf_counter()
        self.launcher = Launcher(work, self.t_begin + RUN_LIMIT)
        self.attempted = 0
        self.failures: list = []
        self.first: dict = {}  # invocation index -> (digest, failures, operations)
        self.untraced: list = []  # launches of untraced children, probes included
        self.passes: list = []  # (traced, wall seconds, start, end)
        self.traced_launches: list = []
        self.refs: list = []  # (time, seconds) of reference processes, see REF_SECONDS

    def _record(self, fails, ops):
        self.attempted += ops
        self.failures += fails

    def probes(self):
        self.launcher.run([], False)  # warm-up: byte-compiles, fills the file cache
        for _ in range(SETUP_PROBES):
            self.refs.append((time.perf_counter(), self.launcher.reference()))
            self.untraced.append(self.launcher.run([], False))

    def one_pass(self, traced: bool):
        wall = 0.0
        t_start = time.perf_counter()
        for i, inv in enumerate(self.invs):
            argv = list(inv["argv"])
            out = None
            if inv["out"]:
                out = self.work / f"{i}-{inv['out']}"
                argv += ["--out", str(out)]
            self.refs.append((time.perf_counter(), self.launcher.reference()))
            launch = self.launcher.run(argv, traced)
            launch["inv"] = i
            (self.traced_launches if traced else self.untraced).append(launch)
            wall += launch["wall"]
            digest = _digest([launch["stdout"]] + ([out] if out else []))
            if i not in self.first:
                fails, ops = _check(inv, launch, out, random.Random(f"{self.seed}:{i}"))
                self.first[i] = (digest, fails, ops)
                self._record(fails, ops)
                continue
            first_digest, fails, ops = self.first[i]
            if digest != first_digest:
                what = "traced" if traced else "repeated"
                self._record([f"{' '.join(inv['argv'])}: {what} output differs from the first pass"], 1)
                fails, ops = _check(inv, launch, out, random.Random(f"{self.seed}:{i}"))
            else:
                self._record([], 1)
            self._record(fails, ops)
        self.passes.append((traced, wall, t_start, time.perf_counter()))

    def measure(self):
        self.probes()
        self.known_defect()
        deadline = self.t_begin + self.seconds
        # A pass starts only if it should end less than half a pass past the
        # deadline, so a run ends near --seconds on average.
        while len(self.passes) < MIN_PASSES or time.perf_counter() + 0.5 * (self.passes[-1][3] - self.passes[-1][2]) < deadline:
            self.one_pass(self.trace and len(self.passes) % 2 == 1)

    def known_defect(self):
        """Run and check, once and untimed, the inputs the program is known to get wrong.

        Their failures are kept apart from the run's own (see workloads.KNOWN_DEFECT).
        """
        for i, inv in enumerate(self.known):
            out = self.work / f"defect{i}-{inv['out']}"
            launch = self.launcher.run([*inv["argv"], "--out", str(out)], False)
            fails, ops = _check(inv, launch, out, random.Random(f"{self.seed}:defect{i}"))
            self.known_fails += fails
            self.known_ops += ops

    def _speed(self, t0: float, t1: float) -> float:
        """Machine slowness around [t0, t1]: nearby reference times / REF_SECONDS."""
        near = [r for t, r in self.refs if t0 - REF_WINDOW <= t <= t1 + REF_WINDOW]
        return statistics.median(near) / REF_SECONDS

    def _pass_seconds(self, key: str, scaled: bool) -> float:
        """Seconds of one pass: the sum over its invocations of the median of
        ``launch[key]`` over the untraced passes, each launch at the
        reference speed when ``scaled``.  A launch is scaled by the speed
        around itself, not around its whole pass: that follows the machine
        more closely when one invocation takes most of a pass."""
        per_inv = collections.defaultdict(list)
        for x in self.untraced:
            if "inv" in x:  # set-up probes have none
                per_inv[x["inv"]].append(x[key] / (self._speed(x["t0"], x["t1"]) if scaled else 1.0))
        return sum(statistics.median(v) for v in per_inv.values())

    def end_to_end(self) -> tuple:
        """(metrics at the reference speed, the same times as measured)."""
        items = sum(inv["items"] for inv in self.invs)
        raw = {
            "wall_s": self._pass_seconds("wall", False),
            "setup_s": statistics.median(x["setup"] for x in self.untraced),
            "items_per_s": items / self._pass_seconds("main", False),
            "ref_s": statistics.median(r for _, r in self.refs),
        }
        metrics = {
            "wall_s": self._pass_seconds("wall", True),
            "setup_s": statistics.median(x["setup"] / self._speed(x["t0"], x["t1"]) for x in self.untraced),
            "items_per_s": items / self._pass_seconds("main", True),
            "peak_rss_mb": max(x["rss_kb"] for x in self.untraced) / 1024.0,
            "ok_frac": 1.0 - len(self.failures) / self.attempted,
        }
        return metrics, raw

    def per_layer(self, names) -> dict:
        traced_walls = [p[1] for p in self.passes if p[0]]
        plain_walls = [p[1] for p in self.passes if not p[0]]
        n_passes = len(traced_walls)
        funcs, counts = {}, {}
        for launch in self.traced_launches:
            for fname, st in launch["trace"]["functions"].items():
                acc = funcs.setdefault(fname, {"calls": 0, "self_s": 0.0})
                acc["calls"] += st["calls"]
                acc["self_s"] += st["self_s"]
            for key, v in launch["trace"]["counts"].items():
                counts[key] = counts.get(key, 0) + v
        imports = [_import_times(x["stderr"]) for x in self.traced_launches]
        cells = sum(counts.get(f"sweep.{f}.cells", 0) for f in ("sweep_chern", "sweep_euler"))
        values = {
            "trace.overhead_frac": statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0,
            "zeromode.modes": counts.get("zeromode.euler_characteristic.modes", 0),
            "winding.samples": counts.get("winding.winding_hermitian.samples", 0),
            "chern.chern_plaquette.nodes": counts.get("chern.chern_plaquette.nodes", 0),
            "model.write_surface_csv.bytes": counts.get("model.write_surface_csv.bytes", 0),
            "sweep.cells": cells,
        }
        for status in ("ok", "gapless", "degenerate"):
            values[f"sweep.cells_{status}"] = sum(
                counts.get(f"sweep.{f}.cells_{status}", 0) for f in ("sweep_chern", "sweep_euler")
            )
        out = {}
        for name in names:
            layer, _, stat = name.rpartition(".")
            fn = funcs.get(layer, {"calls": 0, "self_s": 0.0})
            if name.startswith("setup."):
                out[name] = statistics.median(t.get(stat.removesuffix("_s").removeprefix("import_"), 0.0) for t in imports)
            elif name == "trace.overhead_frac":
                out[name] = values[name]
            elif name in values:
                out[name] = values[name] / n_passes
            elif stat in ("calls", "self_s"):
                out[name] = fn[stat] / n_passes
            elif stat == "points_per_call":
                out[name] = counts.get(f"{layer}.points", 0) / fn["calls"] if fn["calls"] else 0.0
            elif stat == "calls_per_cell":
                out[name] = fn["calls"] / cells if cells else 0.0
            else:
                raise BenchError(f"no source for per-layer metric {name!r}")
        return out


def _import_times(stderr: Path) -> dict:
    """Cumulative import seconds of numpy, scipy and blochflow from -X importtime.

    importtime prints a module after the modules it imports, indented one
    level deeper, so reading the lines backwards gives each module's
    ancestors.  A package's time is the sum over its outermost modules.
    """
    found, stack = {}, []
    for line in reversed(stderr.read_text(encoding="utf-8", errors="replace").splitlines()):
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        raw = parts[2].rstrip()
        depth = len(raw) - len(raw.lstrip())
        top = raw.strip().partition(".")[0]
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if top in ("numpy", "scipy", "blochflow") and all(t != top for _, t in stack):
            found[top] = found.get(top, 0.0) + int(parts[1]) * 1e-6
        stack.append((depth, top))
    return found


def _machine() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "absent"
    src = hashlib.sha256()
    for p in sorted((ROOT / "src" / "blochflow").glob("*.py")):
        src.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "commit": _commit(),
        "src_sha256": src.hexdigest()[:16],
    }


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()[:12]
        return ref[:12]
    except OSError:
        return "unknown"


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    work = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(name, seed, seconds, trace, work)
        run.measure()
        if trace:
            defs = spec["per_layer"]
            values = run.per_layer([m["name"] for m in defs])
        else:
            defs = spec["end_to_end"]
            values, raw = run.end_to_end()
            print(f"# as measured: {json.dumps(raw)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it
    for msg, times in collections.Counter(run.failures).most_common(20):
        print(f"# FAILED {name} (x{times}): {msg}")
    for msg in run.known_fails:
        print(f"# KNOWN DEFECT {name}: {msg}")
    if run.known_ops:
        state = "still there" if run.known_fails else "gone: take its inputs out of workloads.KNOWN_DEFECT"
        print(f"# known-defect probe {name}: {len(run.known_fails)} of {run.known_ops} checks failed, not counted in the result; the defect is {state}")
    return {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in defs},
    }


def _report(seed: int, seconds: float, spec: dict) -> None:
    """Every workload, untraced then traced, as readable tables."""
    for trace in (False, True):
        print(f"# {'per-layer metrics (traced run)' if trace else 'end-to-end metrics (tracing off)'}")
        for name in workloads.NAMES:
            res = run_workload(name, seed, seconds, trace, spec)
            frac = res["failed"] / res["attempted"]
            print(f"{name}: attempted {res['attempted']} failed {res['failed']} failed_frac {frac:.4g}")
            for metric, mv in res["metrics"].items():
                print(f"  {metric:40s} {mv['value']:>14.6g} {mv['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES, help="omit to report every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "blochflow" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no blochflow sources under {ROOT / 'src'}\n")
        return 2
    try:
        spec = load_spec()
    except (OSError, ValueError) as e:
        sys.stderr.write(f"perfbench: cannot read BENCHMARK.json: {e}\n")
        return 2
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    print(f"# machine {json.dumps(_machine(), sort_keys=True)}")
    try:
        if args.workload is None:
            _report(args.seed, seconds, spec)
            return 0
        result = run_workload(args.workload, args.seed, seconds, bool(args.trace), spec)
    except BenchError as e:
        sys.stderr.write(f"perfbench: {e}\n")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
