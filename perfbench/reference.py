"""Analytic reference for the benchmark's output checks.

This module never imports blochflow.  It recomputes what the CLI should
print from the model's closed-form structure:

* |h|^2 = rho^2 + c^2 + 2 c rho cos kx + r^2 sin^2 ky is smallest at
  kx = pi, so the gap is a 1-D minimum over ky;
* the Chern number is 1 exactly when R - r < c < R + r, else 0;
* every velocity zero sits on kx in {0, pi}: four at ky in {0, pi}, the
  others where c = g(ky) = rho(ky) (1 - (r/R) cos ky) on kx = pi;
* the Euler characteristic of the torus is 0.

Each ``check_*`` function returns a list of failure messages, one per
failed operation, and the number of operations it checked.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

GAPLESS_THRESHOLD = 1e-3
# Either tag is accepted while the gap is this close to the threshold.
THRESHOLD_BAND = 1e-6
C_DEGENERATE = 1e-6
# Census results may be refused (exit 2 / "degenerate") this close to a
# critical value of g: the pitchfork (R^2 - r^2)/R or an extremum of g.
CENSUS_MARGIN = 0.05
GAP_TOL = 1e-8
DUMP_TOL = 1e-9

SWEEP_HEADER = "R,r,c,chern,chi,gap_min,status"
DUMP_HEADER = "kx,ky,hx,hy,hz,vx,vy"

_SCAN = 8192


def _rho(ky, R, r):
    return np.sqrt((r * np.sin(ky)) ** 2 + (R + r * np.cos(ky)) ** 2)


def _golden_min(f, lo, hi, iters=90):
    """Minimum of a unimodal scalar function on [lo, hi]."""
    inv = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    x1, x2 = b - inv * (b - a), a + inv * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - inv * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + inv * (b - a)
            f2 = f(x2)
    return min(f1, f2)


def _local_extrema(y):
    """Indices of interior local minima and maxima of a periodic samples array."""
    prev, nxt = np.roll(y, 1), np.roll(y, -1)
    return np.flatnonzero((y <= prev) & (y <= nxt)), np.flatnonzero((y >= prev) & (y >= nxt))


def analytic_gap(R: float, r: float, c: float) -> float:
    """min over the zone of |h|, taken on the line kx = pi."""
    step = 2.0 * math.pi / _SCAN
    ky = -math.pi + step * np.arange(_SCAN)
    sq = (_rho(ky, R, r) - c) ** 2 + (r * np.sin(ky)) ** 2

    def f(t):
        rho = math.sqrt((r * math.sin(t)) ** 2 + (R + r * math.cos(t)) ** 2)
        return (rho - c) ** 2 + (r * math.sin(t)) ** 2

    minima, _ = _local_extrema(sq)
    best = float(np.min(sq))
    for i in minima[np.argsort(sq[minima])][:4]:
        best = min(best, _golden_min(f, ky[i] - step, ky[i] + step))
    return math.sqrt(max(best, 0.0))


def _g(ky, R, r):
    return _rho(ky, R, r) * (1.0 - (r / R) * np.cos(ky))


def census_critical_values(R: float, r: float) -> list:
    """Critical values of g: where the zero census changes size."""
    ky = -math.pi + 2.0 * math.pi * np.arange(_SCAN) / _SCAN
    y = _g(ky, R, r)
    lo, hi = _local_extrema(y)
    return sorted({(R * R - r * r) / R, *(float(v) for v in y[lo]), *(float(v) for v in y[hi])})


def near_census_critical(R: float, r: float, c: float) -> bool:
    return any(abs(c - v) < CENSUS_MARGIN for v in census_critical_values(R, r))


def _roots_of_g(R: float, r: float, c: float) -> list:
    """ky in (-pi, pi), ky not in {0, pi}, with g(ky) = c, by bisection."""
    n = _SCAN
    ky = -math.pi + 2.0 * math.pi * (np.arange(n + 1) + 0.5) / (n + 1)
    d = _g(ky, R, r) - c
    roots = []
    for i in np.flatnonzero(np.sign(d[:-1]) != np.sign(d[1:])):
        a, b = float(ky[i]), float(ky[i + 1])
        fa = float(_g(a, R, r) - c)
        for _ in range(80):
            m = 0.5 * (a + b)
            fm = float(_g(m, R, r) - c)
            if (fm < 0.0) == (fa < 0.0):
                a, fa = m, fm
            else:
                b = m
        roots.append(0.5 * (a + b))
    return roots


def _energy(kx, ky, R, r, c):
    """Upper band energy |h(k)|, from the model's defining formula."""
    rho = _rho(ky, R, r)
    return np.sqrt((rho * np.cos(kx) + c) ** 2 + (rho * np.sin(kx)) ** 2 + (r * np.sin(ky)) ** 2)


def _index(kx, ky, R, r, c, step=1e-4):
    """Poincare index of a zero: sign of the determinant of the Hessian of |h|."""
    def e(dx, dy):
        return float(_energy(kx + dx, ky + dy, R, r, c))

    exx = (e(step, 0) - 2 * e(0, 0) + e(-step, 0)) / step**2
    eyy = (e(0, step) - 2 * e(0, 0) + e(0, -step)) / step**2
    exy = (e(step, step) - e(step, -step) - e(-step, step) + e(-step, -step)) / (4 * step**2)
    return 1 if exx * eyy - exy * exy > 0.0 else -1


def canonical_zeros(R: float, r: float, c: float) -> list:
    """All velocity zeros in [-pi, pi)^2 as (kx, ky, index)."""
    pts = [(0.0, 0.0), (0.0, -math.pi), (-math.pi, 0.0), (-math.pi, -math.pi)]
    pts += [(-math.pi, y) for y in _roots_of_g(R, r, c)]
    return [(x, y, _index(x, y, R, r, c)) for x, y in pts]


def _wrap(x):
    return (x + math.pi) % (2.0 * math.pi) - math.pi


def expected_winding(R, r, c, cx, cy, radius) -> int:
    """Sum of the indexes of the zeros inside a circular loop."""
    return sum(i for x, y, i in canonical_zeros(R, r, c) if math.hypot(_wrap(x - cx), _wrap(y - cy)) < radius)


def chern_number(R: float, r: float, c: float) -> int:
    return 1 if R - r < c < R + r else 0


def _gap_tag_ok(status: str, gap: float) -> tuple:
    """(is the status allowed, must the cell be gapless) for a given analytic gap."""
    if abs(gap - GAPLESS_THRESHOLD) <= THRESHOLD_BAND:
        return True, False
    if gap < GAPLESS_THRESHOLD:
        return status == "gapless", True
    return status != "gapless", False


def check_sweep_cell(row: dict, quantity: str) -> str | None:
    """Failure message for one sweep CSV row, or None when it is right."""
    R, r, c = float(row["R"]), float(row["r"]), float(row["c"])
    status, chern, chi = row["status"], row["chern"], row["chi"]
    where = f"{quantity} cell R={R} r={r} c={c}"
    gap = analytic_gap(R, r, c)
    if status not in ("ok", "gapless", "degenerate"):
        return f"{where}: unknown status {status!r}"
    if abs(float(row["gap_min"]) - gap) > GAP_TOL * (1.0 + gap):
        return f"{where}: gap_min {row['gap_min']} != analytic {gap!r}"
    if quantity == "euler" and c <= C_DEGENERATE:
        return None if status == "degenerate" else f"{where}: c = 0 tagged {status!r}, want 'degenerate'"
    allowed, must_gapless = _gap_tag_ok(status, gap)
    if not allowed:
        want = "gapless" if must_gapless else "not gapless"
        return f"{where}: gap {gap:.6g} tagged {status!r}, want {want}"
    if status == "gapless":
        return None if chern == "" and chi == "" else f"{where}: gapless cell carries a value"
    if status == "degenerate":
        if quantity == "euler" and near_census_critical(R, r, c):
            return None
        return f"{where}: tagged 'degenerate' away from every critical value"
    if quantity == "chern":
        want = chern_number(R, r, c)
        if chi != "" or chern != str(want):
            return f"{where}: chern={chern!r} chi={chi!r}, want chern={want}"
    elif chern != "" or chi != "0":
        return f"{where}: chern={chern!r} chi={chi!r}, want chi=0"
    return None


def check_sweep_csv(text: str, quantity: str, cells: int) -> tuple:
    """Check every row of a phase-diagram CSV; a missing cell is a failure too."""
    lines = text.splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        return [f"sweep header {lines[:1]!r}"] * max(cells, 1), max(cells, 1)
    rows = list(csv.DictReader(io.StringIO(text)))
    fails = []
    for row in rows:
        try:
            msg = check_sweep_cell(row, quantity)
        except (ValueError, TypeError, KeyError) as e:
            msg = f"{quantity} row {row}: unreadable ({type(e).__name__}: {e})"
        if msg:
            fails.append(msg)
    if len(rows) != cells:
        fails += [f"sweep has {len(rows)} rows, want {cells}"] * abs(cells - len(rows))
    return fails, max(cells, len(rows))


def _grid_ticks(n):
    return -math.pi + 2.0 * math.pi * np.arange(n) / n


def check_dump_rows(rows: list, R: float, r: float, c: float, n: int) -> list:
    """Spot-check field-dump rows given as (row_index, [7 floats]) pairs.

    h and v are recomputed independently: v is the projection of the
    tangent frame on the unit Bloch vector, not the CLI's closed form.
    """
    if not rows:
        return []
    idx = np.array([i for i, _ in rows])
    got = np.array([vals for _, vals in rows])
    ticks = _grid_ticks(n)
    kx, ky = ticks[idx % n], ticks[idx // n]
    rho = _rho(ky, R, r)
    drho = -r * R * np.sin(ky) / rho
    h = np.stack([rho * np.cos(kx) + c, rho * np.sin(kx), r * np.sin(ky)])
    d_kx = np.stack([-rho * np.sin(kx), rho * np.cos(kx), np.zeros_like(kx)])
    d_ky = np.stack([drho * np.cos(kx), drho * np.sin(kx), r * np.cos(ky)])
    norm = np.sqrt(np.sum(h * h, axis=0))
    v = np.stack([np.sum(h * d_kx, axis=0) / norm, np.sum(h * d_ky, axis=0) / norm])
    want = np.vstack([kx, ky, h, v]).T
    bad = np.any(np.abs(got - want) > DUMP_TOL * (1.0 + np.abs(want)), axis=1)
    return [f"dump row {int(i)}: got {got[k].tolist()}, want {want[k].tolist()}" for k, i in enumerate(idx) if bad[k]]


def check_query(query: dict, rc: int, stdout: str) -> str | None:
    """Failure message for one single-shot CLI query, or None when it is right."""
    cmd, R, r, c = query["cmd"], query["R"], query["r"], query["c"]
    where = f"{cmd} R={R} r={r} c={c}"
    if query.get("expect_error"):
        return None if rc == 2 else f"{where}: exit {rc}, want 2"
    census = cmd in ("zeros", "euler")
    if census and rc == 2 and near_census_critical(R, r, c):
        return None
    if rc != 0:
        return f"{where}: exit {rc}, want 0"
    try:
        if cmd == "zeros":
            body, _, tail = stdout.rpartition("]")
            modes = json.loads(body + "]")
            if tail.strip() != "chi 0":
                return f"{where}: trailing line {tail.strip()!r}, want 'chi 0'"
            want = canonical_zeros(R, r, c)
            weights = [m["weight_num"] / m["weight_den"] for m in modes]
            if sum(w * m["index"] for w, m in zip(weights, modes)) != 0:
                return f"{where}: weighted index sum is not 0"
            if abs(sum(weights) - len(want)) > 1e-12:
                return f"{where}: {sum(weights)} canonical zeros, want {len(want)}"
            off = [m for m in modes if min(abs(_wrap(m["kx"])), math.pi - abs(_wrap(m["kx"]))) > 1e-6]
            if off:
                return f"{where}: zero off the lines kx in {{0, pi}}: {off[0]}"
        elif cmd == "euler":
            doc = json.loads(stdout)
            want = 1 + 2 * len(canonical_zeros(R, r, c))
            if doc != {"chi": 0, "zero_modes": want}:
                return f"{where}: {doc}, want chi 0 and {want} closed-zone modes"
        elif cmd == "chern":
            doc = json.loads(stdout)
            want = chern_number(R, r, c)
            method = "direct_quadrature" if query.get("method") == "direct" else "plaquette_solid_angle"
            if doc["value"] != want or doc["method"] != method:
                return f"{where}: value {doc['value']} method {doc['method']}, want {want} {method}"
            gap = analytic_gap(R, r, c)
            if abs(doc["gap_min"] - gap) > GAP_TOL * (1.0 + gap):
                return f"{where}: gap_min {doc['gap_min']} != analytic {gap!r}"
        elif cmd == "winding":
            doc = json.loads(stdout)
            want = expected_winding(R, r, c, query["cx"], query["cy"], query["radius"])
            if doc["w"] != want:
                return f"{where}: w = {doc['w']}, want {want}"
        else:
            return f"{where}: unknown query"
    except (ValueError, KeyError, TypeError) as e:
        return f"{where}: unreadable output ({type(e).__name__}: {e})"
    return None
