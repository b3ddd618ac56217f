"""Workload inputs, generated from the seed.

A workload is a list of CLI invocations that one pass runs in order.
Every pass of a run repeats the same list, so outputs can be compared
byte for byte between passes.  The seed only moves inputs inside ranges
that keep the work per pass the same, so that runs with different seeds
can be compared:

* sweep-chern-2d: the c axis is c:0.2:5.8:57 (step 0.1) and the r axis is
  r:0.5:(1.5 + e):5 with e drawn from [2e-4, 8e-4].  r = 0.5 puts the
  closings c = R -+ r exactly on the c grid; r = 1 + e/2 and 1.5 + e put
  them 1e-4 to 8e-4 away from it.
* sweep-euler-1d: c:0:5.8:59 (c = 0 and both closings on the grid), and
  around each closing c* one zoom axis c:(c* - a):(c* + a):5 with a drawn
  from [5e-3, 8e-3], so the zoom cells sit at c*, c* -+ a/2, c* -+ a.
  Closer zoom cells would hit the known defect that KNOWN_DEFECT probes
  instead (see below).
* field-dump: grids of 256 and 512 nodes per axis; R, r, c drawn from the
  gapped region, at least 0.1 away from c = R -+ r.
* point-queries: one query of each kind, parameters drawn from the seed
  at least 0.1 from every gap closing and 0.1 from every census critical
  value, plus a gapless query and a c = 0 query that must exit 2.

The order of the invocations in a pass is shuffled by the seed.
"""

from __future__ import annotations

import math
import random

R0, r0 = 3.0, 1.0

NAMES = ("sweep-chern-2d", "sweep-euler-1d", "field-dump", "point-queries")

# Critical values of g for (R, r) = (3, 1): the pitchfork and the fold.
_PITCHFORK = (R0 * R0 - r0 * r0) / R0
_FOLD = 3.1682004804590176


def _fmt(x: float) -> str:
    return repr(float(x))


def _model(R, r, c):
    return ["--R", _fmt(R), "--r", _fmt(r), "--c", _fmt(c)]


def _sweep(quantity, axes, R=R0, r=r0, c=1.0):
    argv = ["phase-diagram", "--quantity", quantity, *_model(R, r, c)]
    cells = 1
    for name, start, stop, steps in axes:
        argv += ["--axis", f"{name}:{_fmt(start)}:{_fmt(stop)}:{steps}"]
        cells *= steps
    return {"argv": argv, "out": "grid.csv", "kind": "sweep", "quantity": quantity, "items": cells}


def _away(rng, lo, hi, avoid, margin):
    """A value in [lo, hi] at least ``margin`` from every value in ``avoid``."""
    while True:
        x = round(rng.uniform(lo, hi), 6)
        if all(abs(x - a) >= margin for a in avoid):
            return x


def sweep_chern_2d(rng):
    e = rng.uniform(2e-4, 8e-4)
    return [_sweep("chern", [("c", 0.2, 5.8, 57), ("r", 0.5, 1.5 + e, 5)])]


def sweep_euler_1d(rng):
    invs = [_sweep("euler", [("c", 0.0, 5.8, 59)])]
    for closing in (R0 - r0, R0 + r0):
        a = rng.uniform(5e-3, 8e-3)
        invs.append(_sweep("euler", [("c", closing - a, closing + a, 5)]))
    return invs


# Inputs on which the program is known to be wrong, per workload.  They
# are run once before the timed passes, checked, and reported on their own:
# they do not count towards a run's ``correct``, ``attempted`` or
# ``failed``, because the timed passes must be inputs on which nothing
# fails.  sweep_euler applies no gapless threshold, so it tags cells with
# an analytic gap below 1e-3 "ok"; near c = R + r it also reports chi = -1
# up to about 2e-3 from the closing.  6 of these 8 cells are wrong.
KNOWN_DEFECT = {
    "sweep-euler-1d": [
        _sweep("euler", [("c", R0 - r0 - 5e-4, R0 - r0 + 5e-4, 3)]),
        _sweep("euler", [("c", R0 + r0 - 1.5e-3, R0 + r0 + 1.5e-3, 5)]),
    ],
}


def field_dump(rng):
    invs = []
    for n in (256, 512):
        R = round(rng.uniform(2.5, 3.5), 6)
        r = round(rng.uniform(0.5, 1.5), 6)
        c = _away(rng, 0.2, R + r + 1.0, (R - r, R + r), 0.1)
        invs.append(
            {
                "argv": ["field-dump", *_model(R, r, c), "--grid-n", str(n)],
                "out": "surface.csv",
                "kind": "dump",
                "params": (R, r, c),
                "n": n,
                "items": n,
            }
        )
    return invs


def _query(cmd, c, extra=(), R=R0, r=r0, **fields):
    return {
        "argv": [cmd, *_model(R, r, c), *extra],
        "out": None,
        "kind": "query",
        "query": {"cmd": cmd, "R": R, "r": r, "c": c, **fields},
        "items": 1,
    }


def point_queries(rng):
    critical = (R0 - r0, R0 + r0, _PITCHFORK, _FOLD)
    inside = _away(rng, _PITCHFORK + 0.1, _FOLD - 0.1, critical, 0.1)
    outside = _away(rng, 0.3, R0 - r0 - 0.1, critical, 0.1)
    # One census query in the 8-zero regime and one in the 4-zero regime.
    c_zeros, c_euler = (inside, outside) if rng.random() < 0.5 else (outside, inside)
    c_chern = _away(rng, 0.3, 5.5, critical[:2], 0.1)
    c_direct = _away(rng, 0.3, 5.5, critical[:2], 0.1)
    c_wind = _away(rng, 0.3, 5.5, critical, 0.1)
    # Loop around a fixed zero at (0, 0) or (0, pi) (no other zero is
    # within 0.5 of them), and a loop on kx = -+pi/2, where no zero lies.
    zy = rng.choice((0.0, math.pi))
    ny = round(rng.uniform(-math.pi, math.pi), 6)
    nx = rng.choice((-math.pi / 2, math.pi / 2))
    return [
        _query("zeros", c_zeros),
        _query("euler", c_euler),
        _query("chern", c_chern),
        _query("chern", c_direct, ["--method", "direct"], method="direct"),
        _query("winding", c_wind, [f"--center=0,{zy!r}", "--radius", "0.3"], cx=0.0, cy=zy, radius=0.3),
        _query("winding", c_wind, [f"--center={nx!r},{ny!r}", "--radius", "0.3"], cx=nx, cy=ny, radius=0.3),
        _query(rng.choice(("chern", "euler")), rng.choice((R0 - r0, R0 + r0)), expect_error=True),
        _query(rng.choice(("euler", "zeros")), 0.0, expect_error=True),
    ]


_BUILDERS = {
    "sweep-chern-2d": sweep_chern_2d,
    "sweep-euler-1d": sweep_euler_1d,
    "field-dump": field_dump,
    "point-queries": point_queries,
}


def build(name: str, seed: int) -> list:
    """The invocations of one pass of workload ``name`` for ``seed``."""
    rng = random.Random(f"{name}:{seed}")
    invs = _BUILDERS[name](rng)
    rng.shuffle(invs)
    return invs
