"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import math
import time
from fractions import Fraction

import numpy as np

from blochflow import (
    KPoint,
    LoopSpec,
    ModelParams,
    SweepAxis,
    ZeroKind,
    chern_direct,
    chern_plaquette,
    euler_characteristic,
    gap_min,
    sweep_chern,
    sweep_euler,
    winding_hermitian,
)
from blochflow.cli import closed_zone_records
from blochflow.errors import DegenerateField, GaplessModel
from blochflow.field import velocity_and_gap

from oracles import (
    brute_zero_census,
    fd_energy_gradient,
    generic_velocity_and_gap,
    pointwise,
    random_gapped_params,
    torus_distance,
)

P1 = ModelParams(3, 1, 1)
PI = math.pi


def _report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name} failed {detail}"


def _closed_zone(p):
    """The `zeros` records of p: every closed-zone copy with its weight."""
    return closed_zone_records(euler_characteristic(p).modes)


def _weight(rec):
    return Fraction(rec["weight_num"], rec["weight_den"])


def test_criterion_1_zero_mode_census():
    t0 = time.perf_counter()
    records = _closed_zone(P1)
    elapsed = time.perf_counter() - t0

    expected = {
        (0.0, 0.0): (ZeroKind.SINK, Fraction(1)),
        (-PI, -PI): (ZeroKind.SOURCE, Fraction(1, 4)),
        (-PI, PI): (ZeroKind.SOURCE, Fraction(1, 4)),
        (PI, -PI): (ZeroKind.SOURCE, Fraction(1, 4)),
        (PI, PI): (ZeroKind.SOURCE, Fraction(1, 4)),
        (0.0, -PI): (ZeroKind.SADDLE, Fraction(1, 2)),
        (0.0, PI): (ZeroKind.SADDLE, Fraction(1, 2)),
        (-PI, 0.0): (ZeroKind.SADDLE, Fraction(1, 2)),
        (PI, 0.0): (ZeroKind.SADDLE, Fraction(1, 2)),
    }
    ok = len(records) == 9
    detail = f"({len(records)} representatives, {elapsed * 1e3:.0f} ms)"
    if ok:
        for (ex, ey), (kind, weight) in expected.items():
            hits = [
                (rec["kind"], _weight(rec))
                for rec in records
                if math.hypot(rec["kx"] - ex, rec["ky"] - ey) <= 1e-9
            ]
            if hits != [(kind.value, weight)]:
                ok = False
                detail = f"(mismatch at ({ex:.3f}, {ey:.3f}))"
                break
    if ok and elapsed >= 1.0:
        ok = False
        detail = f"(too slow: {elapsed:.2f} s)"
    _report("1 zero-mode census", ok, detail)


def test_criterion_2_euler_characteristic():
    t0 = time.perf_counter()

    res = euler_characteristic(P1)
    sums = {}
    for rec in _closed_zone(P1):
        sums[rec["kind"]] = sums.get(rec["kind"], Fraction(0)) + _weight(rec) * rec["index"]
    exact_ok = (
        res.chi == 0
        and sums[ZeroKind.SINK.value] == Fraction(1)
        and sums[ZeroKind.SOURCE.value] == Fraction(1)
        and sums[ZeroKind.SADDLE.value] == Fraction(-2)
    )

    # 50 gapped parameter sets; three sit inside the extra-zero window
    # (8/3, ~3.168) at R=3, r=1 where the census exceeds 9 entries
    window_sets = [(3.0, 1.0, 2.8), (3.0, 1.0, 3.0), (3.0, 1.0, 3.1)]
    rng = np.random.default_rng(20260810)
    param_sets = window_sets + random_gapped_params(rng, 47)
    sweep_ok = True
    for R, r, c in param_sets:
        if euler_characteristic(ModelParams(R, r, c)).chi != 0:
            sweep_ok = False
            break

    # census completeness for the window sets against the brute-force
    # 2048^2 sign-scan oracle
    oracle_ok = True
    for R, r, c in ((3.0, 1.0, 3.0), (3.0, 1.0, 3.1)):
        p = ModelParams(R, r, c)
        brute = brute_zero_census(p, 2048)
        mine = sorted(
            (z.location.kx, z.location.ky)
            for z in euler_characteristic(p).modes
        )
        if len(brute) != len(mine) or any(
            float(torus_distance(a[0], a[1], b[0], b[1])) >= 1e-6
            for a, b in zip(brute, mine)
        ):
            oracle_ok = False
            break

    elapsed = time.perf_counter() - t0
    ok = exact_ok and sweep_ok and oracle_ok and elapsed < 30.0
    _report(
        "2 Euler characteristic",
        ok,
        f"(exact={exact_ok}, sweep50={sweep_ok}, oracle2048={oracle_ok}, {elapsed:.1f} s)",
    )


def test_criterion_3_chern_phase_structure():
    t0 = time.perf_counter()
    expectations = {0.5: 0, 1.0: 0, 1.5: 0, 2.5: 1, 3.0: 1, 3.5: 1, 4.5: 0, 5.0: 0}
    ok = True
    detail = ""
    for c, want in expectations.items():
        p = ModelParams(3, 1, c)
        plaq = chern_plaquette(p)
        direct = chern_direct(p)
        if not (
            plaq.value == want
            and direct.value == want
            and abs(plaq.raw - want) <= 1e-9
            and abs(direct.raw - want) <= 1e-3
        ):
            ok = False
            detail = f"(c={c}: plaquette {plaq.raw}, direct {direct.raw}, want {want})"
            break
    gap2 = gap_min(ModelParams(3, 1, 2))
    gap4 = gap_min(ModelParams(3, 1, 4))
    if ok and not (gap2 < 1e-6 and gap4 < 1e-6):
        ok = False
        detail = f"(gap_min at closings: {gap2:.2e}, {gap4:.2e})"
    elapsed = time.perf_counter() - t0
    if ok and elapsed >= 10.0:
        ok = False
        detail = f"(too slow: {elapsed:.1f} s)"
    _report("3 Chern phase structure", ok, detail or f"({elapsed:.1f} s)")


def test_criterion_4_velocity_equivalence():
    t = np.linspace(-PI, PI, 101)
    kx, ky = np.meshgrid(t, t, indexing="ij")
    vx1, vy1, _ = pointwise(velocity_and_gap, kx, ky, P1)
    vx2, vy2, _ = generic_velocity_and_gap(kx, ky, P1)
    dual = max(float(np.max(np.abs(vx1 - vx2))), float(np.max(np.abs(vy1 - vy2))))
    gx, gy = fd_energy_gradient(kx, ky, P1, step=1e-4)
    grad = max(float(np.max(np.abs(vx1 - gx))), float(np.max(np.abs(vy1 - gy))))
    ok = dual <= 1e-10 and grad <= 1e-6
    _report("4 velocity equivalence", ok, f"(dual {dual:.2e}, gradient {grad:.2e})")


def test_criterion_5_winding_equals_index():
    ok = True
    detail = ""
    for z in euler_characteristic(P1).modes:
        w = winding_hermitian(LoopSpec.circle(z.location, 0.3), P1).w
        if w != z.index:
            ok = False
            detail = f"(w={w} vs index={z.index} at {z.location})"
            break
    if ok:
        empty = winding_hermitian(LoopSpec.circle(KPoint(1.5, 1.5), 0.3), P1).w
        if empty != 0:
            ok = False
            detail = f"(empty loop w={empty})"
    _report("5 winding equals index", ok, detail)


def test_criterion_6_error_paths():
    ok = True
    detail = ""
    try:
        euler_characteristic(ModelParams(3, 1, 0))
        ok, detail = False, "(c=0 census returned instead of raising)"
    except DegenerateField:
        pass
    for c in (2.0, 4.0):
        try:
            euler_characteristic(ModelParams(3, 1, c))
            ok, detail = False, f"(c={c} census returned instead of raising)"
        except GaplessModel:
            pass
        try:
            chern_plaquette(ModelParams(3, 1, c))
            ok, detail = False, f"(c={c} chern returned instead of raising)"
        except GaplessModel:
            pass
    if ok:
        grid = sweep_euler([SweepAxis("c", 0.0, 4.0, 3)], P1)
        statuses = [cell.status for cell in grid.cells]
        values = [(cell.chern, cell.chi) for cell in grid.cells]
        if statuses != ["degenerate", "gapless", "gapless"]:
            ok, detail = False, f"(sweep statuses {statuses})"
        elif any(v != (None, None) for v in values):
            ok, detail = False, "(tagged cells still carry numeric output)"
    if ok:
        grid = sweep_chern([SweepAxis("c", 2.0, 4.0, 2)], P1)
        if [cell.status for cell in grid.cells] != ["gapless", "gapless"]:
            ok, detail = False, "(chern sweep missed gapless tags)"
    _report("6 error paths", ok, detail)
