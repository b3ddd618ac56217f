"""Tests of the benchmark's own parts: the reference checker, the seed rules
and the span bookkeeping.  Run with ``python3 -m pytest perfbench``."""

import math
import sys
import time
import types

import reference
import spans
import workloads

HEADER = reference.SWEEP_HEADER


def _closed_form_v(kx, ky, R, r, c):
    """Closed-form velocity, written out separately from reference.py."""
    rho = math.sqrt((r * math.sin(ky)) ** 2 + (R + r * math.cos(ky)) ** 2)
    e = math.sqrt(rho * rho + c * c + 2 * c * rho * math.cos(kx) + (r * math.sin(ky)) ** 2)
    vx = -rho * c * math.sin(kx) / e
    vy = -(r * R / e) * (1 + (c / rho) * math.cos(kx) - (r / R) * math.cos(ky)) * math.sin(ky)
    return rho, vx, vy


def _check(quantity, body, cells=None):
    cells = body.count("\n") if cells is None else cells
    return reference.check_sweep_csv(HEADER + "\n" + body, quantity, cells)[0]


def _gap(c):
    return repr(reference.analytic_gap(3.0, 1.0, c))


def test_accepts_correct_euler_cells():
    body = (
        f"3,1,0,,,{_gap(0.0)},degenerate\n"
        f"3,1,1.2,,0,{_gap(1.2)},ok\n"
        f"3,1,1.9990000000000001,,0,{_gap(1.999)},ok\n"  # at the threshold: either tag
        f"3,1,1.9995000000000001,,,{_gap(1.9995)},gapless\n"
        f"3,1,2,,,2.7383934913210134e-16,gapless\n"
        f"3,1,2.7,,,{_gap(2.7)},degenerate\n"  # within the census margin of the pitchfork
        f"3,1,5,,0,{_gap(5.0)},ok\n"
    )
    assert _check("euler", body) == []


def test_flags_known_wrong_euler_cells():
    # What sweep_euler printed for these cells: chi = -1 with status ok.
    for c in (2.0005, 3.999, 4.001):
        fails = _check("euler", f"3,1,{c!r},,-1,{_gap(c)},ok\n")
        assert len(fails) == 1, (c, fails)


def test_flags_wrong_tags_and_missing_cells():
    assert _check("euler", f"3,1,0,,0,{_gap(0.0)},ok\n")  # c = 0 must be degenerate
    assert _check("euler", f"3,1,1.2,,,{_gap(1.2)},degenerate\n")  # far from every critical value
    assert _check("euler", f"3,1,1.2,,0,{_gap(1.2)},ok\n", cells=2) == ["sweep has 1 rows, want 2"]
    assert _check("euler", f"3,1,1.2,,0,0.5,ok\n")  # wrong gap_min
    assert _check("euler", "3,1,,,0,0.5,ok\n")  # unreadable row


def test_chern_cells():
    good = f"3,1,1,0,,{_gap(1.0)},ok\n3,1,3,1,,{_gap(3.0)},ok\n3,0.5,2.5,,,4.4e-16,gapless\n"
    assert _check("chern", good) == []
    assert len(_check("chern", f"3,1,3,0,,{_gap(3.0)},ok\n3,1,4.0005,0,,{_gap(4.0005)},ok\n")) == 2


def test_dump_rows_against_closed_form():
    R, r, c, n = 3.0, 1.0, 1.5, 8
    rows = []
    for i in (0, 9, 63):
        kx = -math.pi + 2 * math.pi * (i % n) / n
        ky = -math.pi + 2 * math.pi * (i // n) / n
        rho, vx, vy = _closed_form_v(kx, ky, R, r, c)
        rows.append((i, [kx, ky, rho * math.cos(kx) + c, rho * math.sin(kx), r * math.sin(ky), vx, vy]))
    assert reference.check_dump_rows(rows, R, r, c, n) == []
    rows[1][1][5] += 1e-6
    assert len(reference.check_dump_rows(rows, R, r, c, n)) == 1


def test_queries():
    q = {"cmd": "euler", "R": 3.0, "r": 1.0, "c": 3.0}
    assert reference.check_query(q, 0, '{"chi": 0, "zero_modes": 17}') is None
    assert reference.check_query(q, 0, '{"chi": 0, "zero_modes": 9}')
    assert reference.check_query(q, 1, "")
    assert reference.check_query({**q, "c": 2.7}, 2, "") is None  # near the pitchfork
    assert reference.check_query({**q, "c": 0.0, "expect_error": True}, 2, "") is None
    assert reference.check_query({**q, "c": 0.0, "expect_error": True}, 0, "{}")
    w = {"cmd": "winding", "R": 3.0, "r": 1.0, "c": 1.0, "cx": 0.0, "cy": 0.0, "radius": 0.3}
    assert reference.check_query(w, 0, '{"w": 1}') is None
    assert reference.check_query({**w, "cx": math.pi / 2}, 0, '{"w": 1}')


def test_seed_rules():
    for seed in range(12):
        assert workloads.build("point-queries", seed) == workloads.build("point-queries", seed)
        chern = workloads.build("sweep-chern-2d", seed)[0]["argv"]
        r_axis = chern[chern.index("--axis", chern.index("--axis") + 1) + 1].split(":")
        stop = float(r_axis[2])
        rs = [0.5 + k * (stop - 0.5) / 4 for k in range(5)]
        cs = [0.2 + k * 0.1 for k in range(57)]
        gaps = sorted(reference.analytic_gap(3.0, r, c) for r in rs for c in cs)
        assert gaps[1] < 1e-12 and 0 < gaps[2] and gaps[5] < 1e-3 - reference.THRESHOLD_BAND

        euler = workloads.build("sweep-euler-1d", seed)
        axes = [inv["argv"][inv["argv"].index("--axis") + 1].split(":") for inv in euler]
        assert ["c", "0.0", "5.8", "59"] in axes
        for _, start, stop, steps in axes:
            if steps == "5":
                mid = (float(start) + float(stop)) / 2
                assert reference.analytic_gap(3.0, 1.0, mid) < 1e-12
                # The nearest gapped zoom cell is outside the known defect's band.
                near = (float(start) + mid) / 2
                assert 2.5e-3 <= reference.analytic_gap(3.0, 1.0, near) <= 4e-3 + 1e-9


def test_known_defect_probe_holds_wrong_cells():
    # The probe's cells with what sweep_euler prints for them: 6 of 8 are wrong.
    rows = []
    for inv in workloads.KNOWN_DEFECT["sweep-euler-1d"]:
        _, start, stop, steps = inv["argv"][inv["argv"].index("--axis") + 1].split(":")
        n = int(steps)
        for k in range(n):
            c = float(start) + k * (float(stop) - float(start)) / (n - 1)
            gap = reference.analytic_gap(3.0, 1.0, c)
            if gap < 1e-12:
                rows.append(f"3,1,{c!r},,,{gap!r},gapless\n")
            else:
                rows.append(f"3,1,{c!r},,{-1 if c > 3 else 0},{gap!r},ok\n")
    assert len(_check("euler", "".join(rows))) == 6


def test_spans_rebind_every_name_and_split_self_time():
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")

    def inner():
        time.sleep(0.01)

    def outer():
        time.sleep(0.01)
        a.inner()

    inner.__module__ = outer.__module__ = "fakepkg.a"
    a.inner, a.outer, b.inner = inner, outer, inner
    saved = {n: sys.modules.get(n) for n in ("fakepkg", "fakepkg.a", "fakepkg.b")}
    sys.modules.update({"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b})
    try:
        tracer = spans.install("fakepkg")
        assert b.inner is a.inner and b.inner is not inner
        t0 = time.perf_counter()
        a.outer()
        outer_span = time.perf_counter() - t0
        b.inner()
        funcs = tracer.summary()["functions"]
    finally:
        for n, m in saved.items():
            if m is None:
                sys.modules.pop(n, None)
            else:
                sys.modules[n] = m
    assert funcs["a.inner"]["calls"] == 2 and funcs["a.outer"]["calls"] == 1
    # outer's self time is its span minus the inner call it made
    assert 0.009 < funcs["a.outer"]["self_s"] < outer_span - 0.009
    assert 0.018 < funcs["a.inner"]["self_s"]
