"""Quantum torus two-band model: parameters and Bloch vector.

The Hamiltonian is H(k) = h(k) . sigma for the real three-component map

    h(k) = (rho(ky) cos kx + c,  rho(ky) sin kx,  r sin ky),
    rho(ky) = sqrt(r^2 sin^2 ky + (R + r cos ky)^2),

whose image is a closed genus-1 surface: the distance of h(k) from the
vertical axis through (c, 0, 0) oscillates between R - r and R + r, so
the surface is an embedded (slightly sheared) torus shifted by c >= 0
along the first axis.  The bands are E = +-|h(k)|.

Everything is smooth and 2*pi-periodic in kx and ky, and computed on
floats with ``math``.  At a fixed ky, h and the band velocity need only
(sin kx, cos kx) at each kx node and a few factors of ky, so the kernels
work on ky lines: ``_kx_trig`` evaluates sin kx and cos kx once per grid,
``_trig_rho`` the factors of ky once per line, and ``_bloch`` is the one
place that assembles h, |h| and the velocity from them, at every node of
one or many lines.  A point is a line with one node.  The field dump
(``write_surface_csv``), the winding loops (``winding``) and the unit
Bloch vector of the Chern sum (``chern``) are all written on ``_bloch``;
the zero census (``zeromode``) needs only ``_trig_rho``, since its zeros
lie where sin kx = 0.
``KPoint.canonical`` reduces a single point to the fundamental domain
[-pi, pi)^2.

On the line kx = pi, the velocity zeros off ky in {0, pi} and the
stationary points of |h| are the roots u = cos ky in (-1, 1) of one cubic
(``_kx_pi_cubic``), written on s = r/R and g = c/R.  ``_kx_pi_roots``
solves it in closed form with ``math`` and is the one solver that the gap
minimum (``chern.gap_min``) and the zero census (``zeromode``) share.
There are two such roots when c lies in the window c_p < c < c_f between
the pitchfork and the fold (``zero_bifurcations``), and none otherwise.
The gap closes at c = R -+ r (``gapless_boundary``).
"""

from __future__ import annotations

import collections
import contextlib
import math
import os
from typing import NamedTuple, TextIO

TWO_PI = 2.0 * math.pi
# Largest accepted |R|, |r| and |c|.  |h|^2 and the Hessian determinant,
# of order R^2, then stay below about 1e101, far from float overflow.
PARAM_MAX = 1e50
# Smallest accepted r, the mirror bound: R > r >= 1e-50 keeps |h|^2 and the
# Hessian determinant above about 1e-100, far from float underflow.  The
# kx = pi cubic (``_kx_pi_cubic``) is scale-free and needs neither bound.
PARAM_MIN = 1e-50
# Largest gap / R at which a point counts as a band touching, where the
# velocity is undefined: the winding loops and the census's fixed zeros.
EPS_GAP = 1e-9


def reduce_angle(x):
    """Reduce an angle into the half-open interval [-pi, pi)."""
    return (x + math.pi) % TWO_PI - math.pi


class ModelParams(collections.namedtuple("ModelParams", "R r c")):
    """Torus parameters: major radius R, tube radius r, axis shift c (default 0.0).

    Requires R > r > 0 so the image surface is embedded (never touches its
    own axis) and c >= 0, all at most ``PARAM_MAX``, and r at least
    ``PARAM_MIN``.  c = 0 is a legal surface but makes the first velocity
    component vanish identically; the zero-mode census rejects it.  An
    immutable named tuple: construction, ``_make``, ``_replace`` and
    unpickling (pickle protocol 2 and up) all run these checks.
    """

    __slots__ = ()

    def __new__(cls, R: float, r: float, c: float = 0.0):
        if not all(abs(x) <= PARAM_MAX for x in (R, r, c)) or 0.0 < r < PARAM_MIN:
            raise ValueError(
                f"parameters must be finite and at most {PARAM_MAX:.0e}, with r at least {PARAM_MIN:.0e}, "
                f"got R={R}, r={r}, c={c}"
            )
        if not r > 0.0:
            raise ValueError(f"tube radius r must be positive, got r={r}")
        if not R > r:
            raise ValueError(f"major radius must exceed tube radius (R > r), got R={R}, r={r}")
        if c < 0.0:
            raise ValueError(f"axis shift c must be nonnegative, got c={c}")
        return super().__new__(cls, R, r, c)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own _make, which _replace calls, bypasses __new__
        return cls(*iterable)


class KPoint(NamedTuple):
    """A crystal-momentum point, kx and ky in radians."""

    kx: float
    ky: float

    def canonical(self) -> "KPoint":
        """Equivalent representative in the fundamental domain [-pi, pi)^2."""
        return KPoint(reduce_angle(self.kx), reduce_angle(self.ky))


def _kx_trig(kx) -> tuple:
    """The lists (sin kx, cos kx) over the kx nodes ``kx``: computed once per grid."""
    return [math.sin(x) for x in kx], [math.cos(x) for x in kx]


def _trig_rho(ky: float, p: ModelParams) -> tuple:
    """The factors of one ky line, each computed once: (sin ky, cos ky, rho, hz, -c rho, c / rho, (r / R) cos ky).

    rho(ky) = sqrt(r^2 sin^2 ky + (R + r cos ky)^2) is the distance of h(k)
    from the shifted symmetry axis, at least R - r > 0, and hz = r sin ky.
    The last three are the velocity's factors of ky (``_bloch``).  rho's
    squares are products, as numpy's are (``x**2`` on a float is libm's
    pow), so that these floats carry the bits of the array forms in the
    test oracles.
    """
    sy, cy = math.sin(ky), math.cos(ky)
    a, b = p.r * sy, p.R + p.r * cy
    rho = math.sqrt(a * a + b * b)
    return sy, cy, rho, a, -rho * p.c, p.c / rho, (p.r / p.R) * cy


def _bloch(kx_trig: tuple, lines: list, p: ModelParams) -> tuple:
    """h, the band velocity and the gap |h| at each node: the lists (hx, hy, vx, vy, gap).

    ``kx_trig`` is ``_kx_trig`` of the nodes' kx and ``lines`` holds each
    node's ky factors (``_trig_rho``): the nodes of one ky line share one
    tuple, ``[_trig_rho(ky, p)] * n``, and hz = r sin ky is one of them.
    h = (rho cos kx + c, rho sin kx, r sin ky), and the velocity, the
    gradient of |h|, is

        vx = -c rho sin kx / |h|,
        vy = -(r R / |h|) (1 + (c / rho) cos kx - (r / R) cos ky) sin ky.

    No gap check: where |h| = 0 this raises ZeroDivisionError.
    """
    sx, cx = kx_trig
    c, b = p.c, -(p.r * p.R)
    hx, hy, vx, vy, gap = [], [], [], [], []
    for s, x, (sy, _, rho, z, a, k1, k2) in zip(sx, cx, lines):
        u, w = rho * x + c, rho * s
        g = math.sqrt(u * u + w * w + z * z)
        hx.append(u)
        hy.append(w)
        # + 0.0 folds negative zeros into plain zeros for stable serialization
        vx.append(a * s / g + 0.0)
        vy.append(b / g * (1.0 + k1 * x - k2) * sy + 0.0)
        gap.append(g)
    return hx, hy, vx, vy, gap


def zero_bifurcations(R: float, r: float) -> tuple:
    """The two axis shifts where the zero count changes: (c_p, c_f).

    On kx = pi the zeros off ky in {0, pi} solve g(u) = c, with
    g(u) = rho (1 - (r/R) u) and u = cos ky.  Since g(-1) = g(1) = c_p, a
    zero pair splits off each of (pi, 0) and (pi, pi) at the pitchfork c_p;
    the pairs merge again at the fold c_f, the maximum of g at u = -r/(3R).
    """
    return (R * R - r * r) / R, (R * R + r * r / 3.0) ** 1.5 / (R * R)


def gapless_boundary(R: float, r: float) -> tuple:
    """The two axis shifts where the gap closes: (R - r, R + r).

    There |h| vanishes at (pi, pi) and (pi, 0) respectively.  For c between
    them the image surface encloses the origin and the Chern number is +1;
    outside it is 0.
    """
    if not (R > r > 0.0):
        raise ValueError(f"requires R > r > 0, got R={R}, r={r}")
    return (R - r, R + r)


def _kx_pi_cubic(p: ModelParams) -> list:
    """Coefficients, highest power first, of (1 + s^2 + 2 s u)(1 - s u)^2 - g^2, s = r/R, g = c/R.

    This is (R^2 + r^2 + 2 R r u)(R - r u)^2 - c^2 R^2 over R^4.  Its roots
    u = cos ky in (-1, 1) are where rho (1 - (r/R) u) = c: the stationary
    points of |h| on kx = pi off ky in {0, pi}, and the zeros of v there.
    """
    s, g = p.r / p.R, p.c / p.R
    b = 2.0 * s**3
    return [b, s * s * (s * s - 3.0), -b, (1.0 - g) * (1.0 + g) + s * s]


def _kx_pi_roots(p: ModelParams) -> list:
    """The roots u in (-1, 1) of ``_kx_pi_cubic`` in closed form, each polished by one Newton step.

    There are two for c_p < c < c_f (``zero_bifurcations``) and none
    otherwise.  With w = u + s/3 measured from the fold point, where the
    cubic's left side is stationary, the cubic reads
    2 s^3 w^3 - s^2 (3 + s^2) w^2 + s^2 e = 0 with e > 0 inside the window,
    and y = sqrt(e) / w turns it into the depressed y^3 - (3 + s^2) y +
    2 s sqrt(e) = 0.  Its three real roots (trigonometric form) are the two
    wanted ones, y_0 > 0 and y_2 < 0, and y_1 >= 0, which lies beyond
    u = 1/s.  Where rounding at r -> R, c -> c_p leaves one real root,
    Cardano gives it: y_2, near u = -1.
    """
    c_p, c_f = zero_bifurcations(p.R, p.r)
    if not c_p < p.c < c_f:
        return []
    c3, c2, c1, c0 = _kx_pi_cubic(p)
    s = p.r / p.R
    u0 = -s / 3.0
    e = (((c3 * u0 + c2) * u0 + c1) * u0 + c0) / (s * s)
    if not e > 0.0:  # c_f rounded up past the fold
        return []
    m, sqrt_e = math.sqrt(1.0 + s * s / 3.0), math.sqrt(e)
    h, q = m**3, s * sqrt_e  # y^3 - 3 m^2 y + 2 q = 0
    if q < h:
        phi = math.acos(-q / h) / 3.0
        ys = (2.0 * m * math.cos(phi), 2.0 * m * math.cos(phi + 2.0 * math.pi / 3.0))
    else:
        t = (q + math.sqrt((q - h) * (q + h))) ** (1.0 / 3.0)
        ys = (-(t + m * m / t),)
    roots = []
    for y in ys:
        u = u0 + sqrt_e / y
        # one Newton step, Horner by hand
        u -= (((c3 * u + c2) * u + c1) * u + c0) / ((3.0 * c3 * u + 2.0 * c2) * u + c1)
        if abs(u) < 1.0:
            roots.append(u)
    return roots


SURFACE_CSV_HEADER = "kx,ky,hx,hy,hz,vx,vy"


def _surface_line(p: ModelParams, kx_trig: tuple, kx_heads: list, y: float) -> str:
    """The n rows of the dump at one ky, each ending in a newline."""
    n = len(kx_heads)
    line = _trig_rho(y, p)
    hx, hy, vx, vy, _ = _bloch(kx_trig, [line] * n, p)
    values = [0.0] * (4 * n)
    values[0::4], values[1::4], values[2::4], values[3::4] = hx, hy, vx, vy
    # ky and hz are constant along the line; %% leaves the per-node slots for the second pass
    tail = ",%.17g,%%.17g,%%.17g,%.17g,%%.17g,%%.17g\n" % (y, line[3])
    return (tail.join(kx_heads) + tail) % tuple(values)


def _send_odd_lines(fd: int, p: ModelParams, kx_trig: tuple, kx_heads: list, ys: list) -> None:
    """The helper process: send the odd ky lines through the pipe ``fd``, each after its length.

    It leaves only through ``os._exit``, so it never flushes the stdio
    buffers it inherited (the caller's unflushed header would be written
    twice) and never runs the caller's ``atexit`` hooks.  It exits 0 once
    every line is sent, and 1 otherwise: quietly when the caller has gone
    (EPIPE) or on Ctrl-C, after printing the traceback on stderr for any
    other error.
    """
    status = 1
    try:
        with open(fd, "wb") as pipe:
            for y in ys[1::2]:
                data = _surface_line(p, kx_trig, kx_heads, y).encode("ascii")
                pipe.write(len(data).to_bytes(8, "little"))
                pipe.write(data)
        status = 0
    except BrokenPipeError:
        pass
    except Exception:
        import traceback

        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(status)


def _receive_line(pipe) -> str | None:
    """The next line from the helper, or None if the helper ended before sending all of it."""
    head = pipe.read(8)
    if len(head) < 8:
        return None
    size = int.from_bytes(head, "little")
    data = pipe.read(size)
    return data.decode("ascii") if len(data) == size else None


def write_surface_csv(p: ModelParams, n: int, fh: TextIO) -> None:
    """Write h and the velocity on an n x n uniform grid over [-pi, pi)^2 as CSV.

    One row per node, ky the slow index and kx the fast one, floats with
    17 significant digits.  The velocity is defined at every node, even
    when the gap closes between them: sin kx vanishes on the grid only at
    kx = 0, where hx = rho + c > 0, so |h| > 0.

    Formatting the floats is nearly all the work, so it runs on two cores:
    one helper process, forked after the header is written, formats the
    odd ky lines and sends them through a pipe, while this process formats
    the even ones and writes every line in ky order.  The bytes and the row
    order are those of one process writing every line, which is what
    happens where ``os.fork`` does not exist.  Each process holds one ky
    line at a time and the pipe at most 1 MB, so memory does not grow with
    n^2.  The n kx strings are formatted once per dump and ky and hz once
    per line; only hx, hy, vx and vy are formatted per node.

    The helper is reaped before this returns or raises; on an error here
    (a closed stdout, a failed write, Ctrl-C) it is killed first.  If the
    helper fails, it prints its traceback on stderr and this raises
    RuntimeError, with the lines before the failure already written.
    """
    if n < 2:
        raise ValueError(f"grid size must be at least 2, got n={n}")
    ys = [-math.pi + TWO_PI * i / n for i in range(n)]
    kx_trig = _kx_trig(ys)
    kx_heads = ["%.17g" % x for x in ys]
    fh.write(SURFACE_CSV_HEADER + "\n")
    if not hasattr(os, "fork"):
        for y in ys:
            fh.write(_surface_line(p, kx_trig, kx_heads, y))
        return
    import fcntl

    r, w = os.pipe()
    # A pipe that holds several lines lets the helper run ahead instead of
    # taking turns with this process.  1 MB is Linux's default limit without
    # privileges; where the call is missing or refused, the dump is slower.
    with contextlib.suppress(AttributeError, OSError):
        fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, 1 << 20)
    pid = os.fork()
    if pid == 0:
        os.close(r)
        _send_odd_lines(w, p, kx_trig, kx_heads, ys)
    os.close(w)
    try:
        with open(r, "rb") as pipe:
            for i, y in enumerate(ys):
                line = _surface_line(p, kx_trig, kx_heads, y) if i % 2 == 0 else _receive_line(pipe)
                if line is None:
                    break
                fh.write(line)
    except BaseException:
        import signal

        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        # after an early end of the pipe, the helper has closed it on its way out
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if line is None or status != 0:
        raise RuntimeError(
            f"the helper process that formats the odd ky lines exited with status {status}"
            + (" before sending them all" if line is None else "")
        )
