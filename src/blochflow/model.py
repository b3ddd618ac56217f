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
lie where sin kx = 0.  The dump's ticks are exactly symmetric: node
n - i of its grid lies at -kx of node i, and ky line n - i at -ky of
line i, where h and the velocity mirror those of their partner.  So one
layout, fixed by n, formats a quarter of the grid: a line computes and
formats its nodes 0 to n // 2 once, and it and its mirror line are each
one join of those strings (``_surface_line``).  One process writes bytes
in order; the second line of a pair waits in an unlinked temporary file
until its turn (``_ky_lines``).
``KPoint.canonical`` reduces a single point to the fundamental domain
[-pi, pi)^2.

On the line kx = pi, the velocity zeros off ky in {0, pi} and the
stationary points of |h| are the roots u = cos ky in (-1, 1) of one cubic
(``_kx_pi_cubic``): two between the pitchfork c_p and the fold c_f
(``zero_bifurcations``), else none.  The gap closes at c = R -+ r
(``gapless_boundary``), and R - r < c_p < c_f < R + r.  ``_phase`` places c
among these four exactly, as one of nine positions; C, the zero count and
the kinds follow from it, and only at its position 4 is the cubic solved
(``_kx_pi_roots``), once per sweep cell for ``chern.gap_min`` and ``zeromode``.
"""

from __future__ import annotations

import collections
import math
from typing import BinaryIO, Iterator, NamedTuple

from .errors import SpoolError

TWO_PI = 2.0 * math.pi
# Largest accepted |R|, |r| and |c|.  |h|^2 and the Hessian determinant,
# of order R^2, then stay below about 1e101, far from float overflow.
PARAM_MAX = 1e50
# Smallest accepted r, the mirror bound: R > r >= 1e-50 keeps |h|^2 and the
# Hessian determinant above about 1e-100, far from float underflow.  The
# kx = pi cubic (``_kx_pi_cubic``) is scale-free and needs neither bound.
PARAM_MIN = 1e-50
# Largest gap / R at which a point of a winding loop counts as a band
# touching, where the velocity is undefined.  The census needs no such band.
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
        if not (abs(R) <= PARAM_MAX and abs(r) <= PARAM_MAX and abs(c) <= PARAM_MAX) or 0.0 < r < PARAM_MIN:
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


def _phase(p: ModelParams) -> int:
    """Where c lies among R - r < c_p < c_f < R + r, exactly: an int from 0 to 8.

    2 k lies strictly between the k-th critical value and the next (0 is
    c < R - r, 4 is c_p < c < c_f, 8 is c > R + r), and 2 k + 1 at the next.
    With R -+ r = s + t exactly (Fast TwoSum), the float (c - s) - t has the
    sign of c - (R -+ r) (Sterbenz).  c R - R^2 + r^2 and (3 R^2 + r^2)^3 -
    27 c^2 R^4 have the signs of c - c_p and c_f - c: in floats beyond 1e-14
    times their terms, else on ints, as 2^1100 x is one for every float x.
    """
    R, r, c = p
    s, t = R - r, R + r
    past_lo, past_hi = (c - s) + (r + (s - R)), (c - t) - (r - (t - R))
    if not past_lo > 0.0 > past_hi:
        return 1 - (past_lo < 0.0) if past_lo <= 0.0 else 7 + (past_hi > 0.0)
    RR, rr, cR = R * R, r * r, c * R
    pitchfork, bound = cR - RR + rr, 1e-14 * (cR + RR)
    if pitchfork < -bound:
        return 2
    a, b = (3.0 * RR + rr) ** 3, 27.0 * (cR * R) ** 2
    if pitchfork > bound and abs(a - b) > 1e-14 * (a + b):
        return 4 if a > b else 6
    R, r, c = (n * 2**1100 // d for n, d in (x.as_integer_ratio() for x in p))
    pitchfork, a, b = c * R - R * R + r * r, (3 * R * R + r * r) ** 3, 27 * (c * R * R) ** 2
    return 4 + (pitchfork > 0) - (pitchfork < 0) - (a > b) + (a < b)


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

    It is called only for c_p < c < c_f, the phase 4 of ``_phase``, where
    there are two.  With w = u + s/3 measured from the fold point, where the
    cubic's left side is stationary, the cubic reads
    2 s^3 w^3 - s^2 (3 + s^2) w^2 + s^2 e = 0 with e > 0 for c < c_f,
    and y = sqrt(e) / w turns it into the depressed y^3 - (3 + s^2) y +
    2 s sqrt(e) = 0.  Its three real roots (trigonometric form) are the two
    wanted ones, y_0 > 0 and y_2 < 0, and y_1 >= 0, which lies beyond
    u = 1/s.  Where rounding at r -> R, c -> c_p leaves one real root,
    Cardano gives it: y_2, near u = -1.
    """
    c3, c2, c1, c0 = _kx_pi_cubic(p)
    s = p.r / p.R
    u0 = -s / 3.0
    e = (((c3 * u0 + c2) * u0 + c1) * u0 + c0) / (s * s)
    if not e > 0.0:  # the float cubic lost the root pair, within rounding of c_f
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


def _surface_line(p: ModelParams, plan: tuple, y: float, heads: tuple) -> list:
    """The n rows of the dump at ky = y, each ending in a newline, once per ky string in ``heads``.

    ``plan`` (``write_surface_csv``) holds the sin and cos of the own nodes
    and the dump's list of 10 pieces per row, whose kx strings and hy signs
    are set once per dump.  ``heads`` holds the ky string of this line and,
    for a pair, of its mirror line at -ky, whose hx, hy and vx are the same
    and whose hz and vy are negated.  hx, |hy|, vx and |vy| of the own nodes
    are formatted once, with one % per field split into per-node strings;
    the mirrored nodes' rows take them by list slicing.  Each line is one
    join of the pieces, and the mirror line re-places only its ky, hz and
    vy sign pieces.
    """
    kx_trig, rows = plan
    line = _trig_rho(y, p)
    m, n = len(kx_trig[0]), len(rows) // 10
    hx, hy, vx, vy, _ = _bloch(kx_trig, [line] * m, p)
    for k, field in ((2, hx), (4, map(abs, hy)), (7, vx)):
        own = (b"%.17g,\n" * m % tuple(field)).splitlines()
        rows[k::10] = own + own[n - m : 0 : -1]
    own = (b"%.17g\n" * m % tuple(map(abs, vy))).splitlines(True)
    rows[9::10] = own + own[n - m : 0 : -1]
    # a partner's vx is its own node's, which is >= 0, negated; 0 keeps no sign
    rows[10 * m + 6 :: 10] = [b"-" if v > 0.0 else b"" for v in vx[n - m : 0 : -1]]
    hz = b"%.17g," % abs(line[3])
    lines = []
    for head, s in zip(heads, (1.0, -1.0)):
        signs = [b"-" if s * v < 0.0 else b"" for v in vy]
        rows[1::10], rows[5::10] = [head] * n, [(b"-" if s * line[3] < 0.0 else b"") + hz] * n
        rows[8::10] = signs + signs[n - m : 0 : -1]
        lines.append(b"".join(rows))
    return lines


def _ky_lines(p: ModelParams, plan: tuple, ys: list, heads: list) -> Iterator[bytes]:
    """Yield the ky lines of the dump in order, each as bytes.

    ``ys`` holds the ky values and ``heads`` their strings, each with its
    comma.  Line j, for 0 < j < n - j, is formatted with its partner n - j
    at -ky (``_surface_line``), which is appended to an unlinked temporary
    file, the spool, and read back at its own turn; lines 0 and n / 2
    stand alone.  Every first line comes before every second one, and the second
    lines come back in the reverse order of their writes, so the spool is
    written, then read, and its offsets are a stack.  A failed spool raises
    ``SpoolError``, since nothing else here does I/O.
    """
    import tempfile

    n, held = len(ys), []
    try:
        with tempfile.TemporaryFile() as spool:
            for j in range(n):
                if j > n // 2:
                    offset, size = held.pop()
                    spool.seek(offset)
                    yield spool.read(size)
                elif 0 < j < n - j:
                    line, partner = _surface_line(p, plan, ys[j], (heads[j], heads[n - j]))
                    held.append((spool.tell(), len(partner)))
                    spool.write(partner)
                    yield line
                else:
                    yield from _surface_line(p, plan, ys[j], (heads[j],))
    except OSError as e:
        where = f" {tempfile.tempdir}" if tempfile.tempdir else ""
        raise SpoolError(f"the field dump's spool in TMPDIR{where}: {e}") from e


def write_surface_csv(p: ModelParams, n: int, fh: BinaryIO) -> None:
    """Write h and the velocity on an n x n uniform grid over [-pi, pi)^2 as CSV to the binary file ``fh``.

    One row per node, ky the slow index and kx the fast one, floats with
    17 significant digits.  The velocity is defined at every node, even
    when the gap closes between them: sin kx vanishes on the grid only at
    kx = 0, where hx = rho + c > 0, so |h| > 0.

    Formatting the floats is nearly all the work, and the grid's mirrors
    save most of it.  The ticks pi (2 i - n) / n are exactly symmetric:
    node n - i lies at -kx of node i, and line n - i at -ky of line i, and
    sin is odd and cos even on them bit for bit.  So at every n a pair of
    nodes is computed and formatted once, and so is a pair of lines
    (``_surface_line``): a quarter of the grid.  The n kx strings and the
    hy signs are placed once per dump, and |hz| formatted once per line or
    pair of lines.

    The header and then every line go to ``fh`` in order, as bytes from
    the formatting on.  The second line of each pair waits in an unlinked
    temporary file (``tempfile.TemporaryFile``, in ``TMPDIR``) until its
    turn: about half of the output, which the system frees when the dump
    ends, however it ends.  Memory holds one pair of lines at a time: the
    two lines, the own nodes' strings and the list of 10 n pieces they are
    joined from, so it grows with n and not with n^2.  A read or write of
    that file that fails raises ``SpoolError``; a failed write to ``fh``
    raises as it is.
    """
    if n < 2:
        raise ValueError(f"grid size must be at least 2, got n={n}")
    ys = [math.pi * (2 * i - n) / n for i in range(n)]
    heads = [b"%.17g," % x for x in ys]
    # The own nodes are 0 to n // 2, where kx is in [-pi, 0], and node n - i
    # is node i mirrored for 0 < i < n - i.  Those nodes have hy < 0 and
    # vx >= 0 by construction: sin kx < 0 on (-pi, 0), and -c rho <= 0 as
    # rho >= R - r > 0.  Node 0 has no partner and may lie just below -pi,
    # where sin kx > 0, so each own node takes its hy sign from its sin.
    m = n // 2 + 1
    kx_trig = _kx_trig(ys[:m])
    # a row's 10 pieces, each value with the comma or newline after it:
    # kx, ky, hx, hy sign, |hy|, hz, vx sign, vx, vy sign, |vy|
    rows = [b""] * (10 * n)
    rows[0::10], rows[3 : 10 * m : 10] = heads, [b"-" if s < 0.0 else b"" for s in kx_trig[0]]
    fh.write(SURFACE_CSV_HEADER.encode() + b"\n")
    lines = _ky_lines(p, (kx_trig, rows), ys, heads)
    try:
        for line in lines:
            fh.write(line)
    finally:
        # closes the spool now, also when a write to fh fails
        lines.close()
