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
line i, where h and the velocity mirror those of their partner.  One
process formats each pair of nodes (``_row_plan``) and each pair of
lines (``_surface_line``) whose sin and cos mirror bit for bit once, and
writes bytes in order; the second line of a pair waits in an unlinked
temporary file until its turn (``_ky_lines``).
``KPoint.canonical`` reduces a single point to the fundamental domain
[-pi, pi)^2.

On the line kx = pi, the velocity zeros off ky in {0, pi} and the
stationary points of |h| are the roots u = cos ky in (-1, 1) of one cubic
(``_kx_pi_cubic``), written on s = r/R and g = c/R.  ``_kx_pi_roots``
solves it in closed form with ``math`` and is the one solver that the gap
minimum (``chern.gap_min``) and the zero census (``zeromode``) share.
There are two such roots when c lies in the window c_p < c < c_f between
the pitchfork and the fold (``zero_bifurcations``), and none otherwise;
``_phase`` decides where c lies against c_p and c_f exactly, on integers.
The gap closes at c = R -+ r (``gapless_boundary``).
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


def _phase(p: ModelParams) -> tuple:
    """The exact signs, +1, 0 or -1, of c R - (R^2 - r^2) and (3 R^2 + r^2)^3 - 27 c^2 R^4.

    They are the signs of c - c_p and c_f - c (``zero_bifurcations``), so
    (1, 1) is c_p < c < c_f.  Each float is n / 2^k (``as_integer_ratio``):
    over the largest denominator, R, r and c are integers, and Python ints
    decide both signs exactly.
    """
    R, r, c = p
    (R, a), (r, b), (c, d) = R.as_integer_ratio(), r.as_integer_ratio(), c.as_integer_ratio()
    k = max(a, b, d)
    R, r, c = R * (k // a), r * (k // b), c * (k // d)
    RR, rr = R * R, r * r
    past_pitchfork, below_fold = c * R - RR + rr, (3 * RR + rr) ** 3 - 27 * (c * RR) ** 2
    return (past_pitchfork > 0) - (past_pitchfork < 0), (below_fold > 0) - (below_fold < 0)


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


def _row_plan(kx_trig: tuple, kx_heads: list, mirror: dict) -> tuple:
    """How ``_surface_line`` lays out a ky line from the pairs in ``mirror``: (kx_trig, half, gather, fill).

    ``mirror`` maps node j of the second half to its partner n - j, whose
    hx, hz and vy are the same and whose hy and vx are negated, so that
    their strings differ by a sign.  A line computes and formats only the
    first ``half`` nodes and then the unpaired ones, whose sin and cos the
    returned ``kx_trig`` holds in that order.  A first-half row holds |hy|
    and vx > 0 and leaves its head and both signs to ``fill``.  ``gather``
    picks each node's row in kx order: its partner's row for a paired one.
    With no pairs, half = 0 and every node is formatted as it is.
    """
    sx, cx = kx_trig
    n = len(kx_heads)
    half = (n + 1) // 2 if mirror else 0
    rest = [j for j in range(half, n) if j not in mirror]
    rows = {j: half + k for k, j in enumerate(rest)} | mirror
    gather = [*range(half), *(rows[j] for j in range(half, n))]
    signs = [(b"-", b"")] * half + [(b"", b"-" if j in mirror else b"") for j in range(half, n)]
    fill = tuple(x for head, sign in zip(kx_heads, signs) for x in (head, *sign))
    nodes = [*range(half), *rest]
    return ([sx[j] for j in nodes], [cx[j] for j in nodes]), half, gather, fill


def _surface_line(p: ModelParams, plans: tuple, y: float, heads: tuple = ()) -> list:
    """The n rows of the dump at ky = y, each ending in a newline: a list of one line, or of two with ``heads``.

    The first of the ``plans`` (``_row_plan``) whose first half has hy < 0
    and vx > 0 lays out the line: the mirrored one, unless c = 0 or vx
    underflows to 0 there, and otherwise the plain one, which has no first
    half.  ``heads`` holds the ky strings of this line and of its mirror
    line at -ky, whose hx, hy and vx are the same and whose hz and vy are
    negated.  Then the rows are formatted once, with |hz| and |vy|, into a
    template that leaves ky, the sign of hz and the sign of each vy to the
    fill, and the template is filled once per line.
    """
    line = _trig_rho(y, p)
    for kx_trig, half, gather, fill in plans:
        m = len(kx_trig[0])
        hx, hy, vx, vy, _ = _bloch(kx_trig, [line] * m, p)
        if max(hy[:half], default=-1.0) < 0.0 < min(vx[:half], default=1.0):
            break
    values = [0.0] * (4 * m)
    values[0::4], values[1::4], values[2::4], values[3::4] = hx, hy, vx, vy
    values[1 : 4 * half : 4] = [-w for w in hy[:half]]
    # %% leaves the per-node values for the second pass, and %%%% the head,
    # ky and sign slots for the third
    if heads:
        values[3::4] = [abs(v) for v in vy]
        row = b"%%%%s,%%%%s,%%.17g,%%%%s%%.17g,%%%%s%.17g,%%%%s%%.17g,%%%%s%%.17g\n" % abs(line[3])
    else:
        # ky and hz are constant along the line
        row = b"%%%%s,%.17g,%%.17g,%%%%s%%.17g,%.17g,%%%%s%%.17g,%%.17g\n" % (y, line[3])
    rows = ((row * m) % tuple(values)).splitlines(True)
    template = b"".join([rows[g] for g in gather])
    if not heads:
        return [template % fill]
    n = len(gather)
    slots = [b""] * (6 * n)
    slots[0::6], slots[2::6], slots[4::6] = fill[0::3], fill[1::3], fill[2::3]
    vy = [vy[g] for g in gather]
    lines = []
    for head, s in zip(heads, (1.0, -1.0)):
        slots[1::6], slots[3::6] = [head] * n, [b"-" if s * line[3] < 0.0 else b""] * n
        slots[5::6] = [b"-" if s * v < 0.0 else b"" for v in vy]
        lines.append(template % tuple(slots))
    return lines


def _ky_lines(p: ModelParams, plans: tuple, ys: list, heads: list, mirror: dict) -> Iterator[bytes]:
    """Yield the ky lines of the dump in order, each as bytes.

    ``ys`` holds the ky values, ``heads`` their strings, and ``mirror`` maps
    line n - i to its partner i at -ky (``write_surface_csv``).
    The first line of a pair is formatted with its partner
    (``_surface_line``), which is appended to an unlinked temporary file,
    the spool, and read back at its own turn.  Every first line comes
    before every second one, so the spool is written, then read.  A failed
    spool raises ``SpoolError``, since nothing else here does I/O.
    """
    import tempfile

    n, held = len(ys), {}
    try:
        with tempfile.TemporaryFile() as spool:
            for j in range(n):
                if j in mirror:
                    offset, size = held.pop(j)
                    spool.seek(offset)
                    yield spool.read(size)
                elif n - j in mirror:
                    line, partner = _surface_line(p, plans, ys[j], (heads[j], heads[n - j]))
                    held[n - j] = spool.tell(), len(partner)
                    spool.write(partner)
                    yield line
                else:
                    yield from _surface_line(p, plans, ys[j])
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
    node n - i lies at -kx of node i, and line n - i at -ky of line i.
    Where their sin and cos say so bit for bit, which an odd sin and an
    even cos do for every pair, a pair of nodes is formatted once
    (``_row_plan``), and so is a pair of lines (``_surface_line``), so a
    quarter of the grid is formatted.  The n kx strings are formatted once
    per dump, and |hz| once per line or pair of lines.

    The header and then every line go to ``fh`` in order, as bytes from
    the formatting on.  The second line of each pair waits in an unlinked
    temporary file (``tempfile.TemporaryFile``, in ``TMPDIR``) until its
    turn: about half of the output, which the system frees when the dump
    ends, however it ends.  Memory holds one pair of lines at a time, so
    it does not grow with n^2.  A read or write of that file that fails
    raises ``SpoolError``; a failed write to ``fh`` raises as it is.
    """
    if n < 2:
        raise ValueError(f"grid size must be at least 2, got n={n}")
    ys = [math.pi * (2 * i - n) / n for i in range(n)]
    kx_trig = sx, cx = _kx_trig(ys)
    heads = [b"%.17g" % x for x in ys]
    # node n - i sits at -kx of node i, and line n - i at -ky of line i,
    # where sin and cos say so bit for bit
    mirror = {
        n - i: i for i in range(1, (n + 1) // 2) if (-sx[i]).hex() == sx[n - i].hex() and cx[i].hex() == cx[n - i].hex()
    }
    plans = _row_plan(kx_trig, heads, mirror), _row_plan(kx_trig, heads, {})
    fh.write(SURFACE_CSV_HEADER.encode() + b"\n")
    lines = _ky_lines(p, plans, ys, heads, mirror)
    try:
        for line in lines:
            fh.write(line)
    finally:
        # closes the spool now, also when a write to fh fails
        lines.close()
