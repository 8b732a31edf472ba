"""Exact rational reference for the 1-D piecewise-linear calculus, for tests.

Every float of a ``PwlFunction`` is read as the rational it is
(``fractions.Fraction``), and each operation is carried out in rationals, so
the reference shares none of the library's rounding. A function stands for
the interpolant of its breakpoints and values, with its tail slopes beyond
the outermost breakpoints and +inf past a truncated side; its ``slopes``
field is not read. Results are rationals, or ``INF`` off a domain.
"""

import bisect
import math
import sys
from fractions import Fraction

INF = math.inf
FLOAT_MAX = Fraction(sys.float_info.max)
TINY = Fraction(2.0 ** -1070)  # a few roundings below the normal range


class Exact:
    """A PwlFunction as rationals: breakpoints, values and tail slopes (None
    for a truncated side)."""

    def __init__(self, f):
        self.bp = [Fraction(b) for b in f.breakpoints]
        self.va = [Fraction(v) for v in f.values]
        self.sl = None if f.slope_left == -INF else Fraction(f.slope_left)
        self.sr = None if f.slope_right == INF else Fraction(f.slope_right)
        # the finite slopes: the tails that are not truncated and the secants
        inner = [(v2 - v1) / (b2 - b1) for b1, b2, v1, v2
                 in zip(self.bp, self.bp[1:], self.va, self.va[1:])]
        self.slopes = [m for m in (self.sl, *inner, self.sr) if m is not None]
        self.b_max = max(map(abs, self.bp))
        self.v_max = max(map(abs, self.va))
        self.m_max = max(map(abs, self.slopes), default=0)

    def __call__(self, x):
        bp, va = self.bp, self.va
        if x < bp[0]:
            return INF if self.sl is None else va[0] + self.sl * (x - bp[0])
        if x > bp[-1]:
            return INF if self.sr is None else va[-1] + self.sr * (x - bp[-1])
        i = bisect.bisect_right(bp, x) - 1
        if i == len(bp) - 1:
            return va[-1]
        return va[i] + (va[i + 1] - va[i]) / (bp[i + 1] - bp[i]) * (x - bp[i])

    def size(self, x=0):
        """A bound on the terms f(x) is computed from: max|v| + max|m| (max|b| + |x|)."""
        return self.v_max + self.m_max * (self.b_max + abs(x))

    def dual_size(self, y=0):
        """A bound on the terms of the conjugate at y: max|v| + max|b| (max|m| + |y|)."""
        return self.v_max + self.b_max * (self.m_max + abs(y))


def add(F, G):
    return lambda x: INF if INF in (F(x), G(x)) else F(x) + G(x)


def maximum(F, G):
    return lambda x: INF if INF in (F(x), G(x)) else max(F(x), G(x))


def crossings(F, G):
    """Every x where F - G changes sign between two of the breakpoints of
    F and G, or beyond them on a tail both are finite on."""
    pts = sorted(set(F.bp) | set(G.bp))
    out = []
    for a, b in zip(pts, pts[1:]):
        ends = F(a), G(a), F(b), G(b)
        if INF not in ends and (ends[0] - ends[1]) * (ends[2] - ends[3]) < 0:
            d1, d2 = ends[0] - ends[1], ends[2] - ends[3]
            out.append(a + d1 * (b - a) / (d1 - d2))
    for end, fm, gm, sign in ((pts[0], F.sl, G.sl, -1), (pts[-1], F.sr, G.sr, 1)):
        if fm is not None and gm is not None and fm != gm and INF not in (F(end), G(end)):
            x = end - (F(end) - G(end)) / (fm - gm)
            if (x - end) * sign > 0:
                out.append(x)
    return out


def conjugate(F):
    """y -> sup_x (x y - F(x)): the max over the breakpoints inside the slope
    range, +inf outside it."""
    sup = breakpoint_sup(F)
    return lambda y: INF if ((F.sl is not None and y < F.sl)
                             or (F.sr is not None and y > F.sr)) else sup(y)


def breakpoint_sup(F):
    """y -> max of b y - v over the breakpoints, taken in integers over the
    common denominators db of the breakpoints and dv of the values, which
    keeps it fast at thousands of breakpoints."""
    db = max(b.denominator for b in F.bp)
    dv = max(v.denominator for v in F.va)
    B = [b.numerator * (db // b.denominator) for b in F.bp]
    V = [v.numerator * (dv // v.denominator) for v in F.va]

    def sup(y):
        p, q = y.numerator * dv, db * y.denominator
        return Fraction(max(b * p - v * q for b, v in zip(B, V)), q * dv)
    return sup


def inf_convolution(F, G):
    """x -> min over the splits x = x1 + x2 with x1 a kink of F or x2 a kink
    of G, where the infimum is attained (the slope ranges of F and G meet)."""
    def box(x):
        at = [F(b) + G(x - b) for b in F.bp] + [F(x - c) + G(c) for c in G.bp]
        finite = [v for v in at if v != INF]
        return min(finite) if finite else INF
    return box


def slope_overlap(F, G):
    """The width of the common slope range, negative where there is none:
    F box G is -inf everywhere then."""
    lo = max(-INF if F.sl is None else F.sl, -INF if G.sl is None else G.sl)
    hi = min(INF if F.sr is None else F.sr, INF if G.sr is None else G.sr)
    return hi - lo


def monge_ampere(F):
    """The slope jump at each breakpoint, zero jumps included."""
    seq = F.slopes
    return dict(zip(F.bp, (m2 - m1 for m1, m2 in zip(seq, seq[1:]))))


def agrees(got, want, scale, merge=0):
    """A float from the library against an exact value: +inf for +inf, and
    otherwise within 1e-12 scale + merge (+ TINY), where scale bounds the
    terms the value is computed from. Where the value is within that of the
    float range or beyond it, the signed infinity also agrees; where the
    terms leave the float range, anything but nan does."""
    if got != got:
        return False
    if want == INF:
        return got == INF
    tol = Fraction(1e-12) * scale + merge + TINY
    if got in (INF, -INF):
        return (got > 0) == (want > 0) and (abs(want) + tol >= FLOAT_MAX or scale > FLOAT_MAX)
    return abs(want) <= FLOAT_MAX and (scale > FLOAT_MAX or abs(Fraction(got) - want) <= tol)
