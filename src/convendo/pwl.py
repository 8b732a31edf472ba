"""Exact one-dimensional convex piecewise-linear calculus.

A :class:`PwlFunction` is a finite list of breakpoints with values plus two
tail slopes. A tail slope of ``-inf`` (left) or ``+inf`` (right) means the
function is ``+inf`` beyond the outermost breakpoint on that side, so finite
intervals, half-lines and all of the real line are representable domains.

The algebra (add, max, scale), the Legendre transform and inf-convolution are
closed on this class and exact up to float rounding, and each is linear in
the breakpoint count (up to sorting). The Moreau envelope is
evaluation-only: it returns a callable, not a new ``PwlFunction``.

The constructor validates its data; explicit ``slopes`` must agree with the
values. The operations build their outputs with ``PwlFunction._from_op``,
which validates everything but that agreement: their slopes are exact pieces
of their inputs, while their values carry the rounding of terms that can be
far larger than the values themselves (``v + m * (x - b)``, ``b * y - v``),
so no tolerance in the values' own scale tells the two apart.
"""

import bisect
import math

import numpy as np

from .errors import BadShape, EmptyDomain, NegativeScale, NonConvex
from .extreal import INF, MERGE_TOL


def _merge_close(points, values):
    """Collapse breakpoints within MERGE_TOL of each other, keeping max value."""
    out_p = [points[0]]
    out_v = [values[0]]
    for p, v in zip(points[1:], values[1:]):
        if p - out_p[-1] <= MERGE_TOL:
            out_v[-1] = max(out_v[-1], v)
        else:
            out_p.append(p)
            out_v.append(v)
    return out_p, out_v


class PwlFunction:
    """Convex piecewise-linear function with an optional truncated domain.

    Parameters
    ----------
    breakpoints, values : sequences of floats, same length >= 1
    slope_left : slope on ``(-inf, breakpoints[0]]``, or ``-inf`` for a
        truncated domain
    slope_right : slope on ``[breakpoints[-1], inf)``, or ``+inf``
    slopes : optional interior piece slopes; derived from secants if omitted.
        Operations pass exact slopes (through ``_from_op``) so that slope
        data never degrades through repeated secant recomputation. Slopes
        given here must agree with the
        values, |v2 - (v1 + m (b2 - b1))| <= 1e-9 max(1, |v1|, |v2|,
        |m| max(|b1|, |b2|)), or BadShape is raised.
    """

    __slots__ = ("breakpoints", "values", "slope_left", "slope_right", "slopes")

    def __init__(self, breakpoints, values, slope_left, slope_right, slopes=None):
        self._setup(breakpoints, values, slope_left, slope_right, slopes, True)

    @classmethod
    def _from_op(cls, breakpoints, values, slope_left, slope_right, slopes):
        """Validated construction of an operation's output, whose slopes are
        not checked against its values (see the module docstring)."""
        f = object.__new__(cls)
        f._setup(breakpoints, values, slope_left, slope_right, slopes, False)
        return f

    def _setup(self, breakpoints, values, slope_left, slope_right, slopes, agree):
        bp = [float(b) for b in breakpoints]
        va = [float(v) for v in values]
        if len(bp) != len(va) or len(bp) < 1:
            raise BadShape("breakpoints and values must have equal length >= 1")
        if any(not math.isfinite(b) for b in bp) or any(not math.isfinite(v) for v in va):
            raise BadShape("breakpoints and values must be finite")
        if any(b2 < b1 for b1, b2 in zip(bp, bp[1:])):
            raise BadShape("breakpoints must be sorted increasingly")
        if any(b2 - b1 <= MERGE_TOL for b1, b2 in zip(bp, bp[1:])):
            bp, va = _merge_close(bp, va)
            slopes = None
        slope_left = float(slope_left)
        slope_right = float(slope_right)
        if slope_left == INF or math.isnan(slope_left):
            raise BadShape("slope_left must be finite or -inf")
        if slope_right == -INF or math.isnan(slope_right):
            raise BadShape("slope_right must be finite or +inf")

        if slopes is None:
            slopes = [(v2 - v1) / (b2 - b1)
                      for b1, b2, v1, v2 in zip(bp, bp[1:], va, va[1:])]
            if bp[-1] - bp[0] == INF:  # a width may overflow: its secant in halves
                slopes = [m if b2 - b1 < INF else (v2 / 2 - v1 / 2) / (b2 / 2 - b1 / 2)
                          for m, b1, b2, v1, v2 in zip(slopes, bp, bp[1:], va, va[1:])]
        else:
            slopes = [float(m) for m in slopes]
            if len(slopes) != len(bp) - 1:
                raise BadShape("slopes length must be len(breakpoints) - 1")
            # in value space: a secant test would fail on tight breakpoint
            # gaps; the scale holds the terms values are computed from, and
            # an offset within 1e-9 passes before it is taken
            for b1, b2, v1, v2, m in zip(bp, bp[1:], va, va[1:], slopes) if agree else ():
                off = v2 - (v1 + m * (b2 - b1))
                if -1e-9 <= off <= 1e-9:
                    continue
                tol = 1e-9 * max(1.0, abs(v1), abs(v2), abs(m) * max(abs(b1), abs(b2)))
                if not abs(off) <= tol < INF:
                    raise BadShape(f"slope {m} on [{b1}, {b2}] disagrees with "
                                   f"the values {v1} and {v2}")

        seq = [slope_left] + slopes + [slope_right]
        scale = max([1.0] + [abs(m) for m in seq if math.isfinite(m)])
        for m1, m2 in zip(seq, seq[1:]):
            if m2 < m1 - 1e-9 * scale:
                raise NonConvex(f"slope sequence decreases: {m1} -> {m2}")

        self.breakpoints = tuple(bp)
        self.values = tuple(va)
        self.slopes = tuple(slopes)
        self.slope_left = slope_left
        self.slope_right = slope_right

    # -- basic queries ------------------------------------------------------

    @property
    def domain(self):
        lo = self.breakpoints[0] if self.slope_left == -INF else -INF
        hi = self.breakpoints[-1] if self.slope_right == INF else INF
        return (lo, hi)

    def __call__(self, x):
        if x != x:
            raise BadShape("cannot evaluate at nan")
        bp, va = self.breakpoints, self.values
        if x < bp[0]:
            return _line(va[0], self.slope_left, x, bp[0])
        if x > bp[-1]:
            return _line(va[-1], self.slope_right, x, bp[-1])
        i = bisect.bisect_right(bp, x) - 1
        if i == len(bp) - 1:
            return va[-1]
        return _line(va[i], self.slopes[i], x, bp[i])

    def eval_many(self, xs):
        """Vectorized evaluation: x reads va[a] + seq[j] (x - bp[a]), with j
        the count of breakpoints <= x, a = max(j - 1, 0) and seq the slope
        sequence, so a truncated tail's infinite slope gives +inf by itself;
        the last breakpoint and a flat tail's +-inf (0 * inf) read va[a], and
        an infinite x - bp[a] is taken in halves, as ``_line`` takes it."""
        xs = np.asarray(xs, dtype=float)
        if np.isnan(xs).any():
            raise BadShape("cannot evaluate at nan")
        bp = np.array(self.breakpoints)
        j = np.searchsorted(bp, xs, side="right")
        a = np.maximum(j - 1, 0)
        seq = np.array(self.slope_sequence())
        va = np.take(self.values, a)
        with np.errstate(invalid="ignore", over="ignore"):
            d = xs - bp[a]
            out = va + seq[j] * d
            wide = np.isinf(d)
            if wide.any():
                out = np.where(wide, va + 2.0 * (seq[j] * (xs / 2 - bp[a] / 2)), out)
        return np.where((xs == bp[-1]) | np.isnan(out), va, out)

    def slope_on(self, x):
        """Slope of the piece whose interior contains x (tails included); a
        breakpoint reads the piece on its right, the last one the piece on its
        left, and only a point domain has none."""
        bp = self.breakpoints
        if x < bp[0]:
            return self.slope_left
        if x > bp[-1]:
            return self.slope_right
        if self.slope_left == -INF and self.slope_right == INF and len(bp) == 1:
            raise EmptyDomain("point domain has no piece slopes")
        i = min(bisect.bisect_right(bp, x), len(bp) - 1)
        return self.slopes[i - 1] if i else self.slope_left

    def slope_sequence(self):
        return (self.slope_left,) + self.slopes + (self.slope_right,)

    def __repr__(self):
        return (f"PwlFunction(breakpoints={list(self.breakpoints)}, "
                f"values={list(self.values)}, slope_left={self.slope_left}, "
                f"slope_right={self.slope_right})")


def _line(v, m, x, b):
    """v + m (x - b) on a piece or tail from breakpoint b: +inf past a
    truncated side (m = -+inf), v on a flat one even at x = +-inf (not
    0 * inf), and v + 2 (m (x/2 - b/2)) where x - b overflows, as the
    constructor takes a secant in halves."""
    d = x - b
    if abs(d) < INF:
        return v + m * d
    return v if m == 0.0 else v + 2.0 * (m * (x / 2 - b / 2))


# -- canned functions --------------------------------------------------------

def pwl_abs():
    return PwlFunction([0.0], [0.0], -1.0, 1.0)


def pwl_hinge(y):
    """s -> (y - s)_+."""
    return PwlFunction([y], [0.0], -1.0, 0.0)


def hinge_values(y, p):
    """(y - p)_+ as ``pwl_hinge(y)(p)`` computes it, elementwise."""
    return np.where(p < y, y - p, 0.0)


def pwl_linear(a, b=0.0):
    """s -> a*s + b."""
    return PwlFunction([0.0], [float(b)], a, a)


def pwl_indicator(lo, hi):
    """0 on [lo, hi], +inf outside; lo == hi gives a point indicator."""
    if hi < lo:
        raise BadShape("indicator interval is empty")
    if hi - lo <= MERGE_TOL:
        return PwlFunction([lo], [0.0], -INF, INF)
    return PwlFunction([lo, hi], [0.0, 0.0], -INF, INF)


def is_even(p):
    """True iff p(-x) == p(x) for every x, to 1e-9 max(1, |p(x)|, |p(-x)|).

    The tails must mirror, and p must agree with its mirror image at every
    breakpoint b, which pairs p(b) with p(-b) at each mirrored breakpoint
    too. Both functions are linear between those points and on the tails
    beyond them, so the check is exact.
    """
    if p.slope_left != -p.slope_right:
        return False
    for b in p.breakpoints:
        u, v = p(b), p(-b)
        if u != v and not abs(u - v) <= 1e-9 * max(1.0, abs(u), abs(v)) < INF:
            return False
    return True


# -- algebra -----------------------------------------------------------------

def _common_grid(f, g):
    flo, fhi = f.domain
    glo, ghi = g.domain
    lo, hi = max(flo, glo), min(fhi, ghi)
    if not lo < hi:
        raise EmptyDomain("domain interiors are disjoint")
    pts = [b for b in f.breakpoints if lo <= b <= hi]
    pts += [b for b in g.breakpoints if lo <= b <= hi]
    if lo > -INF:
        pts.append(lo)
    if hi < INF:
        pts.append(hi)
    pts = sorted(set(pts))
    out = [pts[0]]
    for p in pts[1:]:
        if p - out[-1] > MERGE_TOL:
            out.append(p)
    return lo, hi, out


def _pieces(f, xs):
    """The piece of f that each of the xs lies on, for xs that do not
    decrease, in one forward pass over f's breakpoints: 0 is the left tail,
    j in 1..k-1 the piece from breakpoint j-1 to breakpoint j, k the last
    breakpoint itself and k + 1 the right tail (k breakpoints). A breakpoint
    belongs to the piece on its right, as in ``__call__`` and ``slope_on``."""
    bp = f.breakpoints
    k, last = len(bp), bp[-1]
    out = []
    j = 0  # breakpoints <= x
    for x in xs:
        while j < k and bp[j] <= x:
            j += 1
        out.append(j + 1 if j == k and x > last else j)
    return out


def _values(f, xs, pieces=None):
    """[f(x) for x in xs] from their ``_pieces`` (found here if not given),
    bit for bit; a piece wider than the float range is read by ``f``."""
    bp, va, ms = f.breakpoints, f.values, f.slopes
    if bp[-1] - bp[0] == INF:
        return [f(x) for x in xs]
    sl, sr, k = f.slope_left, f.slope_right, len(bp)
    out = []
    for x, j in zip(xs, _pieces(f, xs) if pieces is None else pieces):
        if 0 < j < k:
            out.append(va[j - 1] + ms[j - 1] * (x - bp[j - 1]))
        elif j == 0:
            out.append(_line(va[0], sl, x, bp[0]))
        elif j == k:
            out.append(va[-1])
        else:
            out.append(_line(va[-1], sr, x, bp[-1]))
    return out


def _slopes(f, pieces):
    """[f.slope_on(x) for x in xs] from their ``_pieces``: the last
    breakpoint reads the piece on its left. The operations never reach a
    point domain, whose interior is empty."""
    k = len(f.breakpoints)
    seq = f.slope_sequence()
    return [seq[j - (j >= k)] for j in pieces]


def _open_pieces(f, pts, mids, pieces=None):
    """The ``_pieces`` of the midpoints ``mids`` of neighbouring pts (found
    here if not given), except where a midpoint rounded onto an end: the ends
    are then neighbouring floats, and the interval lies on the piece right of
    the lower end. Points of a grid merged at MERGE_TOL are neighbouring
    floats only beyond MERGE_TOL * 2^52 (about 4504), where an ulp can exceed it."""
    pieces = _pieces(f, mids) if pieces is None else pieces
    if max(-pts[0], pts[-1]) <= MERGE_TOL * 2.0 ** 52:
        return pieces
    k, out = len(f.breakpoints), []
    for j, p, m, q in zip(pieces, pts, mids, pts[1:]):
        if m == p or m == q:
            j = bisect.bisect_right(f.breakpoints, p)
            j += j == k  # k + 1 is the right tail
        out.append(j)
    return out


def _midpoints(pts):
    """Midpoints of neighbouring points; rounding keeps them non-decreasing.
    Where p1 + p2 overflows, p1 / 2 + p2 / 2 is the same midpoint."""
    mids = [(p1 + p2) / 2.0 for p1, p2 in zip(pts, pts[1:])]
    if mids and (mids[0] == -INF or mids[-1] == INF):
        mids = [m if -INF < m < INF else p1 / 2.0 + p2 / 2.0
                for m, p1, p2 in zip(mids, pts, pts[1:])]
    return mids


def pwl_add(f, g):
    """Exact pointwise sum; domain is the intersection.

    Both inputs are read at the merged breakpoints and at the midpoints
    between them by forward passes, O(k) in the total breakpoint count k."""
    lo, hi, pts = _common_grid(f, g)
    vals = [a + b for a, b in zip(_values(f, pts), _values(g, pts))]
    mids = _midpoints(pts)
    slopes = [a + b for a, b in zip(_slopes(f, _open_pieces(f, pts, mids)),
                                    _slopes(g, _open_pieces(g, pts, mids)))]
    sl = -INF if lo > -INF else f.slope_left + g.slope_left
    sr = INF if hi < INF else f.slope_right + g.slope_right
    return PwlFunction._from_op(pts, vals, sl, sr, slopes)


def pwl_scale(lam, f):
    """lam * f for lam >= 0; lam == 0 keeps the domain (0 * inf = inf)."""
    lam = float(lam)
    if lam < 0:
        raise NegativeScale("scale factor must be >= 0")
    sl, sr = (m if abs(m) == INF else lam * m for m in (f.slope_left, f.slope_right))
    return PwlFunction._from_op(f.breakpoints, [lam * v for v in f.values], sl, sr,
                                [lam * m for m in f.slopes])


def _upper_slopes(f, g, pts):
    """The slope on each open interval between neighbouring pts of f where
    f >= g at its midpoint and of g elsewhere, read as ``_open_pieces``; only
    the upper function's slope is read."""
    xs = _midpoints(pts)
    fp, gp = _pieces(f, xs), _pieces(g, xs)
    upper = [a >= b for a, b in zip(_values(f, xs, fp), _values(g, xs, gp))]
    fp, gp = _open_pieces(f, pts, xs, fp), _open_pieces(g, pts, xs, gp)
    fs = iter(_slopes(f, [j for j, u in zip(fp, upper) if u]))
    gs = iter(_slopes(g, [j for j, u in zip(gp, upper) if not u]))
    return [next(fs) if u else next(gs) for u in upper]


def pwl_max(f, g):
    """Exact pointwise maximum, with breakpoints added at crossings.

    Read by forward passes like ``pwl_add``: O(k) up to sorting the
    crossings in."""
    lo, hi, pts = _common_grid(f, g)
    diff = [a - b for a, b in zip(_values(f, pts), _values(g, pts))]

    full = list(pts)
    # both functions are linear between neighbouring points of pts
    for a, b, da, db in zip(pts, pts[1:], diff, diff[1:]):
        if da == 0.0 or db == 0.0 or (da > 0) == (db > 0):
            continue
        if b - a < INF:
            x = a + da * (b - a) / (da - db)
        else:  # the width overflows: interpolate in halves
            x = 2.0 * (a / 2 + da / (da - db) * (b / 2 - a / 2))
        if a + MERGE_TOL < x < b - MERGE_TOL:
            full.append(x)
    if lo == -INF:
        # single crossing possible on the common left tail
        a = pts[0]
        dslope = f.slope_left - g.slope_left
        # f - g is linear there, so a zero left of a is a sign change; testing
        # f(x) - g(x) at the zero itself would only read rounding noise
        if dslope != 0.0:
            x = a - diff[0] / dslope
            if x < a - MERGE_TOL:
                full.append(x)
    if hi == INF:
        b = pts[-1]
        dslope = f.slope_right - g.slope_right
        if dslope != 0.0:
            x = b - diff[-1] / dslope
            if x > b + MERGE_TOL:
                full.append(x)
    full = sorted(set(full))
    vals = [max(a, b) for a, b in zip(_values(f, full), _values(g, full))]
    slopes = _upper_slopes(f, g, full)
    sl = -INF if lo > -INF else min(f.slope_left, g.slope_left)
    sr = INF if hi < INF else max(f.slope_right, g.slope_right)
    return PwlFunction._from_op(full, vals, sl, sr, slopes)


# -- Legendre transform and inf-convolution ----------------------------------

# Relative slack of the widening scan in legendre: far above the rounding of
# b*y - v and of values computed in floats, far below any real drop.
SUP_SLACK = 2.0 ** -40


def _sup_near(bp, va, y, lo, hi, slack):
    """First argmax q of bp[q]*y - va[q], and the max, scanning bp[lo:hi]
    and then widening while the next breakpoint out comes within ``slack``
    of the running max.

    b*y - v is unimodal in q for exactly convex data. When the data is
    convex up to an error below slack / 2 in b*y - v, a breakpoint that
    falls more than slack below the max has passed the peak, and every
    breakpoint beyond it lies below the max: the result is that of a scan
    over every breakpoint, ties included.
    """
    i, best = lo, bp[lo] * y - va[lo]
    for q in range(lo + 1, hi):
        g = bp[q] * y - va[q]
        if g > best:
            i, best = q, g
    while lo > 0:
        g = bp[lo - 1] * y - va[lo - 1]
        if g < best - slack:
            break
        lo -= 1
        if g >= best:
            i, best = lo, g
    while hi < len(bp):
        g = bp[hi] * y - va[hi]
        if g < best - slack:
            break
        if g > best:
            i, best = hi, g
        hi += 1
    return i, best


def legendre(f):
    """Convex conjugate sup_x (x*y - f(x)), exact on PwlFunction.

    Breakpoints of the output are the distinct finite slopes of ``f``; slopes
    of the output are breakpoints of ``f``. Applying it twice reproduces the
    input up to float rounding.

    One pass over the slope sequence, O(k) in the breakpoint count k. Slope
    j of the sequence lies between breakpoints j - 1 and j, so the sup at a
    merged group of slopes near y is attained on the group's breakpoints,
    and the output slope between two groups is the argmax on both groups'
    breakpoints. Each scan starts there and widens only while b*y - v stays
    within SUP_SLACK of its max (see ``_sup_near``), so values, slopes and
    ties are those of a scan over every breakpoint. A scan widens across a
    whole run of breakpoints only where b*y - v is that flat along it, so
    the cost returns toward O(k^2) only for slopes within about 1e-12 of
    each other along most of f.
    """
    bp = f.breakpoints
    va = f.values
    k = len(bp)
    ys = []
    spans = []  # [lo, hi): the breakpoints of each merged group of slopes
    for j, m in enumerate(f.slope_sequence()):
        if not math.isfinite(m):
            continue
        if not ys or m - ys[-1] > MERGE_TOL:
            ys.append(m)
            spans.append([max(j - 1, 0), min(j + 1, k)])
        else:
            spans[-1][1] = min(j + 1, k)

    if not ys:
        # point indicator: conjugate is the linear function bp[0]*y - v0
        return PwlFunction([0.0], [-va[0]], bp[0], bp[0])

    b_max = max(abs(bp[0]), abs(bp[-1]))
    v_max = max(map(abs, va))

    def sup(y, lo, hi):
        # the slack scales with a bound on |b*y| + |v| over every breakpoint
        return _sup_near(bp, va, y, lo, hi, SUP_SLACK * (b_max * abs(y) + v_max))

    vals = [sup(y, lo, hi)[1] for y, (lo, hi) in zip(ys, spans)]
    slopes = []
    for g in range(len(ys) - 1):
        ymid = (ys[g] + ys[g + 1]) / 2.0
        slopes.append(bp[sup(ymid, spans[g][0], spans[g + 1][1])[0]])
    sl = bp[0] if f.slope_left == -INF else -INF
    sr = bp[-1] if f.slope_right == INF else INF
    return PwlFunction._from_op(ys, vals, sl, sr, slopes)


def inf_convolve(f, g):
    """(f box g)(x) = inf { f(x1) + g(x2) : x1 + x2 = x }.

    Computed through the conjugates: legendre(legendre(f) + legendre(g)).
    """
    return legendre(pwl_add(legendre(f), legendre(g)))


def moreau_envelope(f, t):
    """Moreau envelope env_t(x) = inf_y f(y) + (x - y)^2 / (2 t).

    Returns an evaluation-only callable. The infimum is solved exactly on
    each linear piece, so the result carries no discretization error.
    """
    t = float(t)
    if not t > 0:
        raise BadShape("t must be positive")
    bp, va = f.breakpoints, f.values

    pieces = []
    if f.slope_left != -INF:
        pieces.append((-INF, bp[0], f.slope_left, bp[0], va[0]))
    for i, m in enumerate(f.slopes):
        pieces.append((bp[i], bp[i + 1], m, bp[i], va[i]))
    if f.slope_right != INF:
        pieces.append((bp[-1], INF, f.slope_right, bp[-1], va[-1]))

    def env(x):
        best = min(v + (x - b) ** 2 / (2.0 * t) for b, v in zip(bp, va))
        for lo, hi, m, banchor, vanchor in pieces:
            y = x - t * m
            y = min(max(y, lo), hi)
            val = vanchor + m * (y - banchor) + (x - y) ** 2 / (2.0 * t)
            if val < best:
                best = val
        return best

    return env
