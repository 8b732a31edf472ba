"""Exact one-dimensional convex piecewise-linear calculus.

A :class:`PwlFunction` is a finite list of breakpoints with values plus two
tail slopes. A tail slope of ``-inf`` (left) or ``+inf`` (right) means the
function is ``+inf`` beyond the outermost breakpoint on that side, so finite
intervals, half-lines and all of the real line are representable domains.

The algebra (add, max, scale), the Legendre transform and inf-convolution are
closed on this class, exact up to float rounding, and each is a few numpy
passes doing the float operations of a point-by-point walk, so outputs keep
their bits. The constructor builds the fields, tuples of Python floats for
``repr`` and the scalar ``__call__``, and one read-only table, laid out in this
module only, that the array passes read. ``pwl_add`` and ``pwl_max`` take each
input's slope on an interval of their merged grid just left of its upper end,
and ``pwl_max`` adds no tail crossing beyond the float range. ``legendre`` reads
its slope groups (its docstring gives the envelope of its 1e-12). Only chained
runs of points merged within MERGE_TOL are walked point by point.

The constructor validates its data; explicit ``slopes`` must agree with the
values. The operations build their outputs with ``PwlFunction._from_op``,
which validates everything but that agreement: their slopes are exact pieces
of their inputs, while their values carry the rounding of terms that can be
far larger than the values themselves (``v + m * (x - b)``, ``b * y - v``),
so no tolerance in the values' own scale tells the two apart.
"""

import bisect
import math
import struct

import numpy as np

from .errors import BadShape, EmptyDomain, NegativeScale, NonConvex
from .extreal import INF, MERGE_TOL


def _kept(p, d, tol=MERGE_TOL):
    """Mask of the points p (in order, gaps d) kept when each point within
    tol of the last kept one is dropped; None when all are kept. A gap mask
    decides where each dropped point repeats the one before it; any other
    drop may leave the last kept point further back, and the rule runs point
    by point."""
    near = d <= tol
    if not np.count_nonzero(near):
        return None
    if np.count_nonzero(p[1:][near] != p[:-1][near]):
        pl = p.tolist()
        keep, last = [True], pl[0]
        for x in pl[1:]:
            keep.append(x - last > tol)
            last = x if keep[-1] else last
        return np.array(keep)
    return np.concatenate(([True], ~near))


# The array passes overflow to inf and nan as the float arithmetic they
# replace does, without numpy's warnings. The n-D doors (tree and operator
# evaluation, ray domains) run under it too, where a division by zero gives
# inf or nan that the caller masks.
_quiet = np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore")


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

    __slots__ = ("breakpoints", "values", "slope_left", "slope_right", "slopes", "_table")

    def __init__(self, breakpoints, values, slope_left, slope_right, slopes=None):
        self._setup(breakpoints, values, slope_left, slope_right, slopes, True)

    @classmethod
    def _from_op(cls, breakpoints, values, slope_left, slope_right, slopes):
        """Validated construction of an operation's output, whose slopes are
        not checked against its values (see the module docstring)."""
        f = object.__new__(cls)
        f._setup(breakpoints, values, slope_left, slope_right, slopes, False)
        return f

    @_quiet
    def _setup(self, breakpoints, values, slope_left, slope_right, slopes, agree):
        bp = np.asarray(breakpoints, dtype=float)
        va = np.asarray(values, dtype=float)
        if bp.ndim != 1 or bp.shape != va.shape or not bp.size:
            raise BadShape("breakpoints and values must have equal length >= 1")
        if np.count_nonzero(np.isfinite(bp)) + np.count_nonzero(np.isfinite(va)) < 2 * bp.size:
            raise BadShape("breakpoints and values must be finite")
        d = bp[1:] - bp[:-1]
        keep = _kept(bp, d)
        if keep is not None:  # a gap <= MERGE_TOL, as every decrease is
            if np.count_nonzero(d < 0):
                raise BadShape("breakpoints must be sorted increasingly")
            # merge, keeping the first point and the largest value
            cut, vl = keep.nonzero()[0].tolist() + [va.size], va.tolist()
            bp, va = bp[keep], np.array([max(vl[i:j]) for i, j in zip(cut, cut[1:])])
            d, slopes = bp[1:] - bp[:-1], None
        bl = bp.tolist()
        slope_left, slope_right = float(slope_left), float(slope_right)
        if slope_left == INF or math.isnan(slope_left):
            raise BadShape("slope_left must be finite or -inf")
        if slope_right == -INF or math.isnan(slope_right):
            raise BadShape("slope_right must be finite or +inf")

        if slopes is None:
            s = (va[1:] - va[:-1]) / d
            if bl[-1] - bl[0] == INF:  # a width overflows: its secant in halves
                s = np.where(d < INF, s, (va[1:] / 2 - va[:-1] / 2) / (bp[1:] / 2 - bp[:-1] / 2))
        else:
            s = np.asarray(slopes, dtype=float)
            if s.shape != d.shape:
                raise BadShape("slopes length must be len(breakpoints) - 1")
        sq = s.tolist()
        if slopes is not None and agree:
            # in value space: a secant test would fail on tight breakpoint
            # gaps; the scale holds the terms values are computed from, and
            # an offset within 1e-9 passes before it is taken
            off, a = np.abs(va[1:] - (va[:-1] + s * d)), np.abs(bp)
            tol = 1e-9 * np.maximum(np.maximum(1.0, np.abs(va[:-1])), np.maximum(
                np.abs(va[1:]), np.abs(s) * np.maximum(a[:-1], a[1:])))
            bad = (~(off <= 1e-9) & ~((off <= tol) & (tol < INF))).nonzero()[0]
            if bad.size:
                i = bad[0]
                raise BadShape(f"slope {sq[i]} on [{bl[i]}, {bl[i + 1]}] disagrees with "
                               f"the values {float(va[i])} and {float(va[i + 1])}")

        # slopes may decrease by 1e-9 times the largest finite |m| (at least 1),
        # which only a pair that decreases can exceed
        first, last = (sq[0], sq[-1]) if sq else (slope_right, slope_left)
        if first < slope_left or slope_right < last or np.count_nonzero(s[1:] < s[:-1]):
            seq = [slope_left, *sq, slope_right]
            m = np.array(seq)
            a = np.abs(m)
            low = 1e-9 * np.maximum.reduce(a, initial=1.0, where=a < INF)
            bad = (m[1:] < m[:-1] - low).nonzero()[0]
            if bad.size:
                i = bad[0]
                raise NonConvex(f"slope sequence decreases: {seq[i]} -> {seq[i + 1]}")

        self.breakpoints = tuple(bl)
        self.values = tuple(va.tolist())
        self.slopes = tuple(sq)
        self.slope_left = slope_left
        self.slope_right = slope_right
        # The table, five rows joined as bytes (read-only, two numpy calls). Row 0: the
        # breakpoints, the float after the last and nan (sorted after inf): the count r
        # of keys <= x tells the left tail (0), the pieces, the last breakpoint (k) and
        # the right tail apart. Rows 1-3: at r, the breakpoint, value and slope x is read
        # from, -0.0 as the slope at the last breakpoint and as a last breakpoint 0, so
        # v + -0.0 * (x - b) is v at x = +-0 too. Row 4: the slope right of x.
        last, sl, sr, pack = bl[-1], slope_left, slope_right, struct.pack
        self._table = np.frombuffer(b"".join((
            bp.tobytes(), pack("3d", math.nextafter(last, INF), math.nan, bl[0]),
            bp[:-1].tobytes(), pack("3d", last or -0.0, last, va[0]),
            va.tobytes(), pack("2d", va[-1], sl),
            s.tobytes(), pack("3d", -0.0, sr, sl),
            s.tobytes(), pack("2d", sr, sr)))).reshape(5, -1)

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

    @_quiet
    def eval_many(self, xs):
        """f at every point of xs, bit for bit as ``f(x)`` reads each (see ``_read``)."""
        xs = np.asarray(xs, dtype=float)
        if np.isnan(xs).any():
            raise BadShape("cannot evaluate at nan")
        return _read(self, xs)

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


@_quiet
def is_even(p):
    """True iff p(-x) == p(x) for every x, to 1e-9 max(1, |p(x)|, |p(-x)|).

    The tails must mirror, and p must agree with its mirror image at every
    breakpoint b, which pairs p(b) with p(-b) at each mirrored breakpoint
    too. Both functions are linear between those points and on the tails
    beyond them, so the check is exact.
    """
    if p.slope_left != -p.slope_right:
        return False
    b = _arrays(p)[0]
    u, v = _read(p, b), _read(p, -b)
    tol = 1e-9 * np.maximum(np.maximum(1.0, np.abs(u)), np.abs(v))
    return bool(np.all((u == v) | ((np.abs(u - v) <= tol) & (tol < INF))))


# -- algebra -----------------------------------------------------------------

def _common_grid(f, g):
    """The common domain [lo, hi], empty only where hi < lo, and the
    breakpoints of f and g in it, merged at MERGE_TOL."""
    flo, fhi = f.domain
    glo, ghi = g.domain
    lo, hi = max(flo, glo), min(fhi, ghi)
    if hi < lo:
        raise EmptyDomain("domains are disjoint")
    fb, gb = f.breakpoints, g.breakpoints
    # a finite lo or hi is already a breakpoint; of equal points f's sort first
    pts = np.concatenate((f._table[0, bisect.bisect_left(fb, lo):bisect.bisect_right(fb, hi)],
                          g._table[0, bisect.bisect_left(gb, lo):bisect.bisect_right(gb, hi)]))
    pts.sort(kind="stable")
    keep = _kept(pts, pts[1:] - pts[:-1])
    return lo, hi, pts if keep is None else pts[keep]


def _arrays(f):
    """f's breakpoints, values and slope sequence, read-only views of its table."""
    T, k = f._table, len(f.breakpoints)
    return T[0, :k], T[2, 1:k + 1], T[4, :k + 1]


def _read(f, x):
    """f at the points x, none of them nan, bit for bit as ``_line`` reads
    each: an infinite x - b is taken in halves, or gives v on a flat piece."""
    T = f._table
    R = T[1:4].take(T[0].searchsorted(x, "right"), axis=1)
    d = x - R[0]
    out = R[1] + R[2] * d
    if not abs(d.sum()) < INF:  # some x - b is infinite, or only their sum overflows
        b, v, m = R
        out = np.where(abs(d) < INF, out, np.where(m == 0.0, v, v + 2.0 * (m * (x / 2 - b / 2))))
    return out


def _slopes(f, x, side):
    """f's slope just right of each point of x (no nan), or left for side "left"."""
    T = f._table
    return T[4].take(T[0].searchsorted(x, side))


@_quiet
def pwl_add(f, g):
    """Exact pointwise sum; domain is the intersection.

    Both inputs are read at the merged breakpoints by a fixed number of
    array passes, O(k log k) in the total breakpoint count k."""
    lo, hi, pts = _common_grid(f, g)
    slopes = _slopes(f, pts[1:], "left") + _slopes(g, pts[1:], "left")
    sl = -INF if lo > -INF else f.slope_left + g.slope_left
    sr = INF if hi < INF else f.slope_right + g.slope_right
    return PwlFunction._from_op(pts, _read(f, pts) + _read(g, pts), sl, sr, slopes)


@_quiet
def pwl_scale(lam, f):
    """lam * f for lam >= 0; lam == 0 keeps the domain (0 * inf = inf)."""
    lam = float(lam)
    if lam < 0:
        raise NegativeScale("scale factor must be >= 0")
    sl, sr = (m if abs(m) == INF else lam * m for m in (f.slope_left, f.slope_right))
    b, v, seq = _arrays(f)
    return PwlFunction._from_op(b, lam * v, sl, sr, lam * seq[1:-1])


@_quiet
def pwl_max(f, g):
    """Exact pointwise maximum, with breakpoints added at crossings.

    Read by array passes like ``pwl_add``; the upper function on each
    interval is the one at least as large at its midpoint."""
    lo, hi, pts = _common_grid(f, g)
    diff = _read(f, pts) - _read(g, pts)

    # both functions are linear between neighbouring points of pts
    sg = np.sign(diff)
    c = sg[:-1] * sg[1:] < 0
    a, b, da, db = pts[:-1][c], pts[1:][c], diff[:-1][c], diff[1:][c]
    x = a + da * (b - a) / (da - db)
    if not abs(x.sum()) < INF:  # a width, da * (b - a) or da - db overflows
        m = (_slopes(f, pts[1:], "left") - _slopes(g, pts[1:], "left"))[c]
        halves, end = 2.0 * (a / 2 + da / (da - db) * (b / 2 - a / 2)), a - da / m
        x = np.where(abs(x) < INF, x, np.where(abs(da - db) < INF, halves,
                                               np.where(abs(da) < INF, end, b - db / m)))
    extra = x[(a + MERGE_TOL < x) & (x < b - MERGE_TOL)].tolist()
    sl = -INF if lo > -INF else min(f.slope_left, g.slope_left)
    sr = INF if hi < INF else max(f.slope_right, g.slope_right)
    # on a common tail f - g is linear, so a zero beyond the end point is a
    # sign change; testing f(x) - g(x) at the zero itself would read noise. A
    # zero beyond the float range is no breakpoint: the upper function at the
    # end point keeps the tail
    if lo == -INF and f.slope_left != g.slope_left:
        a = float(pts[0])
        x = a - float(diff[0]) / (f.slope_left - g.slope_left)
        extra += [x] if -INF < x < a - MERGE_TOL else []
        sl = (f if diff[0] > 0 else g).slope_left if x == -INF else sl
    if hi == INF and f.slope_right != g.slope_right:
        b = float(pts[-1])
        x = b - float(diff[-1]) / (f.slope_right - g.slope_right)
        extra += [x] if b + MERGE_TOL < x < INF else []
        sr = (f if diff[-1] > 0 else g).slope_right if x == INF else sr
    full = np.sort(np.concatenate((pts, extra))) if extra else pts
    # both read at the points, then at the midpoints, for the upper function
    k = full.size
    x = np.concatenate((full, full[:-1] * 0.5 + full[1:] * 0.5))
    vf, vg = _read(f, x), _read(g, x)
    slopes = np.where(vf[k:] >= vg[k:], _slopes(f, full[1:], "left"), _slopes(g, full[1:], "left"))
    return PwlFunction._from_op(full, np.where(vg[:k] > vf[:k], vg[:k], vf[:k]), sl, sr, slopes)


# -- Legendre transform and inf-convolution ----------------------------------

@_quiet
def legendre(f):
    """Convex conjugate sup_x (x*y - f(x)), exact on PwlFunction.

    Slope j of the sequence lies between breakpoints j - 1 and j. The finite
    slopes merge into groups within MERGE_TOL, whose first slopes y are the
    output's breakpoints; the output slope between two groups is the
    breakpoint between them, so the output slopes strictly increase and
    every input the constructor accepts has a conjugate. A group of slopes
    first .. last takes the first max of b*y - v over the breakpoints first
    - 1 .. last that exist: one array pass per breakpoint of the longest
    group. Applying it twice reproduces the input up to float rounding.

    The values are within 1e-12 of the exact conjugate, relative to
    max |b*y| + |v|, where the finite slopes are nondecreasing and b*y - v
    is finite. Slopes that decrease within the constructor's tolerance add
    that decrease times the span of the breakpoints (3.4e-10 measured).
    """
    bp, va, seq = f.breakpoints, f.values, f.slope_sequence()
    # the finite slopes: infinite ones are -inf before them or +inf after them
    j0, j1 = seq.count(-INF), len(seq) - seq.count(INF)
    if j0 == j1:  # a point indicator: the conjugate is bp[0]*y - v0
        return PwlFunction([0.0], [-va[0]], bp[0], bp[0])
    b, v, ys = _arrays(f)
    ys = ys[j0:j1]
    keep = _kept(ys, ys[1:] - ys[:-1])
    firsts = np.arange(j0, j1) if keep is None else keep.nonzero()[0] + j0
    lasts = np.append(firsts[1:] - 1, j1 - 1)
    ys = ys if keep is None else ys[keep]
    lo, hi = np.maximum(firsts - 1, 0), np.minimum(lasts, b.size - 1)
    vals = b[lo] * ys - v[lo]
    for step in range(1, int((hi - lo).max()) + 1):
        q = np.minimum(lo + step, hi)
        g = b[q] * ys - v[q]
        vals = np.where(g > vals, g, vals)  # a nan never wins, as in a scan
    return PwlFunction._from_op(ys, vals, bp[0] if f.slope_left == -INF else -INF,
                                bp[-1] if f.slope_right == INF else INF, b[lasts[:-1]])


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
        if x != x:
            raise BadShape("cannot evaluate at nan")
        best = min(v + (x - b) ** 2 / (2.0 * t) for b, v in zip(bp, va))
        for lo, hi, m, banchor, vanchor in pieces:
            y = x - t * m
            y = min(max(y, lo), hi)
            val = vanchor + m * (y - banchor) + (x - y) ** 2 / (2.0 * t)
            if val < best:
                best = val
        return best

    return env
