"""The exact 1-D calculus against exact rational arithmetic on dyadic data.

Each output is read by ``eval_many`` at probe points and compared with the
rational reference of ``exact_pwl`` within 1e-12 of the terms the value is
computed from. Where points within MERGE_TOL merge (breakpoints, slopes or
a crossing next to a breakpoint), the merge moves a value by up to MERGE_TOL
times a slope, so the bound adds that much. Where the exact value leaves the
float range the library gives the signed infinity or a typed error, and it
never gives nan.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import assume, given, settings, strategies as st

import exact_pwl as X
from convendo import (ConvendoError, EmptyDomain, NonConvex, PwlFunction, inf_convolve,
                      legendre, pwl_add, pwl_max)
from convendo.extreal import MERGE_TOL
from convendo.kernel1d import monge_ampere

INF = math.inf
EXPONENTS = (-40, -30, -24, -23, -10, 0, 1, 10, 100, 500, 900, 1000)
UNIT = 2.0 ** -16


@st.composite
def dyadic_pwl(draw, max_breaks=6):
    """Convex data at magnitudes 2^-40 to 2^1000 whose values, accumulated
    along the pieces, are exact floats. Breakpoints are 2^eb B and slopes
    2^em M, with B and M whole multiples of 2^-16 under 2^5. Gaps are
    ordinary (1/4 to 2) or one multiple, which at eb or em near -24 straddles
    MERGE_TOL, and slopes may repeat. Either tail may be truncated."""
    eb, em = draw(st.sampled_from(EXPONENTS)), draw(st.sampled_from(EXPONENTS))
    em = min(em, 1016 - eb)
    k = draw(st.integers(1, max_breaks))
    gap = st.one_of(st.integers(2 ** 14, 2 ** 17), st.just(1))
    n = np.cumsum([draw(st.integers(-2 ** 20, 2 ** 20))]
                  + draw(st.lists(gap, min_size=k - 1, max_size=k - 1)))
    s = np.cumsum([draw(st.integers(-2 ** 20, 2 ** 20))]
                  + draw(st.lists(st.one_of(gap, st.just(0)), min_size=k, max_size=k)))
    bp = [math.ldexp(int(b) * UNIT, eb) for b in n]
    seq = [math.ldexp(int(m) * UNIT, em) for m in s]
    va = [Fraction(math.ldexp(draw(st.integers(-2 ** 36, 2 ** 36)) * UNIT * UNIT, eb + em))]
    for m, b1, b2 in zip(seq[1:], bp, bp[1:]):
        va.append(va[-1] + Fraction(m) * (Fraction(b2) - Fraction(b1)))
    assume(max(map(abs, va)) <= X.FLOAT_MAX)
    sl = -INF if draw(st.booleans()) else seq[0]
    sr = INF if draw(st.booleans()) else seq[-1]
    slopes = seq[1:-1] if draw(st.booleans()) else None
    try:
        return _convex(PwlFunction(bp, [float(v) for v in va], sl, sr, slopes=slopes))
    except NonConvex:  # a merge within MERGE_TOL kept a larger value
        assume(False)


def _convex(f):
    """f, if its exact slopes are nondecreasing (the envelope of the 1e-12
    bound), which a merge within MERGE_TOL or a rounded breakpoint can break."""
    s = X.Exact(f).slopes
    assume(all(a <= b for a, b in zip(s, s[1:])))
    return f


@st.composite
def dyadic_pairs(draw):
    """Two independent draws, or the second a copy of the first moved by a
    whole, a tiny or no multiple of its breakpoints and raised by a constant."""
    f = draw(dyadic_pwl())
    if draw(st.booleans()):
        return f, draw(dyadic_pwl())
    c = max(map(abs, f.breakpoints)) * draw(st.sampled_from([0.0, 2.0 ** -24, 2.0 ** -20, 0.25]))
    d = max(map(abs, f.values)) * draw(st.sampled_from([0.0, 2.0 ** -30, 0.5]))
    try:
        g = _convex(PwlFunction([b + c for b in f.breakpoints], [v + d for v in f.values],
                                f.slope_left, f.slope_right))
    except NonConvex:
        assume(False)
    return (f, g) if draw(st.booleans()) else (g, f)


def _size(F, G, x):
    """A bound on the terms an operation on F and G computes at x from:
    each function read at x or at any breakpoint of either."""
    reach = max(F.b_max, G.b_max) + abs(Fraction(x))
    return sum(H.size(reach) for H in (F, G))


def _near(points):
    """Whether two distinct points lie within twice MERGE_TOL."""
    p = sorted(set(Fraction(x) for x in points if abs(x) < INF))
    return any(b - a <= 2 * Fraction(MERGE_TOL) for a, b in zip(p, p[1:]))


def _probes(*fs, extra=()):
    """Breakpoints, their neighbouring floats, midpoints and points beyond the ends."""
    pts = sorted({b for f in fs for b in f.breakpoints} | {x for x in extra if abs(x) < INF})
    out = [y for b in pts for y in (math.nextafter(b, -INF), b, math.nextafter(b, INF))]
    out += [a / 2 + b / 2 for a, b in zip(pts, pts[1:])]
    out += [pts[0] - abs(pts[0]) - 1.0, pts[-1] + abs(pts[-1]) + 1.0, 0.0]
    return [x for x in out if abs(x) < INF]


def _floats(xs):
    """The rationals xs that lie in the float range, as floats."""
    return [float(x) for x in xs if abs(x) <= X.FLOAT_MAX]


def _edge(h, x):
    """Whether x lies within a merge or a rounding of an end of h's domain."""
    return any(abs(x - e) <= 2 * MERGE_TOL + 2.0 ** -40 * abs(e)
               for e in h.domain if abs(e) < INF)


def _check(h, want, xs, scale, merge=lambda x: 0):
    """h read at each x against the exact want(x) (see ``exact_pwl.agrees``);
    a probe next to an end of h's domain may fall on either side of it."""
    got = h.eval_many(xs).tolist()
    for x, g in zip(xs, got):
        w = want(Fraction(x))
        if (g == INF) != (w == INF) and _edge(h, x):
            continue
        assert X.agrees(g, w, scale(Fraction(x)), merge(Fraction(x))), (h, x, g, float(w))


@settings(max_examples=60, deadline=None)
@given(dyadic_pwl())
def test_evaluation_is_exact(f):
    F = X.Exact(f)
    xs = _probes(f) + [1.7e308, -1.7e308]
    _check(f, F, xs, F.size)
    assert [f(x) for x in xs] == f.eval_many(xs).tolist()


@settings(max_examples=60, deadline=None)
@given(dyadic_pwl())
def test_legendre_is_exact(f):
    F = X.Exact(f)
    try:
        g = legendre(f)
    except ConvendoError:  # only a value b*y - v beyond the float range
        assert F.dual_size() > X.FLOAT_MAX
        return
    seq = f.slope_sequence()
    merge = 4 * Fraction(MERGE_TOL) * max(map(abs, F.bp)) if _near(seq) else 0
    ys = _probes(g, extra=seq)
    _check(g, X.conjugate(F), ys, F.dual_size, lambda y: merge)


@settings(max_examples=60, deadline=None)
@given(dyadic_pairs())
def test_add_and_max_are_exact(pair):
    f, g = pair
    F, G = X.Exact(f), X.Exact(g)
    cross = X.crossings(F, G)
    ms = max(map(abs, F.slopes + G.slopes), default=0)
    for op, want in ((pwl_add, X.add(F, G)), (pwl_max, X.maximum(F, G))):
        near = _near(f.breakpoints + g.breakpoints + (tuple(cross) if op is pwl_max else ()))
        merge = 4 * Fraction(MERGE_TOL) * ms if near else 0
        try:
            h = op(f, g)
        except EmptyDomain:
            (flo, fhi), (glo, ghi) = f.domain, g.domain
            assert not max(flo, glo) < min(fhi, ghi)  # disjoint, or one point
            continue
        except ConvendoError:  # only a value beyond the float range
            values = [want(Fraction(b)) for b in f.breakpoints + g.breakpoints]
            assert any(v != INF and abs(v) > X.FLOAT_MAX for v in values)
            continue
        _check(h, want, _probes(f, g, extra=_floats(cross)),
               lambda x: _size(F, G, x), lambda x: merge)


@settings(max_examples=40, deadline=None)
@given(dyadic_pairs())
def test_inf_convolve_is_exact(pair):
    f, g = pair
    F, G = X.Exact(f), X.Exact(g)
    try:
        h = inf_convolve(f, g)
    except EmptyDomain:  # the slope ranges are disjoint (the infimum is -inf), or
        # they meet in one point or in less than a merge within MERGE_TOL
        assert X.slope_overlap(F, G) <= 2 * Fraction(MERGE_TOL)
        return
    except ConvendoError:  # only a conjugate value b*y - v beyond the float range
        assert _size(F, G, 0) > X.FLOAT_MAX
        return
    near = _near(f.breakpoints + g.breakpoints) or _near(f.slope_sequence() + g.slope_sequence())
    terms = max(map(abs, F.bp + G.bp)) + max(map(abs, F.slopes + G.slopes), default=0)
    sums = [a + b for a in f.breakpoints for b in g.breakpoints]
    # a merge of slopes cuts up to MERGE_TOL off a conjugate's domain, worth |x| MERGE_TOL
    _check(h, X.inf_convolution(F, G), _probes(h, extra=sums), lambda x: _size(F, G, x),
           lambda x: 8 * Fraction(MERGE_TOL) * (terms + abs(x)) if near else 0)


@settings(max_examples=40, deadline=None)
@given(dyadic_pwl())
def test_monge_ampere_is_exact(f):
    F = X.Exact(f)
    if f.slope_left == -INF or f.slope_right == INF:
        return
    mu = monge_ampere(f)
    got = dict(zip(mu.positions, mu.weights))
    tol = Fraction(1e-12) * F.m_max
    assert set(got) <= set(f.breakpoints)
    for b, jump in X.monge_ampere(F).items():
        assert abs(Fraction(got.get(float(b), 0.0)) - jump) <= tol, (f, b, jump)


def test_max_keeps_crossings_whose_interpolation_overflows():
    # near 2^900 da * (b - a) overflows, and with a slope near 2^483 f(b)
    # itself does: the crossing was dropped, and max(f, g) read 3.1e247 for
    # 2.6e247 and 0.0 for -1.8e249 next to it
    pairs = ((PwlFunction([3.7786569438147443e+263, 2.1131785024083554e+270],
                          [0.0, 3.665779701564795e+253], 0.0, 5.551115123125783e-17),
              PwlFunction([0.0, 2.113178124542661e+270], [0.0, 2.932623761251836e+253],
                          0.0, 5.551115123125783e-17)),
             (PwlFunction([0.0], [0.0], -4.994797680505588e+145, -4.994797680505588e+145),
              PwlFunction([1.2897815701554327e+266], [-1.789931494904685e+249],
                          0.0, 1.3877787807814457e-17)))
    for f, g in pairs:
        F, G = X.Exact(f), X.Exact(g)
        (x,) = X.crossings(F, G)
        for a, b in ((f, g), (g, f)):
            h = pwl_max(a, b)
            assert float(x) in h.breakpoints
            _check(h, X.maximum(F, G), _probes(f, g, extra=[float(x)]),
                   lambda x: _size(F, G, x))

