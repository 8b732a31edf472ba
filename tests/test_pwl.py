import bisect
import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from convendo import (INF, BadShape, ConvendoError, EmptyDomain, NegativeScale, NonConvex,
                      PwlFunction, inf_convolve, legendre, moreau_envelope,
                      pwl_abs, pwl_add, pwl_indicator, pwl_linear, pwl_max, pwl_scale)
from convendo.extreal import MERGE_TOL
from convendo.pwl import is_even
from convendo.rand import random_convex_pwl, random_finite_pwl, rng_from_seed

import exact_pwl


def test_make_abs():
    f = PwlFunction([0], [0], -1, 1)
    assert f(0.0) == 0.0
    assert f(2.0) == 2.0
    assert f(-3.0) == 3.0


def test_make_indicator():
    f = PwlFunction([-1, 1], [0, 0], -INF, INF)
    assert f(0.5) == 0.0
    assert f(-1.0) == 0.0
    assert f(1.0001) == INF
    assert f.domain == (-1.0, 1.0)


def test_make_nonconvex_rejected():
    with pytest.raises(NonConvex):
        PwlFunction([0, 1], [0, -1], 0, 0)


def test_convexity_tolerance_is_the_largest_finite_slope():
    # an interior decrease of 5e-7 passes where 1e-9 times the largest
    # finite |m| exceeds it (slope_right 1000), and fails at 100 and where
    # the only larger |m| is an infinite tail
    bp, va = [0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0 - 5e-7, 3.5]
    assert PwlFunction(bp, va, -1.0, 1000.0).slopes[1] == (2.0 - 5e-7) - 1.0
    for sl, sr in ((-1.0, 100.0), (-INF, INF)):
        with pytest.raises(NonConvex, match=r"^slope sequence decreases: 1.0 -> 0.99999949"):
            PwlFunction(bp, va, sl, sr)
    with pytest.raises(NonConvex, match=r"^slope sequence decreases: 1.0 -> 0.5$"):
        PwlFunction([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 1.5, 3.0], -1.0, 5.0)


def test_make_bad_shape():
    with pytest.raises(BadShape):
        PwlFunction([0, 1], [0], -1, 1)
    with pytest.raises(BadShape):
        PwlFunction([1, 0], [0, 0], -1, 1)
    with pytest.raises(BadShape):
        PwlFunction([0], [0], INF, INF)


def test_values_whose_sum_overflows_are_taken_as_they_are():
    # finite values are taken although their sum overflows
    f = PwlFunction([0.0, 1.0], [1e308, 1.5e308], -1.0, 6e307)
    assert f.values == (1e308, 1.5e308) and f.slopes == (5e307,)
    with pytest.raises(BadShape, match="must be finite"):
        PwlFunction([0.0, 1.0], [1e308, INF], -1.0, 6e307)


def test_add_two_vees():
    f = pwl_abs()
    g = PwlFunction([1], [0], -1, 1)
    s = pwl_add(f, g)
    assert s.breakpoints == (0.0, 1.0)
    assert s.slope_left == -2.0
    assert s.slopes == (0.0,)
    assert s.slope_right == 2.0


def test_add_zero_is_identity():
    f = PwlFunction([-1, 0.5, 2], [1, 0.25, 3], -2, 4)
    s = pwl_add(f, pwl_linear(0.0, 0.0))
    assert all(s(b) == f(b) for b in f.breakpoints)


def test_add_indicator_truncates():
    s = pwl_add(pwl_indicator(-1, 1), pwl_abs())
    assert s(0.5) == 0.5
    assert s(2.0) == INF
    assert s.domain == (-1.0, 1.0)


def test_add_disjoint_domains():
    with pytest.raises(EmptyDomain):
        pwl_add(pwl_indicator(-2, -1), pwl_indicator(1, 2))


def test_domains_that_meet_in_one_point():
    # the sum and the max live on that point; they raised EmptyDomain
    p = pwl_indicator(0.5, 0.5)
    for op in (pwl_add, pwl_max):
        assert _outcome(op, p, p) == _outcome(PwlFunction, [0.5], [0.0], -INF, INF)
        assert _outcome(op, pwl_indicator(-1.0, 0.5), PwlFunction([0.5], [1.0], -INF, 2.0)) \
            == _outcome(PwlFunction, [0.5], [1.0], -INF, INF)
    # both conjugates are the point indicator at 0.5, so the result is x/2 - 2
    h = inf_convolve(pwl_linear(0.5, -1.0), pwl_linear(0.5, -1.0))
    assert _outcome(lambda: h) == _outcome(PwlFunction, [0.0], [-2.0], 0.5, 0.5)


def test_max_and_scale():
    f = pwl_max(pwl_linear(1.0, 0.0), pwl_linear(-1.0, 0.0))
    assert f(0.0) == 0.0 and f(-2.0) == 2.0 and f(3.0) == 3.0
    g = pwl_scale(2.0, pwl_abs())
    assert g(1.5) == 3.0
    with pytest.raises(NegativeScale):
        pwl_scale(-1.0, pwl_abs())


def test_max_flat_top():
    f = pwl_max(pwl_abs(), pwl_linear(0.0, 1.0))
    for x, want in ((-2, 2), (-1, 1), (0, 1), (0.7, 1), (1, 1), (3, 3)):
        assert f(float(x)) == pytest.approx(want, abs=1e-12)
    assert -1.0 in f.breakpoints and 1.0 in f.breakpoints


def test_max_keeps_crossing_on_shared_tail():
    # f - g is linear on each shared tail; its zero there must become a
    # breakpoint whatever rounding f(x) - g(x) shows at the zero itself
    rng = rng_from_seed(21)
    off = 0
    for _ in range(200):
        u, v = rng.uniform(0.0, 0.1, size=2)
        f = PwlFunction([0.0], [0.5], -1.0 - u, 1.0)
        g = PwlFunction([0.1], [-0.5], -1.1 - v, 1.0)
        mirrored = (PwlFunction([0.0], [0.5], -1.0, 1.0 + u),
                    PwlFunction([-0.1], [-0.5], -1.0, 1.1 + v))
        for a, b, sign in ((f, g, 1.0), mirrored + (-1.0,)):
            h = pwl_max(a, b)
            for x in sign * rng.uniform(-200.0, 5.0, size=15):
                want = max(a(x), b(x))
                off += abs(h(x) - want) > 1e-9 * max(1.0, abs(want))
    assert off == 0


@pytest.mark.parametrize("g", [PwlFunction([0.0], [0.0], -1.0 - 1e-10, 1.0),
                               PwlFunction([0.0], [0.0], -1.0, 1.0 + 1e-10)])
def test_max_adds_no_tail_crossing_beyond_the_float_range(g):
    # f - g has its zero near -+1e310 on the shared tail: it was added as a
    # breakpoint of -+inf, which the constructor refused; f stays above
    f = PwlFunction([0.0], [1e300], -1.0, 1.0)
    for a, b in ((f, g), (g, f)):
        assert _outcome(pwl_max, a, b) == _outcome(lambda: f) == _outcome(_pwl_max_bisect, a, b)


def test_eval_many_matches_call():
    f = PwlFunction([0.1, 0.7, 1.3], [0.3, -0.2, 0.9], -2.0, 3.0)
    assert f.eval_many([1.3])[0] == f(1.3) == 0.9
    fixed = [
        f,
        PwlFunction([0.1, 0.7, 1.3], [0.3, -0.2, 0.9], -INF, 3.0),   # truncated left
        PwlFunction([0.1, 0.7, 1.3], [0.3, -0.2, 0.9], -2.0, INF),   # truncated right
        PwlFunction([0.1, 0.7, 1.3], [0.3, -0.2, 0.9], -INF, INF),   # both
        PwlFunction([0.5], [2.0], -1.0, 3.0),                        # one breakpoint
        PwlFunction([0.5], [2.0], -INF, INF),                        # point indicator
        PwlFunction([-1.0, 0.0, 1.0], [1.0, -0.0, -0.0], -1.0, 0.0),  # -0.0 values
        PwlFunction([-1.0, 0.0], [-0.0, -0.0], -INF, INF),
        PwlFunction([0.0, 1.0], [0.0, 1.0], 0.0, 1.0),                # flat left tail
    ]
    rng = rng_from_seed(22)
    for g in fixed + [random_convex_pwl(rng) for _ in range(50)]:
        xs = np.concatenate([g.breakpoints, [-INF, INF, -0.0, 0.0, 0.2, 0.7 + 1e-9, 0.5],
                             rng.uniform(-5.0, 5.0, size=20)])
        want = [g(x).hex() for x in xs.tolist()]
        assert [v.hex() for v in g.eval_many(xs).tolist()] == want
        assert [float(g.eval_many(x)).hex() for x in xs.tolist()] == want
        # a flat tail is its breakpoint's value out to -inf or +inf
        for x, m, v in ((-INF, g.slope_left, g.values[0]), (INF, g.slope_right, g.values[-1])):
            if m == 0.0:
                assert g(x).hex() == float(g.eval_many([x])[0]).hex() == v.hex()


def test_legendre_standard_pairs():
    dual = legendre(pwl_abs())
    assert dual.domain == (-1.0, 1.0)
    assert dual(0.3) == 0.0 and dual(1.2) == INF
    back = legendre(dual)
    assert back.breakpoints == (0.0,)
    assert back.slope_left == -1.0 and back.slope_right == 1.0

    hinge = PwlFunction([0], [0], 0, 1)  # max(0, x)
    d = legendre(hinge)
    assert d.domain == (0.0, 1.0)
    assert d(0.5) == 0.0


def test_legendre_point_indicator_is_linear():
    point = PwlFunction([2.0], [1.0], -INF, INF)
    d = legendre(point)
    assert d(0.0) == -1.0
    assert d(3.0) == pytest.approx(5.0)
    back = legendre(d)
    assert back.breakpoints == (2.0,)
    assert back.values == (1.0,)
    assert back.slope_left == -INF and back.slope_right == INF


def test_inf_convolve_examples():
    f = pwl_abs()
    assert _same_on_grid(inf_convolve(f, f), f)
    point = PwlFunction([0.0], [0.0], -INF, INF)
    assert _same_on_grid(inf_convolve(f, point), f)
    box = inf_convolve(pwl_indicator(-1, 1), pwl_indicator(-1, 1))
    assert box.domain == (-2.0, 2.0)
    assert box(1.5) == 0.0 and box(2.5) == INF


def _same_on_grid(f, g, lo=-3.0, hi=3.0, n=41, tol=1e-12):
    for x in np.linspace(lo, hi, n):
        a, b = f(x), g(x)
        if a == INF and b == INF:
            continue
        if abs(a - b) > tol:
            return False
    return True


def test_moreau_point_indicator():
    env = moreau_envelope(PwlFunction([0.0], [0.0], -INF, INF), 0.5)
    for x in (-2.0, -0.3, 0.0, 1.7):
        assert env(x) == pytest.approx(x * x, abs=1e-12)


def test_moreau_huber():
    env = moreau_envelope(pwl_abs(), 1.0)
    assert env(0.5) == pytest.approx(0.125)
    assert env(-0.5) == pytest.approx(0.125)
    assert env(2.0) == pytest.approx(1.5)
    assert env(-3.0) == pytest.approx(2.5)


def test_moreau_of_zero():
    env = moreau_envelope(pwl_linear(0.0, 0.0), 2.0)
    for x in (-1.0, 0.0, 2.0):
        assert env(x) == 0.0


def test_moreau_below_and_brute_force():
    rng = rng_from_seed(11)
    for _ in range(20):
        f = random_convex_pwl(rng)
        t = float(rng.uniform(0.1, 2.0))
        env = moreau_envelope(f, t)
        ys = np.linspace(-8.0, 8.0, 3201)
        fy = f.eval_many(ys)
        for x in rng.uniform(-3.0, 3.0, size=5):
            brute = np.min(fy + (x - ys) ** 2 / (2 * t))
            assert env(x) <= brute + 1e-12
            assert env(x) >= brute - 0.05  # grid upper bound is loose
            if f(x) < INF:
                assert env(x) <= f(x) + 1e-12


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9), st.integers(min_value=0, max_value=10 ** 9))
def test_add_exact_hypothesis(seed_f, seed_g):
    f = random_convex_pwl(rng_from_seed(seed_f))
    g = random_convex_pwl(rng_from_seed(seed_g))
    lo = max(f.domain[0], g.domain[0])
    hi = min(f.domain[1], g.domain[1])
    if hi < lo:
        with pytest.raises(EmptyDomain):
            pwl_add(f, g)
        return
    s = pwl_add(f, g)
    xs = np.linspace(max(lo, -5.0), min(hi, 5.0), 17)
    for x in xs:
        expected = f(x) + g(x)
        got = s(x)
        if expected == INF:
            assert got == INF or abs(got) < INF  # edge rounding at domain ends
        else:
            assert got == pytest.approx(expected, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_legendre_involution_hypothesis(seed):
    f = random_convex_pwl(rng_from_seed(seed))
    g = legendre(legendre(f))
    assert g.breakpoints == pytest.approx(f.breakpoints, abs=1e-12)
    assert g.values == pytest.approx(f.values, abs=1e-12)
    for a, b in zip(f.slope_sequence(), g.slope_sequence()):
        if math.isfinite(a) or math.isfinite(b):
            assert a == pytest.approx(b, abs=1e-12)
        else:
            assert a == b


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9), st.floats(-2, 2))
def test_fenchel_young_hypothesis(seed, y):
    f = random_finite_pwl(rng_from_seed(seed))
    d = legendre(f)
    for x in (-1.5, 0.0, 0.8):
        lhs = x * y
        if d(y) < INF:
            assert lhs <= f(x) + d(y) + 1e-9


# -- linear-time Legendre transform against a scan over every breakpoint --------

def _legendre_scan(f):
    """The conjugate with sup_x x*y - f(x) taken over every breakpoint of f."""
    bp, va = f.breakpoints, f.values
    ys = []
    for m in f.slope_sequence():
        if math.isfinite(m) and (not ys or m - ys[-1] > 1e-12):
            ys.append(m)
    if not ys:
        return PwlFunction([0.0], [-va[0]], bp[0], bp[0])
    vals = [max(b * y - v for b, v in zip(bp, va)) for y in ys]
    slopes = []
    for y1, y2 in zip(ys, ys[1:]):
        ymid = (y1 + y2) / 2.0
        slopes.append(bp[max(range(len(bp)), key=lambda q: bp[q] * ymid - va[q])])
    return PwlFunction._from_op(ys, vals, bp[0] if f.slope_left == -INF else -INF,
                                bp[-1] if f.slope_right == INF else INF, slopes)


def _legendre_groups(f):
    """The conjugate by the group rule, as a Python loop: the finite slopes
    grouped by the sequential rule at 1e-12, a group of slopes first .. last
    read at its first slope y by the first max of b*y - v over breakpoints
    first - 1 .. last, and the breakpoint after each group as the slope up to
    the next."""
    bp, va, seq = f.breakpoints, f.values, f.slope_sequence()
    groups = []
    for j, m in enumerate(seq):
        if math.isfinite(m) and groups and m - seq[groups[-1][0]] <= 1e-12:
            groups[-1][1] = j
        elif math.isfinite(m):
            groups.append([j, j])
    if not groups:
        return PwlFunction([0.0], [-va[0]], bp[0], bp[0])
    vals = []
    for first, last in groups:
        y, best = seq[first], None
        for q in range(max(first - 1, 0), min(last, len(bp) - 1) + 1):
            g = bp[q] * y - va[q]
            if best is None or g > best:
                best = g
        vals.append(best)
    return PwlFunction._from_op([seq[first] for first, _ in groups], vals,
                                bp[0] if f.slope_left == -INF else -INF,
                                bp[-1] if f.slope_right == INF else INF,
                                [bp[last] for _, last in groups[:-1]])


def _data(f):
    return f.breakpoints, f.values, f.slopes, f.slope_left, f.slope_right


def _ordinary(f):
    """Whether every breakpoint gap and every finite slope gap is 1e-3 or more."""
    seq = [m for m in f.slope_sequence() if math.isfinite(m)]
    return all(q - p >= 1e-3 for xs in (f.breakpoints, seq) for p, q in zip(xs, xs[1:]))


def _legendre_error(f, g):
    """The largest error of the values of g = legendre(f) against the exact
    max of b*y - v over every breakpoint, relative to max(1, max |b*y| + |v|).
    That max is the conjugate wherever the slopes are nondecreasing; a slope
    that decreases within the constructor's tolerance can pass a tail slope,
    and there the tails are not read."""
    sup = exact_pwl.breakpoint_sup(exact_pwl.Exact(f))
    return max(abs(Fraction(v) - sup(Fraction(y)))
               / max(1.0, max(abs(b * y) + abs(w) for b, w in zip(f.breakpoints, f.values)))
               for y, v in zip(g.breakpoints, g.values))


def _check_legendre(f):
    """legendre(f) raises nothing and equals the group rule bit for bit; where
    the finite slopes are nondecreasing its values are within 1e-12 of the
    exact sup; on ordinary data it equals the full scan bit for bit. Returns
    the conjugate."""
    got = _outcome(legendre, f)
    assert isinstance(got, list), got
    assert got == _outcome(_legendre_groups, f)
    g = legendre(f)
    seq = [m for m in f.slope_sequence() if math.isfinite(m)]
    if all(p <= q for p, q in zip(seq, seq[1:])):
        assert _legendre_error(f, g) <= 1e-12
    if _ordinary(f):
        assert got == _outcome(_legendre_scan, f)
    return g


@st.composite
def convex_pwl_data(draw, max_breaks=40):
    """Convex data with breakpoint gaps in [1e-3, 1] and slope gaps that are
    ordinary, tight (1e-14 to 1e-9) or zero; either tail may be truncated, so
    one breakpoint with both tails truncated is a point indicator."""
    k = draw(st.integers(1, max_breaks))
    gaps = draw(st.lists(st.floats(1e-3, 1.0), min_size=k - 1, max_size=k - 1))
    bp = draw(st.floats(-5.0, 5.0)) + np.concatenate([[0.0], np.cumsum(gaps)])
    sgap = st.one_of(st.floats(1e-3, 2.0), st.floats(1e-14, 1e-9), st.just(0.0))
    seq = draw(st.floats(-5.0, 5.0)) + np.cumsum(
        draw(st.lists(sgap, min_size=k + 1, max_size=k + 1)))
    va = draw(st.floats(-5.0, 5.0)) + np.concatenate(
        [[0.0], np.cumsum(seq[1:-1] * np.diff(bp))])
    sl = -INF if draw(st.booleans()) else seq[0]
    sr = INF if draw(st.booleans()) else seq[-1]
    return PwlFunction(bp, va, sl, sr, slopes=seq[1:-1] if draw(st.booleans()) else None)


_LEGENDRE_INPUTS = st.one_of(
    convex_pwl_data(),
    st.integers(0, 10 ** 9).map(lambda s: random_convex_pwl(rng_from_seed(s), max_breaks=24)),
    st.builds(lambda a, v: PwlFunction([a], [v], -INF, INF),
              st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)))


@settings(max_examples=300, deadline=None)
@given(_LEGENDRE_INPUTS)
def test_legendre_matches_full_scan_hypothesis(f):
    # the full scan on ordinary data (random_convex_pwl draws among them), the
    # group rule and the exact sup on all of it, tight and equal slopes too
    _check_legendre(_check_legendre(f))


@pytest.mark.parametrize("seed", [0, 1])
def test_legendre_matches_full_scan_at_scale(seed):
    # 512 breakpoints with runs of slopes 1e-14 to 1e-9 apart between
    # ordinary gaps, on a line, a half-line and a truncated interval
    rng = rng_from_seed(seed)
    k = 512
    bp = np.cumsum(rng.uniform(0.005, 0.02, k)) - 5.0
    sgaps = np.where(rng.random(k + 1) < 0.3, 10.0 ** rng.uniform(-14, -9, k + 1),
                     rng.uniform(0.01, 0.05, k + 1))
    seq = np.cumsum(sgaps) - 10.0
    va = np.concatenate([[0.3], 0.3 + np.cumsum(seq[1:-1] * np.diff(bp))])
    for sl, sr in ((seq[0], seq[-1]), (-INF, seq[-1]), (-INF, INF)):
        _check_legendre(_check_legendre(PwlFunction(bp, va, sl, sr, slopes=seq[1:-1])))


@pytest.mark.parametrize("seed", range(4))
def test_legendre_matches_full_scan_where_rounding_flattens(seed):
    # breakpoint gaps down to 1e-11 and slope gaps straddling the merge
    # tolerance: b*y - v is flat to rounding across many breakpoints. The
    # full scan raised NonConvex on many of these inputs; the group rule
    # takes each group's breakpoints, so no input the constructor accepts
    # raises, and inputs convex only within its tolerance stay within 1e-10
    rng = rng_from_seed(seed)
    for _ in range(100):
        k = int(rng.integers(2, 60))
        bp = np.concatenate([[0.0], np.cumsum(10.0 ** rng.uniform(-11, 0, k - 1))])
        bp += rng.normal() * 100.0
        seq = np.cumsum(rng.choice([0.5e-12, 0.99e-12, 1.01e-12, 1.5e-12, 1e-14, 1e-9], k + 1))
        seq += rng.normal() * 100.0
        va = rng.normal() * 100.0 + np.concatenate([[0.0], np.cumsum(seq[1:-1] * np.diff(bp))])
        try:
            f = PwlFunction(bp, va, seq[0], seq[-1], slopes=seq[1:-1] if seed % 2 else None)
        except NonConvex:
            continue
        assert _legendre_error(f, _check_legendre(f)) <= 1e-10


def test_legendre_accepts_slopes_half_a_merge_apart():
    # a draw of the test above: slopes 1e-12 to 1e-9 apart near 57.5, where
    # the full scan's argmax between two groups stepped back a whole
    # breakpoint and legendre raised NonConvex
    f = PwlFunction([122.1550822928463, 122.15508806809437, 122.15681292514535, 122.1568129359682],
                    [103.50062235377662, 103.5009545095448, 103.60015738565255, 103.600158008115],
                    57.51367978582666, 57.513679786828696,
                    slopes=[57.51367978582768, 57.51367978682767, 57.51367978682868])
    assert _outcome(_legendre_scan, f)[0] is NonConvex
    _check_legendre(f)


def test_nan_argument_is_refused():
    f = pwl_abs()
    with pytest.raises(BadShape):
        f(float("nan"))
    with pytest.raises(BadShape):
        f.eval_many([0.0, float("nan")])
    assert f(INF) == INF and f.eval_many([-INF]).tolist() == [INF]


@pytest.mark.parametrize("t", [0.0, -1.0, float("nan")])
def test_moreau_envelope_refuses_non_positive_t(t):
    with pytest.raises(BadShape):
        moreau_envelope(pwl_abs(), t)


# -- one-pass pwl_add / pwl_max against bisecting every point --------------------

def _slope_left_of(f, p):
    """f's slope on the grid interval whose upper end is p, as the operations
    read it: the piece just left of p, found by bisecting the breakpoints.
    Where a breakpoint of f was merged away inside the interval, that is the
    last piece inside."""
    return f.slope_sequence()[bisect.bisect_left(f.breakpoints, p)]


def _merge_close_loop(points, values):
    """Breakpoints within MERGE_TOL of the last kept one collapse into it,
    which keeps the first of the largest values: the sequential rule."""
    out_p, out_v = [points[0]], [values[0]]
    for p, v in zip(points[1:], values[1:]):
        if p - out_p[-1] <= 1e-12:
            out_v[-1] = max(out_v[-1], v)
        else:
            out_p.append(p)
            out_v.append(v)
    return out_p, out_v


def _common_grid_loop(f, g):
    """The common domain and its grid, built point by point: the breakpoints
    of f and g in it and its finite ends, deduplicated, sorted and merged by
    the sequential rule; domains that meet in one point give that point."""
    lo, hi = max(f.domain[0], g.domain[0]), min(f.domain[1], g.domain[1])
    if hi < lo:
        raise EmptyDomain("domains are disjoint")
    pts = [b for b in f.breakpoints + g.breakpoints if lo <= b <= hi]
    pts += [e for e in (lo, hi) if abs(e) < INF]
    pts = sorted(set(pts))
    return lo, hi, _merge_close_loop(pts, pts)[0]


def _pwl_add_bisect(f, g):
    """The sum with each point and interval looked up by f(x) and _slope_left_of."""
    lo, hi, pts = _common_grid_loop(f, g)
    vals = [f(p) + g(p) for p in pts]
    slopes = [_slope_left_of(f, p) + _slope_left_of(g, p) for p in pts[1:]]
    sl = -INF if lo > -INF else f.slope_left + g.slope_left
    sr = INF if hi < INF else f.slope_right + g.slope_right
    return PwlFunction._from_op(pts, vals, sl, sr, slopes)


def _pwl_max_bisect(f, g):
    """The maximum with each point and interval looked up by f(x) and
    _slope_left_of, the upper function picked at the interval's midpoint."""
    lo, hi, pts = _common_grid_loop(f, g)
    full = list(pts)
    for a, b in zip(pts, pts[1:]):
        da, db = f(a) - g(a), f(b) - g(b)
        if da == 0.0 or db == 0.0 or (da > 0) == (db > 0):
            continue
        x = a + da * (b - a) / (da - db)
        if a + 1e-12 < x < b - 1e-12:
            full.append(x)
    sl = -INF if lo > -INF else min(f.slope_left, g.slope_left)
    sr = INF if hi < INF else max(f.slope_right, g.slope_right)
    # a tail crossing beyond the float range leaves the tail to the function
    # above at the end point
    if lo == -INF and f.slope_left != g.slope_left:
        x = pts[0] - (f(pts[0]) - g(pts[0])) / (f.slope_left - g.slope_left)
        if -INF < x < pts[0] - 1e-12:
            full.append(x)
        if x == -INF:
            sl = (f if f(pts[0]) > g(pts[0]) else g).slope_left
    if hi == INF and f.slope_right != g.slope_right:
        x = pts[-1] - (f(pts[-1]) - g(pts[-1])) / (f.slope_right - g.slope_right)
        if pts[-1] + 1e-12 < x < INF:
            full.append(x)
        if x == INF:
            sr = (f if f(pts[-1]) > g(pts[-1]) else g).slope_right
    full = sorted(set(full))
    vals = [max(f(p), g(p)) for p in full]
    slopes = []
    for p1, p2 in zip(full, full[1:]):
        m = (p1 + p2) / 2.0
        slopes.append(_slope_left_of(f if f(m) >= g(m) else g, p2))
    return PwlFunction._from_op(full, vals, sl, sr, slopes)


def _outcome(op, *args):
    """Every field of op(*args) by float.hex, or the error it raises."""
    try:
        h = op(*args)
    except ConvendoError as exc:
        return type(exc), str(exc)
    return [[v.hex() for v in vs] for vs in _data(h)[:3]] + \
        [h.slope_left.hex(), h.slope_right.hex()]


@st.composite
def pwl_pairs(draw):
    """Two inputs: independent, or the second a shifted copy of the first
    (breakpoints that coincide, merge or nearly merge, many crossings).
    Tails are truncated at random, so both may share an unbounded tail, and
    point indicators give a common domain of one point or none."""
    f = draw(_LEGENDRE_INPUTS)
    if draw(st.booleans()):
        return f, draw(_LEGENDRE_INPUTS)
    dx = draw(st.sampled_from([0.0, 1e-13, 1e-12, 2e-12, 1e-9])) * draw(st.sampled_from([1, -1]))
    dx += draw(st.sampled_from([0.0, 0.0, 0.3]))
    dv = draw(st.floats(-1.0, 1.0))
    g = PwlFunction([b + dx for b in f.breakpoints], [v + dv for v in f.values],
                    draw(st.sampled_from([f.slope_left, -INF, f.slope_left - 0.5])),
                    draw(st.sampled_from([f.slope_right, INF, f.slope_right + 0.5])))
    return (f, g) if draw(st.booleans()) else (g, f)


@settings(max_examples=400, deadline=None)
@given(pwl_pairs())
def test_add_and_max_match_bisection_hypothesis(pair):
    f, g = pair
    assert _outcome(pwl_add, f, g) == _outcome(_pwl_add_bisect, f, g)
    assert _outcome(pwl_max, f, g) == _outcome(_pwl_max_bisect, f, g)


@pytest.mark.parametrize("b", [1e4, 3.0e5, 2.0 ** 20, -7.5e6])
@pytest.mark.parametrize("side", [-INF, INF])
def test_add_and_max_match_bisection_where_midpoints_round_onto_a_breakpoint(b, side):
    # neighbouring floats more than MERGE_TOL apart: the midpoint between a
    # point and its neighbour rounds onto one of them, so both the operations
    # and the oracles read the piece between the two, and no pair raises
    near = math.nextafter(b, side)
    at_b = (PwlFunction([b], [0.0], -1.0, 1.0),
            PwlFunction([b - 1.0, b], [1.0, 0.0], -2.0, 1.0),
            PwlFunction([b, b + 1.0], [0.0, 1.0], -1.0, 2.0))
    at_near = (PwlFunction([near], [0.0], -2.0, 2.0),
               PwlFunction([near], [-1.0], -0.5, 0.5),
               PwlFunction([near, near + 3.0 * abs(near - b)], [5.0, 5.0], -3.0, 3.0))
    for one, other in itertools.product(at_b, at_near):
        for f, g in ((one, other), (other, one)):
            for op, oracle in ((pwl_add, _pwl_add_bisect), (pwl_max, _pwl_max_bisect)):
                got = _outcome(op, f, g)
                assert isinstance(got, list), (op.__name__, f, g, got)
                assert got == _outcome(oracle, f, g)


def _scaled(f, c):
    """x -> c f(x / c); exact in floats for a power of two c."""
    return PwlFunction([c * b for b in f.breakpoints], [c * v for v in f.values],
                       f.slope_left, f.slope_right)


def test_add_and_max_read_midpoints_that_overflow():
    # near the float maximum p1 + p2 overflows; the midpoints read must be
    # those of the same data scaled down by 2**-10, bit for bit
    for f, g in ((PwlFunction([1e308, 1.5e308], [0.0, 0.0], -1.0, 1.0),
                  PwlFunction([1.2e308], [0.0], -1.0, 1.0)),
                 (PwlFunction([1e308, 1.5e308], [0.0, 0.0], -1.0, 1.0),
                  PwlFunction([1.1e308, 1.6e308], [0.0, 0.0], -INF, INF)),
                 (PwlFunction([1e308, 1.5e308], [0.0, 5e307], -1.0, 1.0),
                  PwlFunction([1.2e308], [0.0], 0.0, 0.0)),
                 (PwlFunction([-1.5e308, -1e308], [0.0, 0.0], -1.0, 1.0),
                  PwlFunction([-1.2e308], [0.0], -1.0, 1.0))):
        for a, b in ((f, g), (g, f)):
            for op in (pwl_add, pwl_max):
                h = op(_scaled(a, 2.0 ** -10), _scaled(b, 2.0 ** -10))
                assert _outcome(op, a, b) == _outcome(lambda *_: _scaled(h, 2.0 ** 10), a, b)
    h = pwl_add(PwlFunction([1e308, 1.5e308], [0.0, 0.0], -1.0, 1.0),
                PwlFunction([1.2e308], [0.0], -1.0, 1.0))
    assert h.slopes == (-1.0, 1.0)


def test_overflow_in_the_array_passes_is_silent():
    # each case overflows a difference or a product inside the constructor
    # or an operation, where the scalar float arithmetic that the array
    # passes replace gives inf or nan without a word
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        big = PwlFunction([0.0, 1.0], [-1e308, 1e308], 0.0, INF)
        assert big.slopes == (INF,)
        with pytest.raises(BadShape, match="disagrees"):
            PwlFunction([0.0, 1.5], [0.0, 1.0], 0.0, INF, slopes=[1.7e308])
        up, down = PwlFunction([0.0], [1e308], -1.0, 1.0), PwlFunction([0.0], [-1e308], -1.0, 1.0)
        steep = PwlFunction([0.0], [0.0], 1e308, 1.5e308)
        assert _outcome(pwl_max, up, down) == _outcome(_pwl_max_bisect, up, down)
        assert _outcome(pwl_add, big, up) == _outcome(_pwl_add_bisect, big, up)
        assert _outcome(legendre, steep) == _outcome(_legendre_scan, steep)
        assert _outcome(legendre, big) == _outcome(_legendre_scan, big)


def test_max_finds_a_crossing_whose_width_overflows():
    # b - a overflows on [-1e308, 1e308]: the crossing is interpolated in
    # halves, and so is each input's secant slope, so both read 0.5 at 0
    f = PwlFunction([-1e308, 1e308], [0.0, 1.0], -1.0, 1.0)
    g = PwlFunction([-1e308, 1e308], [1.0, 0.0], -1.0, 1.0)
    assert f.slopes == (5e-309,) and g.slopes == (-5e-309,)
    for a, b in ((f, g), (g, f)):
        h = pwl_max(a, b)
        assert h.breakpoints == (-1e308, 0.0, 1e308)
        assert h(0.0) == 0.5


def _two_paths(f, x):
    """f at x by __call__ and by eval_many, the operations' array read, as float.hex."""
    return {f(x).hex(), float(f.eval_many([x])[0]).hex()}


def test_pieces_wider_than_the_float_range_read_in_halves():
    # x - b overflows: each path takes v + 2 (m (x/2 - b/2)), as the
    # constructor takes the secant; it read inf (and nan for the sum) before
    f = PwlFunction([-1e308, 1e308], [0.0, 1.0], -1.0, 1.0)
    (got,) = _two_paths(f, 0.95e308)
    assert float.fromhex(got) == pytest.approx(0.975, rel=1e-12, abs=1e-12)
    mirror = PwlFunction([-1e308, 1e308], [1.0, 0.0], -1.0, 1.0)
    assert _two_paths(pwl_add(f, mirror), 0.95e308) == {(1.0).hex()}
    tail = PwlFunction([-1e308], [0.0], -1.0, 0.25)
    assert _two_paths(tail, 1e308) == {(5e307).hex()}
    # a crossing inside [-1.5e308, 1.5e308] leaves a piece of the maximum
    # wider than the float range, where g is the upper function
    g = PwlFunction([-1.5e308], [0.9], -1.0, -1e-310)
    h = pwl_max(PwlFunction([-1.5e308, 1.5e308], [0.0, 1.0], -1.0, 1.0), g)
    assert h.slopes[0] == -1e-310 and h.breakpoints[1] - h.breakpoints[0] == INF
    (got,) = _two_paths(h, 1e308)
    assert float.fromhex(got) == pytest.approx(0.875, rel=1e-12)
    # where x - b stays finite nothing moves, and +-inf keep their values
    assert _two_paths(f, 0.5e308) == {(0.0 + f.slopes[0] * (0.5e308 - -1e308)).hex()}
    x = math.nextafter(1e308, INF)  # the right tail starts at the float after the last
    assert _two_paths(f, x) == {(1.0 + 1.0 * (x - 1e308)).hex()}
    assert _two_paths(tail, INF) == _two_paths(tail, -INF) == {INF.hex()}
    # a flat piece reads its value v, -0.0 too, not v + 2 (0 (x/2 - b/2)) = 0.0
    assert _two_paths(PwlFunction([-1e308], [-0.0], 0.0, 0.0), 1e308) == {(-0.0).hex()}
    assert _two_paths(pwl_indicator(-1e308, 1e308), 1.7e308) == {INF.hex()}


def test_add_and_max_keep_the_sign_of_zero():
    f = PwlFunction([0.0], [0.0], -1.0, 1.0)
    g = PwlFunction([0.0], [-0.0], -2.0, 2.0)
    # a last breakpoint 0.0 read at the grid point -0.0 keeps its value -0.0
    h = PwlFunction([-1.0, 0.0], [1.0, -0.0], -2.0, 1.0)
    e = PwlFunction([-0.0, 1.0], [-0.0, -1.0], -3.0, 3.0)
    assert pwl_add(e, h).values[1].hex() == (-0.0).hex()
    for a, b in ((f, g), (g, f), (e, h), (h, e)):
        assert _outcome(pwl_add, a, b) == _outcome(_pwl_add_bisect, a, b)
        assert _outcome(pwl_max, a, b) == _outcome(_pwl_max_bisect, a, b)


@pytest.mark.parametrize("seed", [0, 1])
def test_add_and_max_match_bisection_at_scale(seed):
    # 512 breakpoints each: interpolants of one parabola on interleaved
    # nodes, which cross in most intervals
    rng = rng_from_seed(seed)
    pairs = []
    for sl, sr in ((-12.0, 12.0), (-INF, 12.0), (-12.0, INF), (-INF, INF)):
        bp = np.sort(rng.uniform(-5.0, 5.0, 512))
        f = PwlFunction(bp, bp ** 2, sl, sr)
        g = PwlFunction(bp + 0.004, (bp + 0.004) ** 2 + 1e-5, -12.5, 12.5)
        pairs += [(f, g), (g, f)]
    for f, g in pairs:
        assert _outcome(pwl_add, f, g) == _outcome(_pwl_add_bisect, f, g)
        assert _outcome(pwl_max, f, g) == _outcome(_pwl_max_bisect, f, g)


# -- slopes passed to the constructor must agree with the values ----------------

def test_slopes_disagreeing_with_values_are_refused():
    # the values jump to 5 at 1 while both slopes say flat: f(0.999) = 0.0,
    # f(1.0) = 5.0 was accepted as a convex function
    with pytest.raises(BadShape):
        PwlFunction([0, 1, 2], [0, 5, 0], 0, 0, slopes=[0, 0])
    with pytest.raises(BadShape):
        PwlFunction([0.0, 1.0], [0.0, 1.0], 0.0, 2.0, slopes=[float("nan")])
    with pytest.raises(BadShape):
        PwlFunction([0.0, 1.0], [0.0, 1.0], 0.0, INF, slopes=[INF])
    # relative to the values, and to at least 1: 1e-10 of 1e6 and 5e-10
    # near 0 pass, 1e-8 of either does not
    PwlFunction([0.0, 1.0], [1e6, 1e6 + 1e-4], 0.0, 1.0, slopes=[0.0])
    PwlFunction([0.0, 1.0], [0.0, 5e-10], 0.0, 1.0, slopes=[0.0])
    with pytest.raises(BadShape):
        PwlFunction([0.0, 1.0], [1e6, 1e6 + 1e-2], 0.0, 1.0, slopes=[0.0])
    with pytest.raises(BadShape):
        PwlFunction([0.0, 1.0], [0.0, 1e-8], 0.0, 1.0, slopes=[0.0])
    # and relative to |m| max(|b1|, |b2|), the size of the terms m * b that
    # values far from 0 are computed from
    PwlFunction([1e9 + 0.25, 1e9 + 0.75], [0.025000005960464478, 0.07500000298023224],
                -0.9, 1.1, slopes=[0.1])
    with pytest.raises(BadShape):
        PwlFunction([1e9 + 0.25, 1e9 + 0.75], [0.0, 0.3], -0.9, 1.1, slopes=[0.1])


def test_operations_accept_values_rounded_from_large_terms():
    # f at 1e9 + 0.25 and 1e9 + 0.75 is -1e8 + 0.1 x: 0.025 and 0.075 on
    # the 2**-26 grid of 1e8, 3e-9 off the slope 0.1 between them
    f = PwlFunction([0.0], [-1e8], 0.1, 0.1)
    g = PwlFunction([1e9 + 0.25, 1e9 + 0.75], [0.0, 0.0], -1.0, 1.0)
    # a slope of 2.7e6 crosses the flat 0.5 near 4785: the rounding of the
    # crossing puts 0.5 + 5e-7 at it, read on the flat side
    c, s = 4785.144227477605, 2663275.827900337
    f2 = PwlFunction([c - 1.0, c + 1.0], [0.5, 0.5], -1.0, 1.0)
    g2 = PwlFunction([c - 0.5], [0.5 - 0.3 * s], -1.0, s)
    for a, b in ((f, g), (g, f), (f2, g2), (g2, f2)):
        for op, oracle in ((pwl_add, _pwl_add_bisect), (pwl_max, _pwl_max_bisect)):
            out = _outcome(op, a, b)
            assert isinstance(out, list)
            assert out == _outcome(oracle, a, b)
    assert pwl_add(f, g).slopes[1] == 0.1


def test_legendre_widens_a_value_scan_to_the_next_breakpoint():
    # slopes 3.3e-12 apart, so each is a group of one: the value at the first
    # finite slope is read from its two breakpoints, where the full scan
    # (and the old window pass) also looked at the breakpoint after them
    f = PwlFunction._from_op([-1.7492137112862771, -1.7484435124802016],
                             [-0.4547946000110148, 0.0024581057735065803],
                             593.6814004093283, 595.1412230574331, [593.6814004093316])
    _check_legendre(f)


def test_legendre_keeps_the_first_of_tied_values():
    # at y = 1, b*y - v is 0.0 at -1 and -0.0 at -0.0: the first max is
    # taken, as the full scan takes it
    f = PwlFunction([-1.0, -0.0], [-1.0, 0.0], 0.0, 2.0)
    assert _check_legendre(f).values[1].hex() == (0.0).hex()


@pytest.mark.parametrize("seed", [0, 1])
def test_legendre_accepts_conjugate_values_rounded_from_large_terms(seed):
    # breakpoints and slopes near 1e4: the conjugate values b*y - v lie
    # within 0.02 of 0 and carry the rounding of b*y near 1e8
    rng = rng_from_seed(seed)
    for _ in range(100):
        k = int(rng.integers(2, 6))
        bp = np.sort(1e4 + 2.0 * rng.random(k))
        seq = np.sort(1e4 + 1e-5 * rng.random(k + 1))
        va = [bp[0] * seq[0] + rng.uniform(-0.01, 0.01)]
        for i in range(1, k):
            va.append(va[-1] + seq[i] * (bp[i] - bp[i - 1]))
        f = PwlFunction(bp, va, seq[0], seq[-1], slopes=seq[1:-1])
        _check_legendre(f)


def test_slopes_are_checked_in_value_space():
    # a gap of 1e-10 turns the values' rounding into a secant error of about
    # 1e-6; the slopes still agree with the values to rounding
    f = PwlFunction([0.0, 1e-10, 1.0], [1.0, 1.0 + 3e-10, 4.0], -1.0, 5.0, slopes=[3.0, 3.0])
    assert f.slopes == (3.0, 3.0)
    assert abs((f.values[1] - f.values[0]) / 1e-10 - 3.0) > 1e-9


def test_is_even_is_exact():
    # the tails must mirror, and p(b) == p(-b) at every breakpoint b
    assert is_even(PwlFunction([-4.0, 0.0, 4.0], [5.0, 1.0, 5.0], -2.0, 2.0))
    assert not is_even(PwlFunction([-4.0, 0.0, 4.0], [5.0, 1.0, 5.0], -2.0, 1.0))
    # mirrored tails, but even on [-10, 10] only: p(20) = 20, p(-20) = 30
    assert not is_even(PwlFunction([-10.0, 0.0, 20.0], [10.0, 0.0, 20.0], -2.0, 2.0))
    assert is_even(pwl_indicator(-1.5, 1.5)) and is_even(pwl_indicator(0.0, 0.0))
    assert not is_even(pwl_indicator(-1.5, 2.0))
    assert not is_even(PwlFunction([-1.5, 0.0, 1.5], [1.0, 0.0, 1.0], -INF, 1.0))
    # within 1e-9 max(1, |p|)
    assert is_even(PwlFunction([-1.0, 0.0, 1.0], [1.0, 0.0, 1.0 + 1e-12], -2.0, 2.0))
    assert not is_even(PwlFunction([-1.0, 0.0, 1.0], [1.0, 0.0, 1.0 + 1e-8], -2.0, 2.0))


def test_constructor_merges_breakpoints_within_merge_tol():
    f = PwlFunction([0.0, 5e-13, 1.0], [0.0, 0.1, 1.0], -1.0, 2.0)
    assert f.breakpoints == (0.0, 1.0) and f.values == (0.1, 1.0)
    assert f.slopes == ((1.0 - 0.1) / 1.0,)
    # explicit slopes are dropped with the merge and recomputed from the values
    g = PwlFunction([0.0, 5e-13, 1.0], [0.0, 0.1, 1.0], -1.0, 2.0, slopes=[1.5, 0.5])
    assert (g.breakpoints, g.values, g.slopes) == (f.breakpoints, f.values, f.slopes)


def test_add_reads_the_piece_between_neighbouring_floats():
    # the midpoint of 1e4 and its neighbour rounds onto 1e4, the lone
    # breakpoint of f, which raised EmptyDomain on two finite functions
    f = PwlFunction([1e4], [0.0], -1.0, 1.0)
    g = PwlFunction([math.nextafter(1e4, math.inf)], [0.0], -2.0, 2.0)
    assert pwl_add(f, g).slope_sequence() == (-3.0, -1.0, 3.0)
    assert pwl_add(g, f).slope_sequence() == (-3.0, -1.0, 3.0)


def test_slope_on_raises_only_on_a_point_domain():
    assert pwl_abs().slope_on(0.0) == -1.0  # the last breakpoint reads the piece on its left
    assert PwlFunction([0.0, 1.0], [0.0, 2.0], -1.0, 3.0).slope_on(1.0) == 2.0
    assert pwl_indicator(0.0, 1.0).slope_on(0.0) == 0.0
    with pytest.raises(EmptyDomain):
        pwl_indicator(2.0, 2.0).slope_on(2.0)


# -- array passes against the loops they replaced ---------------------------------

def _is_even_loop(p):
    """is_even as a scalar loop over the breakpoints."""
    if p.slope_left != -p.slope_right:
        return False
    for b in p.breakpoints:
        u, v = p(b), p(-b)
        if u != v and not abs(u - v) <= 1e-9 * max(1.0, abs(u), abs(v)) < INF:
            return False
    return True


@st.composite
def nearly_even(draw):
    """x -> c x^2 interpolated on mirrored breakpoints, then one value nudged
    (within or beyond the tolerance), one breakpoint moved, a tail changed
    or truncated (p(-b) = inf beyond a truncated side)."""
    half = sorted(set(draw(st.lists(st.floats(0.01, 5.0), min_size=1, max_size=6))))
    bp = [-b for b in reversed(half)] + [0.0] * draw(st.booleans()) + half
    c = draw(st.floats(0.1, 3.0))
    va = [c * b * b for b in bp]
    i = draw(st.integers(0, len(bp) - 1))
    va[i] *= 1.0 + draw(st.sampled_from([0.0, 1e-12, 1e-10, 1e-8, 1e-3]))
    j = draw(st.integers(0, len(bp) - 1))
    moved = bp[j] + draw(st.sampled_from([0.0, 1e-9, 1e-3]))
    if (j == 0 or bp[j - 1] < moved) and (j == len(bp) - 1 or moved < bp[j + 1]):
        bp[j] = moved
    s = 2.0 * c * half[-1] + 1.0
    sr = draw(st.sampled_from([s, s + 0.5, INF]))
    sl = draw(st.sampled_from([-sr, -s, -INF]))
    try:
        return PwlFunction(bp, va, sl, sr)
    except NonConvex:
        return pwl_abs()


@settings(max_examples=300, deadline=None)
@given(nearly_even())
def test_is_even_matches_the_scalar_loop(p):
    assert is_even(p) == _is_even_loop(p)


@st.composite
def chained_runs(draw, steps=(0.0, 3e-13, 6e-13, 9e-13, 1e-12)):
    """Points at ordinary gaps, some opening a run of two to five more, each
    a step within MERGE_TOL of the previous one: the gap to the previous
    point and the sequential keep-the-first rule drop different points.
    Near 5000 an ulp is close to MERGE_TOL, and the steps round to 0 or 1 ulp."""
    pts = [draw(st.sampled_from([0.0, 5000.0])) + draw(st.floats(-5.0, 5.0))]
    for _ in range(draw(st.integers(1, 8))):
        pts.append(pts[-1] + draw(st.floats(1e-3, 1.0)))
        for _ in range(draw(st.sampled_from([0, 0, 2, 3, 5]))):
            pts.append(pts[-1] + draw(st.sampled_from(steps)))
    return pts


@settings(max_examples=300, deadline=None)
@given(chained_runs(), st.floats(-2.0, 2.0), st.booleans())
def test_constructor_merges_chained_runs_by_the_sequential_rule(bp, v0, truncate):
    # values of x^2 + v0, merged as the sequential rule merges them, then
    # built from data that needs no merge
    va = [b * b + v0 for b in bp]
    sl, sr = (-INF, INF) if truncate else (-40.0, 40.0)
    merged = _merge_close_loop(bp, va)
    assert _outcome(PwlFunction, bp, va, sl, sr) == _outcome(PwlFunction, *merged, sl, sr)


def _exact_pieces(bp, seq, v0):
    """Convex data with the given breakpoints and slope sequence, its values
    accumulated along the pieces and its slopes passed as they are."""
    va = [v0]
    for m, b1, b2 in zip(seq[1:], bp, bp[1:]):
        va.append(va[-1] + m * (b2 - b1))
    return PwlFunction(bp, va, seq[0], seq[-1], slopes=seq[1:-1])


@settings(max_examples=150, deadline=None)
@given(chained_runs(steps=(6e-13, 9e-13, 1e-12)), st.data())
def test_add_and_max_merge_chained_grids_by_the_sequential_rule(pts, data):
    # f takes every other point of the runs and g the rest, so that the
    # common grid holds runs that neither input has alone
    f_bp, g_bp = pts[0::2], pts[1::2] or [pts[0] + 0.5]
    assume(all(q - p > 1e-12 for bp in (f_bp, g_bp) for p, q in zip(bp, bp[1:])))
    slopes = st.lists(st.floats(0.01, 1.0), min_size=len(pts) + 1, max_size=len(pts) + 1)
    f = _exact_pieces(f_bp, list(np.cumsum(data.draw(slopes))[:len(f_bp) + 1] - 3.0), 0.5)
    g = _exact_pieces(g_bp, list(np.cumsum(data.draw(slopes))[:len(g_bp) + 1] - 3.0), -0.5)
    for a, b in ((f, g), (g, f)):
        assert _outcome(pwl_add, a, b) == _outcome(_pwl_add_bisect, a, b)
        assert _outcome(pwl_max, a, b) == _outcome(_pwl_max_bisect, a, b)


def test_add_and_max_read_the_piece_left_of_the_upper_end():
    # g's last breakpoint 4 + 6e-13 merges into 4.0, inside the grid interval
    # (4.0, 4 + 1.2e-12), and is the midpoint of that interval: the interval
    # takes g's slope just left of the upper end, the tail slope 2, where a
    # midpoint read took the slope 1 on g's left
    b1 = 4.0 + 6e-13
    b2 = b1 + 6e-13
    f = _exact_pieces([0.0, 2.0, 4.0, b2], [-3.0, -2.5, -1.5, 0.5, 1.5], 0.5)
    g = _exact_pieces([1.0, 3.0, b1], [-2.0, -1.0, 1.0, 2.0], -0.5)
    assert (b1.hex(), b2.hex()) == ("0x1.00000000002a4p+2", "0x1.0000000000548p+2")
    F, G = exact_pwl.Exact(f), exact_pwl.Exact(g)
    xs = [-1.0, 2.0, 4.0, 4.0 + 3e-13, b1, 4.0 + 9e-13, b2, 5.0]
    for op, seq, want in ((pwl_add, (-5.0, -4.5, -3.5, -2.5, -0.5, 2.5, 3.5), exact_pwl.add(F, G)),
                          (pwl_max, (-3.0, -2.0, -2.0, -1.0, -1.0, 1.0, 2.0, 2.0),
                           exact_pwl.maximum(F, G))):
        for a, b in ((f, g), (g, f)):
            h = op(a, b)
            assert [m.hex() for m in h.slope_sequence()] == [m.hex() for m in seq]
            assert h.breakpoints[-2:] == (4.0, b2)
            # within the merge allowance of the exact sum or max
            for x, got in zip(xs, h.eval_many(xs).tolist()):
                assert exact_pwl.agrees(got, want(Fraction(x)), F.size(x) + G.size(x),
                                        4 * Fraction(MERGE_TOL) * 3)


@settings(max_examples=200, deadline=None)
@given(chained_runs(), st.booleans(), st.booleans())
def test_legendre_groups_chained_slopes_by_the_sequential_rule(seq, cut_left, cut_right):
    # the slopes run in chains, so the slope groups of the conjugate do
    bp = list(np.cumsum(np.full(len(seq) - 1, 0.25)))
    f = _exact_pieces(bp or [0.0], seq if bp else seq[:1] * 2, 1.0)
    f = PwlFunction(f.breakpoints, f.values, -INF if cut_left else f.slope_left,
                    INF if cut_right else f.slope_right, slopes=f.slopes)
    _check_legendre(f)


def _random_convex_pwl_loop(rng, max_breaks=8, allow_tails=True):
    """random_convex_pwl as its loops drew it, point by point."""
    k = int(rng.integers(1, max_breaks + 1))
    bps = np.sort(rng.uniform(-3.0, 3.0, size=k))
    keep = [0]
    for i in range(1, k):
        if bps[i] - bps[keep[-1]] > 1e-2:
            keep.append(i)
    bps = bps[keep]
    k = bps.size
    gaps = rng.uniform(1e-3, 1.5, size=k + 1)
    slopes = np.cumsum(gaps) + rng.uniform(-2.0, 0.0)
    sl, sr = slopes[0], slopes[-1]
    if allow_tails and rng.random() < 0.25:
        sl = -INF
    if allow_tails and rng.random() < 0.25:
        sr = INF
    vals = [rng.uniform(-2.0, 2.0)]
    for i in range(1, k):
        vals.append(vals[-1] + slopes[i] * (bps[i] - bps[i - 1]))
    return PwlFunction(bps, vals, sl, sr, slopes=list(slopes[1:-1]))


@pytest.mark.parametrize("max_breaks", [1, 2, 8, 64, 400])
def test_random_convex_pwl_draws_as_the_loops_drew(max_breaks):
    # at 400 breakpoints on [-3, 3], gaps under 1e-2 are common and runs of
    # them (the sequential rule) occur in most draws
    a, b = rng_from_seed(max_breaks), rng_from_seed(max_breaks)
    for _ in range(200 if max_breaks < 100 else 20):
        for tails in (True, False):
            want = _outcome(_random_convex_pwl_loop, a, max_breaks, tails)
            assert _outcome(random_convex_pwl, b, max_breaks, tails) == want
    assert a.random() == b.random()
