import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from convendo import (INF, BadShape, EmptyDomain, NegativeScale, NonConvex,
                      PwlFunction, inf_convolve, legendre, moreau_envelope,
                      pwl_abs, pwl_add, pwl_indicator, pwl_linear, pwl_make,
                      pwl_max, pwl_scale)
from convendo.rand import random_convex_pwl, random_finite_pwl, rng_from_seed


def test_make_abs():
    f = pwl_make([0], [0], -1, 1)
    assert f(0.0) == 0.0
    assert f(2.0) == 2.0
    assert f(-3.0) == 3.0


def test_make_indicator():
    f = pwl_make([-1, 1], [0, 0], -INF, INF)
    assert f(0.5) == 0.0
    assert f(-1.0) == 0.0
    assert f(1.0001) == INF
    assert f.domain == (-1.0, 1.0)


def test_make_nonconvex_rejected():
    with pytest.raises(NonConvex):
        pwl_make([0, 1], [0, -1], 0, 0)


def test_make_bad_shape():
    with pytest.raises(BadShape):
        pwl_make([0, 1], [0], -1, 1)
    with pytest.raises(BadShape):
        pwl_make([1, 0], [0, 0], -1, 1)
    with pytest.raises(BadShape):
        pwl_make([0], [0], INF, INF)


def test_add_two_vees():
    f = pwl_abs()
    g = pwl_make([1], [0], -1, 1)
    s = pwl_add(f, g)
    assert s.breakpoints == (0.0, 1.0)
    assert s.slope_left == -2.0
    assert s.slopes == (0.0,)
    assert s.slope_right == 2.0


def test_add_zero_is_identity():
    f = pwl_make([-1, 0.5, 2], [1, 0.25, 3], -2, 4)
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


def test_eval_many_matches_call():
    f = PwlFunction([0.1, 0.7, 1.3], [0.3, -0.2, 0.9], -2.0, 3.0)
    assert f.eval_many([1.3])[0] == f(1.3) == 0.9
    rng = rng_from_seed(22)
    for _ in range(50):
        f = random_convex_pwl(rng)
        xs = np.concatenate([f.breakpoints, rng.uniform(-5.0, 5.0, size=20)])
        assert f.eval_many(xs).tolist() == [f(x) for x in xs.tolist()]


def test_legendre_standard_pairs():
    dual = legendre(pwl_abs())
    assert dual.domain == (-1.0, 1.0)
    assert dual(0.3) == 0.0 and dual(1.2) == INF
    back = legendre(dual)
    assert back.breakpoints == (0.0,)
    assert back.slope_left == -1.0 and back.slope_right == 1.0

    hinge = pwl_make([0], [0], 0, 1)  # max(0, x)
    d = legendre(hinge)
    assert d.domain == (0.0, 1.0)
    assert d(0.5) == 0.0


def test_legendre_point_indicator_is_linear():
    point = pwl_make([2.0], [1.0], -INF, INF)
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
    point = pwl_make([0.0], [0.0], -INF, INF)
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
    env = moreau_envelope(pwl_make([0.0], [0.0], -INF, INF), 0.5)
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
    if not lo < hi:
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
    return PwlFunction(ys, vals, bp[0] if f.slope_left == -INF else -INF,
                       bp[-1] if f.slope_right == INF else INF, slopes=slopes)


def _data(f):
    return f.breakpoints, f.values, f.slopes, f.slope_left, f.slope_right


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
    g = legendre(f)
    assert _data(g) == _data(_legendre_scan(f))
    assert _data(legendre(g)) == _data(_legendre_scan(g))


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
        f = PwlFunction(bp, va, sl, sr, slopes=seq[1:-1])
        g = legendre(f)
        assert _data(g) == _data(_legendre_scan(f))
        assert _data(legendre(g)) == _data(_legendre_scan(g))


@pytest.mark.parametrize("seed", range(4))
def test_legendre_matches_full_scan_where_rounding_flattens(seed):
    # breakpoint gaps down to 1e-11 and slope gaps straddling the merge
    # tolerance: b*y - v is flat to rounding across many breakpoints, so the
    # scan must widen past the merged groups to find the same max and ties
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
        try:
            want = _data(_legendre_scan(f))
        except NonConvex:
            with pytest.raises(NonConvex):
                legendre(f)
            continue
        assert _data(legendre(f)) == want

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
