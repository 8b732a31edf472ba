import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from convendo import (INF, Affine, BadShape, BallIndicator, PerturbationNotConvex, Scale,
                      Sum, epi_converges_probe, gw_probe, is_convex_block,
                      is_convex_sampled, moreau_envelope, pwl_abs, pwl_add,
                      pwl_scale, PwlFunction)
from convendo.fixtures import gw_bases_nd, radial_hat_parts
from convendo.rand import random_finite_expr, rng_from_seed

GRID = np.arange(-2.0, 2.0001, 0.1)


def test_convex_sampled_accepts_abs():
    assert is_convex_sampled(lambda x: abs(x), GRID)


def test_convex_sampled_rejects_concave():
    assert not is_convex_sampled(lambda x: -x * x, GRID)


def test_convex_sampled_vacuous_on_infinite():
    assert is_convex_sampled(lambda x: INF, GRID)


def test_convex_sampled_flags_infinite_gap():
    def f(x):
        return INF if abs(x) < 0.05 else x * x
    assert not is_convex_sampled(f, GRID)


def test_epi_probe_shrinking_vee():
    rep = epi_converges_probe(lambda j: (lambda x: abs(x) / j),
                              lambda x: 0.0, [(-1.0, 1.0)], tol=1e-6, j_max=8)
    assert not rep.passed  # 1/8 above tol
    assert rep.sup_dists[0][-1] == pytest.approx(1.0 / 8)
    rep = epi_converges_probe(lambda j: (lambda x: abs(x) / j),
                              lambda x: 0.0, [(-1.0, 1.0)], tol=0.2, j_max=8)
    assert rep.passed


def test_epi_probe_moreau_matches_huber_rate():
    f = pwl_abs()
    rep = epi_converges_probe(lambda j: moreau_envelope(f, 1.0 / j), f,
                              [(-1.0, 1.0)], tol=0.1, j_max=10)
    # sup distance of the envelope on [-1, 1] is t/2 = 1/(2j), from the
    # quadratic cap of height t/2 at the kink
    for j, d in zip(rep.indices, rep.sup_dists[0]):
        assert d == pytest.approx(1.0 / (2 * j), abs=1e-12)
    assert rep.passed


def test_epi_probe_fails_for_shifted():
    rep = epi_converges_probe(lambda j: (lambda x: abs(x) + j),
                              lambda x: abs(x), [(-1.0, 1.0)], tol=1e-3, j_max=4)
    assert not rep.passed


def _hat_parts():
    # tent of height 1 at 0 with radius 1
    plus = pwl_add(PwlFunction([-1.0], [0.0], 0.0, 1.0),
                   PwlFunction([1.0], [0.0], 0.0, 1.0))
    minus = PwlFunction([0.0], [0.0], 0.0, 2.0)
    return plus, minus


def _eval_minus_origin():
    return lambda f, x: f(x) - f(0.0)


def test_gw_probe_hat_values():
    em = _eval_minus_origin()
    plus, minus = _hat_parts()
    f1 = pwl_scale(2.0, minus)
    f2 = pwl_scale(3.0, minus)
    # oracle: direct evaluation of f(x) - f(0) difference on the tent
    val, ok = gw_probe(em, 0.5, plus, minus, (f1, f2))
    hat = lambda y: plus(y) - minus(y)
    assert ok
    assert val == pytest.approx(hat(0.5) - hat(0.0), abs=1e-12)
    assert val == pytest.approx(-0.5, abs=1e-12)

    val, ok = gw_probe(em, 5.0, plus, minus, (f1, f2))
    assert ok
    assert val == pytest.approx(-1.0, abs=1e-12)


def test_gw_probe_zero_map():
    em = lambda f, x: 0.0
    plus, minus = _hat_parts()
    f1 = pwl_scale(2.0, minus)
    f2 = pwl_scale(3.0, minus)
    val, ok = gw_probe(em, 0.3, plus, minus, (f1, f2))
    assert ok and val == 0.0


def test_gw_probe_rejects_nonconvex_base():
    em = _eval_minus_origin()
    plus, minus = _hat_parts()
    flat = PwlFunction([0.0], [0.0], 0.0, 0.0)
    with pytest.raises(PerturbationNotConvex):
        gw_probe(em, 0.0, plus, minus, (flat, pwl_scale(2.0, minus)))


# -- the block certificate against the pair loop it replaced -----------------------

def pair_loop(f, grid, tol):
    """The scalar certificate: every finite pair in turn, stopping at the
    first violated midpoint."""
    grid = np.asarray(grid, dtype=float)
    vals = np.array([f(x) for x in grid])
    finite = np.isfinite(vals)
    if finite.sum() == 0:
        return True
    eff = tol * max(1.0, float(np.abs(vals[finite]).max()))
    idx = np.nonzero(finite)[0]
    for ii, i in enumerate(idx):
        for j in idx[ii + 1:]:
            fm = f((grid[i] + grid[j]) / 2.0)
            if fm == INF or fm > (vals[i] + vals[j]) / 2.0 + eff:
                return False
    return True


GRIDS = st.lists(st.floats(-4.0, 4.0), min_size=3, max_size=24).map(sorted)
SEEDS = st.integers(min_value=0, max_value=10 ** 9)


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.integers(min_value=1, max_value=3), GRIDS, st.booleans())
def test_block_matches_pair_loop_on_tree_lines(seed, n, grid, convex):
    # a tree, possibly cut to a ball, along a random line; minus a second
    # tree it is in general not convex
    rng = rng_from_seed(seed)
    f = random_finite_expr(rng, n)
    if rng.random() < 0.5:
        f = Sum([f, BallIndicator(float(rng.uniform(0.5, 3.0)))])
    g = Scale(0.0 if convex else float(rng.uniform(0.5, 2.0)), random_finite_expr(rng, n))
    base, d = rng.uniform(-1.0, 1.0, size=n), rng.normal(size=n)
    F = lambda T: f.eval_many(base + T[:, None] * d) - g.eval_many(base + T[:, None] * d)
    verdict = pair_loop(lambda t: f(base + t * d) - g(base + t * d), grid, 1e-9)
    assert is_convex_block(F, grid, 1e-9) == verdict
    if convex:
        assert verdict


@settings(max_examples=80, deadline=None)
@given(GRIDS, st.floats(-4.0, 4.0), st.floats(0.0, 2.0), st.floats(-1.0, 1.0))
def test_block_matches_pair_loop_with_infinite_gap(grid, center, width, bend):
    # finite on the grid points outside an open gap, +inf inside it; a gap
    # between grid points leaves finite endpoints around +inf midpoints
    def f(t):
        return INF if abs(t - center) < width else bend * t * t
    F = lambda T: np.where(np.abs(T - center) < width, INF, bend * T * T)
    assert is_convex_block(F, grid, 1e-9) == pair_loop(f, grid, 1e-9)


@pytest.mark.parametrize("bump,convex", [(1e-5, True), (1e-2, False)])
def test_block_tolerance_scales_with_values(bump, convex):
    # tol 1e-9 times the largest finite value 1e6 forgives a bump of 1e-5
    F = lambda T: 1e6 + bump * (np.asarray(T) == 0.5)
    assert is_convex_block(F, [0.0, 1.0, 2.0]) == convex
    assert pair_loop(F, [0.0, 1.0, 2.0], 1e-9) == convex


@pytest.mark.parametrize("finite_at", [None, GRID[3]])
def test_block_matches_pair_loop_on_all_infinite_grid(finite_at):
    def f(t):
        return -5.0 if t == finite_at else INF
    F = lambda T: np.array([f(t) for t in T])
    assert is_convex_block(F, GRID) and pair_loop(f, GRID, 1e-9)


@settings(max_examples=60, deadline=None)
@given(GRIDS, st.lists(st.sampled_from([0.0, -0.0]), min_size=1, max_size=3),
       st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
def test_block_matches_pair_loop_on_grids_with_zero(grid, zeros, at_minus, at_plus):
    # a function that tells -0.0 from 0.0: merging the two midpoints would
    # evaluate the pair (-0.0, 0.0) at the wrong one
    grid = sorted(grid + zeros)

    def f(t):
        return (at_minus if math.copysign(1.0, t) < 0 else at_plus) if t == 0 else t * t
    F = lambda T: np.array([f(t) for t in T])
    assert is_convex_block(F, grid, 1e-9) == pair_loop(f, grid, 1e-9)


def test_block_signed_zero_midpoints_kept_apart():
    # pairs (-0.0, -0.0) and (0.0, 0.0) have midpoints -0.0 and 0.0; the pair
    # (-0.0, 0.0) has midpoint 0.0, where f is above the chord
    grid = [-0.0, -0.0, 0.0, 1.0]
    F = lambda T: np.array([0.0 if (t == 0 and math.copysign(1.0, t) < 0) else
                            (1.0 if t == 0 else t * t) for t in T])
    assert not is_convex_block(F, grid)
    assert not pair_loop(lambda t: F([t])[0], grid, 1e-9)


@pytest.mark.parametrize("grid,distinct", [
    (np.linspace(-3.0, 3.0, 41), 214), (np.linspace(-1.0, 1.0, 9), 15),
    (np.linspace(-4.0, 4.0, 81), 366)])
def test_block_evaluates_grid_then_each_distinct_midpoint_once(grid, distinct):
    calls = []

    def F(T):
        calls.append(np.array(T))
        return np.abs(T)
    assert is_convex_block(F, grid)
    assert len(calls) == 2
    assert np.array_equal(calls[0], grid)
    assert len(calls[1]) == distinct == len(set(calls[1].tolist()))


def test_gw_probe_rejects_nonconvex_base_along_lines():
    # the flat base does not absorb the concave ridge of the radial tent
    # at ||y|| = 1, which every line through the origin crosses
    plus, minus, hat = radial_hat_parts(rng_from_seed(0), 2, center=1.0, radius=0.5)
    flat = Affine(np.zeros(2), 0.0)
    lines = [(np.zeros(2), np.array([1.0, 0.0])), (np.array([0.1, 0.0]), np.array([0.6, 0.8]))]
    em = lambda f, x: f(x)
    with pytest.raises(PerturbationNotConvex):
        gw_probe(em, np.ones(2), plus, minus, (flat, flat), lines=lines)
    bases = gw_bases_nd(rng_from_seed(1), minus, 2)
    val, ok = gw_probe(em, np.ones(2), plus, minus, bases, lines=lines)
    assert ok and val == pytest.approx(hat(np.ones(2)), abs=1e-12)


def test_convex_block_needs_three_points():
    with pytest.raises(BadShape):
        is_convex_block(lambda T: T, np.array([0.0, 1.0]))


def test_epi_probe_samples_a_box_in_several_dimensions():
    # a 33 x 33 grid of [-1, 1] x [0, 2]; f_j = f + 1/j everywhere on it
    seen = []
    f = lambda p: seen.append(tuple(p)) or float(p @ p)
    rep = epi_converges_probe(lambda j: (lambda p: float(p @ p) + 1.0 / j), f,
                              [[(-1.0, 1.0), (0.0, 2.0)]], tol=0.3, j_max=4)
    assert len(seen) == 33 * 33 and len(set(seen)) == 33 * 33
    assert seen[0] == (-1.0, 0.0) and seen[1] == (-1.0, 2.0 / 32) and seen[-1] == (1.0, 2.0)
    assert rep.sup_dists[0].tolist() == pytest.approx([1.0, 0.5, 1.0 / 3, 0.25], abs=1e-12)
    assert rep.passed
