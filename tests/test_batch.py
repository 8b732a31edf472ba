"""The block evaluators against the point evaluators they replace in eval.

Each property draws a random tree and a block of points that holds the
origin, interior and exterior points and points exactly on a ball boundary,
then requires the same +inf rows and finite values within 1e-12 relative.
The same holds for ``op.eval_many(f, X)`` against ``op(f, x)`` for every
operator descriptor kind.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from convendo import (INF, BallIndicator, GlEndo, LineMeasure, Max, OrbitMeasure,
                      OriginNotInDomain, Precompose, Pwl1D, PwlFunction,
                      RadialEndo, RadialPwl, Scale, ScaleComposeMap, Sum,
                      expr_eval, expr_eval_many, gl_eval, gl_eval_detailed,
                      gl_eval_many, radial_eval, radial_eval_many, ray_domain,
                      scale_compose_eval, scale_compose_eval_many)
from convendo.expr import ray_domain_many
from convendo.serialize import endo_from_json, fn_from_json
from convendo.rand import (random_convex_pwl, random_finite_expr,
                           random_invertible, random_line_measure,
                           rng_from_seed)

SEEDS = st.integers(min_value=0, max_value=10 ** 9)


def _even_profile(rng):
    a = float(rng.uniform(0.3, 2.0))
    if rng.random() < 0.5:
        return PwlFunction([-a, a], [0.0, 0.0], -INF, INF)
    s = float(rng.uniform(0.0, 2.0))
    return PwlFunction([-a, 0.0, a], [s * a, 0.0, s * a], -s - 1.0, s + 1.0)


def random_tree(rng, n, depth=2):
    """Every node type: random_finite_expr covers Affine, Quad, Norm, Sum,
    Max and finite Pwl1D; the branches add the rest."""
    kind = int(rng.integers(0, 6))
    if depth == 0 or kind == 0:
        return random_finite_expr(rng, n)
    sub = random_tree(rng, n, depth - 1)
    if kind == 1:
        return Sum([sub, BallIndicator(float(rng.uniform(0.5, 3.0)))])
    if kind == 2:
        return Scale(0.0 if rng.random() < 0.3 else float(rng.uniform(0.1, 3.0)), sub)
    if kind == 3:
        return Precompose(random_invertible(rng, n), sub)
    if kind == 4:
        return Sum([RadialPwl(_even_profile(rng)), sub])
    d = rng.normal(size=n)
    return Max([Pwl1D(random_convex_pwl(rng, max_breaks=4), d / np.linalg.norm(d)), sub])


def _unit_rows(rng, k, n):
    u = rng.normal(size=(k, n))
    return u / np.linalg.norm(u, axis=1)[:, None]


def point_block(rng, n, radii):
    """Origin, random points, and points of norm exactly r for each r."""
    rows = [np.zeros((1, n)), rng.uniform(-3.0, 3.0, size=(12, n))]
    rows += [r * _unit_rows(rng, 3, n) for r in radii]
    return np.concatenate(rows)


def assert_same(batch, scalar):
    scalar = np.array(scalar, dtype=float)
    assert batch.shape == scalar.shape
    assert np.array_equal(np.isinf(batch), np.isinf(scalar))
    fin = np.isfinite(scalar)
    assert np.all(np.abs(batch[fin] - scalar[fin]) <= 1e-12 * np.maximum(1.0, np.abs(scalar[fin])))


@settings(max_examples=80, deadline=None)
@given(SEEDS, st.integers(min_value=1, max_value=4))
def test_expr_eval_many_matches_expr_eval(seed, n):
    rng = rng_from_seed(seed)
    f = Sum([random_tree(rng, n), BallIndicator(2.0)]) if rng.random() < 0.5 else random_tree(rng, n)
    X = point_block(rng, n, [2.0, 1.0])
    assert_same(expr_eval_many(f, X), [expr_eval(f, x) for x in X])
    Y = X[X.any(axis=1)]
    lo, hi = ray_domain_many(f, Y)
    ref = np.array([ray_domain(f, y) for y in Y])
    assert np.array_equal(lo, ref[:, 0]) and np.array_equal(hi, ref[:, 1])


def test_expr_eval_many_radial_profile_and_last_breakpoint():
    f = RadialPwl(PwlFunction([-1.3, 0.0, 1.3], [0.9, -0.2, 0.9], -2.0, 2.0))
    X = np.array([[1.3, 0.0], [0.0, -1.3], [0.3, 0.4], [3.0, 4.0], [0.0, 0.0]])
    assert_same(expr_eval_many(f, X), [expr_eval(f, x) for x in X])


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.integers(min_value=1, max_value=3))
def test_gl_eval_many_matches_gl_eval(seed, n):
    rng = rng_from_seed(seed)
    nu = random_line_measure(rng)
    e = GlEndo(float(rng.uniform(-1.0, 2.0)), nu, n)
    r = float(rng.uniform(0.5, 3.0))
    f = Sum([random_tree(rng, n), BallIndicator(r)])
    smax = max(abs(s) for s, _ in nu.atoms)
    X = point_block(rng, n, [r / smax, 0.5 * r / smax, 2.0 * r / smax])
    if expr_eval(f, np.zeros(n)) == INF:
        with pytest.raises(OriginNotInDomain):
            gl_eval_many(e, f, X)
        return
    assert_same(gl_eval_many(e, f, X), [gl_eval(e, f, x) for x in X])


def test_gl_eval_many_covers_boundary_and_empty_measure():
    e = GlEndo(0.7, LineMeasure([(1.5, 1.0), (-0.5, 2.0)]), 2)
    f = Sum([Pwl1D(PwlFunction([0.0], [0.0], -1.0, 2.0), [0.6, 0.8]), BallIndicator(3.0)])
    X = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, -2.0], [1.2, 1.6], [0.3, 0.4], [2.0, 2.0]])
    cases = [gl_eval_detailed(e, f, x)[1]["case"] for x in X]
    assert cases == ["origin", "boundary", "boundary", "boundary", "interior", "exterior"]
    assert_same(gl_eval_many(e, f, X), [gl_eval(e, f, x) for x in X])
    empty = GlEndo(0.7, LineMeasure([]), 2)
    assert_same(gl_eval_many(empty, f, X), [gl_eval(empty, f, x) for x in X])


@settings(max_examples=40, deadline=None)
@given(SEEDS, st.sampled_from([2, 3, 4]))
def test_radial_eval_many_matches_radial_eval(seed, n):
    rng = rng_from_seed(seed)
    lo_theta = -math.pi if n == 2 else 0.0
    thetas = [0.0, math.pi, float(rng.uniform(lo_theta, math.pi))]
    mu = OrbitMeasure(n, [(float(rng.uniform(0.2, 1.5)), th, float(rng.uniform(0.1, 2.0)))
                          for th in thetas])
    e = RadialEndo(mu, M=8)
    f = random_tree(rng, n)
    if expr_eval(f, np.zeros(n)) == INF:
        with pytest.raises(OriginNotInDomain):
            radial_eval_many(e, f, np.zeros((1, n)))
        return
    axis = np.zeros((2, n))
    axis[:, 0] = [1.7, -0.4]  # the identity and the antipodal rotation
    X = np.concatenate([point_block(rng, n, [1.0]), axis])
    assert_same(radial_eval_many(e, f, X), [radial_eval(e, f, x) for x in X])


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.integers(min_value=1, max_value=3))
def test_scale_compose_eval_many_matches_scale_compose_eval(seed, n):
    rng = rng_from_seed(seed)
    m = ScaleComposeMap(float(rng.uniform(0.2, 3.0)),
                        float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 2.0)), n)
    r = float(rng.uniform(0.5, 3.0))
    f = Sum([random_tree(rng, n), BallIndicator(r)])
    X = point_block(rng, n, [r / abs(m.mu_scalar)])
    assert_same(scale_compose_eval_many(m, f, X), [scale_compose_eval(m, f, x) for x in X])


def _pwl(breakpoints, values, slope_left, slope_right):
    return {"kind": "pwl", "breakpoints": breakpoints, "values": values,
            "slope_left": slope_left, "slope_right": slope_right}


FINITE = _pwl([-1.0, 0.5, 1.5], [2.0, 0.5, 1.0], -2.0, 3.0)
BOUNDED = _pwl([-0.73, 0.0, 0.91], [1.0, 0.0, 0.5], "-inf", "inf")
BALL_TREE = {"kind": "max", "terms": [
    {"kind": "sum", "terms": [{"kind": "norm", "c": 1.0}, {"kind": "ball_indicator", "r": 1.05}]},
    {"kind": "affine", "a": [0.3, -0.4, 0.2], "b": 0.1}]}
GL_NU = {"atoms": [{"s": 1.0, "w": 1.0}, {"s": -0.5, "w": 0.25}]}
KERNEL_YS = np.linspace(-5.0, 5.0, 41)
KERNEL_XS = np.linspace(-1.0, 1.0, 9)


@pytest.mark.parametrize("desc, n, fn", [
    # a bare pwl input: GlEndo sums atoms per point and gl_eval_many's tree per block
    ({"kind": "gl", "c": -0.5, "nu": GL_NU, "n": 1}, 1, BOUNDED),
    ({"kind": "gl", "c": 1.5, "nu": GL_NU, "n": 3}, 3, BALL_TREE),
    ({"kind": "scale_compose", "lambda": 2.0, "mu": -1.5, "n": 1}, 1, BOUNDED),
    ({"kind": "radial", "M": 8, "mu": {"n": 3, "atoms": [
        {"t": 1.0, "theta": 0.0, "w": 1.0}, {"t": 0.7, "theta": 1.2, "w": 0.5}]}}, 3, BALL_TREE),
    ({"kind": "phi_example", "phi": _pwl([-0.8, 0.0, 0.8], [1.6, 1.0, 1.6], "-inf", "inf")},
     1, FINITE),
    ({"kind": "ma_example", "g": _pwl([0.0], [0.5], -1.0, 2.0),
      "zeta": {"kind": "hat", "radius": 1.0}}, 1, FINITE),
    ({"kind": "kernel", "A": [-1.0, 1.0], "R": 2.0,
      "psi": {"kind": "grid", "xs": KERNEL_XS.tolist(), "ys": KERNEL_YS.tolist(),
              "values": (np.maximum(KERNEL_YS - KERNEL_XS[:, None], 0.0)
                         - np.maximum(KERNEL_YS, 0.0)).tolist()}},
     1, FINITE),
], ids=["gl1", "gl3", "scale_compose1", "radial3", "phi_example", "ma_example", "kernel"])
def test_operator_protocol(desc, n, fn):
    op, f = endo_from_json(desc), fn_from_json(fn)
    assert op.n == n
    axis = np.linspace(-1.0, 1.0, 41 if n == 1 else 7)
    X = np.stack([m.ravel() for m in np.meshgrid(*[axis] * n, indexing="ij")], axis=1)
    assert_same(op.eval_many(f, X), [op(f, x if n > 1 else float(x[0])) for x in X])
