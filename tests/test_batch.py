"""The block evaluators against a per-point reference.

The reference below evaluates trees, ray domains and the gl, radial and
scale_compose operators one point at a time from the nodes' public fields.
Each property draws a random tree and a block of points that holds the
origin, interior and exterior points and points exactly on a ball boundary,
then requires the same +inf rows and finite values within 1e-12 relative;
the one-point names must give the block's rows exactly. The same holds for
``op.eval_many(f, X)`` against ``op(f, x)`` for every operator descriptor
kind.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from convendo import (INF, Affine, BallIndicator, GlEndo,
                      LineMeasure, Max, Norm, OrbitMeasure, OriginNotInDomain,
                      Precompose, Pwl1D, PwlFunction, Quad, RadialEndo, RadialPwl,
                      Scale, ScaleComposeMap, Sum, canonical_rotation, expr_eval,
                      gl_eval, gl_eval_detailed, radial_eval, ray_domain,
                      scale_compose_eval)
from convendo.cli import main
from convendo.extreal import EDGE_TOL, RADIAL_LIMIT
from convendo.measures import orbit_total_mass, support_bounds
from convendo.serialize import endo_from_json, fn_from_json
from convendo.rand import (random_convex_pwl, random_finite_expr,
                           random_invertible, random_line_measure,
                           rng_from_seed)

SEEDS = st.integers(min_value=0, max_value=10 ** 9)


# -- per-point reference --------------------------------------------------------

def ref_eval(f, x):
    """f(x) by the definition of each node."""
    if isinstance(f, Affine):
        return float(f.a @ x) + f.b
    if isinstance(f, (Quad, Norm, BallIndicator, RadialPwl)):
        r2 = float(x @ x)
        if isinstance(f, Quad):
            return f.c * r2
        if isinstance(f, Norm):
            return f.c * math.sqrt(r2)
        if isinstance(f, BallIndicator):
            return 0.0 if r2 <= f.r * f.r else INF
        return f.p(math.sqrt(r2))
    if isinstance(f, Pwl1D):
        return f.p(float(f.direction @ x))
    if isinstance(f, Scale):
        v = ref_eval(f.term, x)
        return INF if v == INF else f.lam * v
    if isinstance(f, Precompose):
        return ref_eval(f.term, f.matrix @ x)
    values = [ref_eval(t, x) for t in f.terms]
    return max(values) if isinstance(f, Max) else sum(values)


def ref_ray(f, x):
    """The open interval of s with f(s x) < inf, for nonzero x."""
    if isinstance(f, (BallIndicator, RadialPwl)):
        hi = f.r if isinstance(f, BallIndicator) else f.p.domain[1]
        return (-hi / math.sqrt(float(x @ x)), hi / math.sqrt(float(x @ x)))
    if isinstance(f, Pwl1D):
        alpha = float(f.direction @ x)
        if alpha == 0.0:
            return (-INF, INF) if f.p(0.0) < INF else (0.0, 0.0)
        return tuple(sorted(b / alpha for b in f.p.domain))
    if isinstance(f, (Scale, Precompose)):
        return ref_ray(f.term, f.matrix @ x if isinstance(f, Precompose) else x)
    if isinstance(f, (Sum, Max)):
        ends = [ref_ray(t, x) for t in f.terms]
        return (max(lo for lo, _ in ends), min(hi for _, hi in ends))
    return (-INF, INF)


def ref_gl(e, f, x):
    f0 = ref_eval(f, np.zeros(len(x)))
    if not x.any() or len(e.nu) == 0:
        return e.c * f0
    (a, b), (lo, hi) = support_bounds(e.nu), ref_ray(f, x)
    if a < lo - EDGE_TOL or b > hi + EDGE_TOL:
        return INF
    lam = 1.0 if a > lo + EDGE_TOL and b < hi - EDGE_TOL else RADIAL_LIMIT
    return sum((w * (ref_eval(f, s * (lam * x)) - f0) / (s * s) for s, w in e.nu.atoms), e.c * f0)


def ref_radial(e, f, x):
    if not x.any():
        return ref_eval(f, np.zeros(len(x))) * orbit_total_mass(e.mu)
    R, r = canonical_rotation(x, e.n), math.sqrt(float(x @ x))
    return sum(w * ref_eval(f, r * (R @ p)) for p, w in zip(*e.quadrature) if w > 0)


# -------------------------------------------------------------------------------


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


def assert_rows(block, one_point):
    """The one-point name gives each row of the block exactly."""
    assert np.array_equal(block, np.array(one_point, dtype=float))


@settings(max_examples=80, deadline=None)
@given(SEEDS, st.integers(min_value=1, max_value=4))
def test_expr_eval_many_matches_expr_eval(seed, n):
    rng = rng_from_seed(seed)
    f = Sum([random_tree(rng, n), BallIndicator(2.0)]) if rng.random() < 0.5 else random_tree(rng, n)
    X = point_block(rng, n, [2.0, 1.0])
    values = f.eval_many(X)
    assert_same(values, [ref_eval(f, x) for x in X])
    assert_rows(values, [expr_eval(f, x) for x in X])
    Y = X[X.any(axis=1)]
    lo, hi = f._ray_interval_batch(Y)
    ref = np.array([ref_ray(f, y) for y in Y])
    assert np.array_equal(lo, ref[:, 0]) and np.array_equal(hi, ref[:, 1])
    assert_rows(np.stack([lo, hi], axis=1), [ray_domain(f, y) for y in Y])


def test_expr_eval_many_radial_profile_and_last_breakpoint():
    f = RadialPwl(PwlFunction([-1.3, 0.0, 1.3], [0.9, -0.2, 0.9], -2.0, 2.0))
    X = np.array([[1.3, 0.0], [0.0, -1.3], [0.3, 0.4], [3.0, 4.0], [0.0, 0.0]])
    assert_same(f.eval_many(X), [ref_eval(f, x) for x in X])
    assert_rows(f.eval_many(X), [f(x) for x in X])


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
            e.eval_many(f, X)
        return
    values = e.eval_many(f, X)
    assert_same(values, [ref_gl(e, f, x) for x in X])
    assert_rows(values, [gl_eval(e, f, x) for x in X])
    assert_rows(values, [gl_eval_detailed(e, f, x)[0] for x in X])


def test_gl_eval_many_covers_boundary_and_empty_measure():
    e = GlEndo(0.7, LineMeasure([(1.5, 1.0), (-0.5, 2.0)]), 2)
    f = Sum([Pwl1D(PwlFunction([0.0], [0.0], -1.0, 2.0), [0.6, 0.8]), BallIndicator(3.0)])
    X = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, -2.0], [1.2, 1.6], [0.3, 0.4], [2.0, 2.0]])
    cases = [gl_eval_detailed(e, f, x)[1]["case"] for x in X]
    assert cases == ["origin", "boundary", "boundary", "boundary", "interior", "exterior"]
    assert_same(e.eval_many(f, X), [ref_gl(e, f, x) for x in X])
    assert_rows(e.eval_many(f, X), [gl_eval(e, f, x) for x in X])
    empty = GlEndo(0.7, LineMeasure([]), 2)
    assert_same(empty.eval_many(f, X), [ref_gl(empty, f, x) for x in X])
    assert [gl_eval_detailed(empty, f, x)[1]["case"] for x in X[:2]] == ["origin", "interior"]


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
            e.eval_many(f, np.zeros((1, n)))
        return
    axis = np.zeros((2, n))
    axis[:, 0] = [1.7, -0.4]  # the identity and the antipodal rotation
    X = np.concatenate([point_block(rng, n, [1.0]), axis])
    values = e.eval_many(f, X)
    assert_same(values, [ref_radial(e, f, x) for x in X])
    assert_rows(values, [radial_eval(e, f, x) for x in X])


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.integers(min_value=1, max_value=3))
def test_scale_compose_eval_many_matches_scale_compose_eval(seed, n):
    rng = rng_from_seed(seed)
    m = ScaleComposeMap(float(rng.uniform(0.2, 3.0)),
                        float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 2.0)), n)
    r = float(rng.uniform(0.5, 3.0))
    f = Sum([random_tree(rng, n), BallIndicator(r)])
    X = point_block(rng, n, [r / abs(m.mu_scalar)])
    values = m.eval_many(f, X)
    assert_same(values, [m.lam * ref_eval(f, m.mu_scalar * x) for x in X])
    assert_rows(values, [scale_compose_eval(m, f, x) for x in X])


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
    # a bare pwl input, through Pwl1D like any other input
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


@settings(max_examples=60, deadline=None)
@given(SEEDS, st.sampled_from([2, 3, 4]))
def test_canonical_rotation_matches_its_definition(seed, n):
    # orthogonal, det +1, R e1 = x / ||x||, and R fixes the complement of
    # span(e1, x); when x[0] < 0 that holds for R without its last factor,
    # the rotation by pi in the (e1, e2) plane
    rng = rng_from_seed(seed)
    e1 = np.eye(n)[0]
    pi_turn = np.diag([-1.0, -1.0] + [1.0] * (n - 2))
    for x in (rng.normal(size=n), float(rng.uniform(0.1, 3.0)) * e1, -0.4 * e1):
        R, u = canonical_rotation(x, n), x / np.linalg.norm(x)
        assert np.allclose(R.T @ R, np.eye(n), atol=1e-13)
        assert abs(np.linalg.det(R) - 1.0) <= 1e-12
        assert np.linalg.norm(R @ e1 - u) <= 1e-14
        rest = np.linalg.qr(np.stack([e1, u], axis=1), mode="complete")[0][:, 2:]
        Q = R if u[0] >= 0.0 else R @ pi_turn
        assert np.allclose(Q @ rest, rest, atol=1e-13)


def test_cli_radial_csv_matches_reference(tmp_path):
    desc = {"kind": "radial", "M": 8, "mu": {"n": 3, "atoms": [
        {"t": 1.0, "theta": 0.0, "w": 1.0}, {"t": 0.7, "theta": 1.2, "w": 0.5}]}}
    argv = ["eval", "--grid=-1:1:0.25", "--out", str(tmp_path / "r.csv")]
    for flag, obj in (("--endo", desc), ("--fn", BALL_TREE)):
        (tmp_path / flag[2:]).write_text(json.dumps(obj))
        argv += [flag, str(tmp_path / flag[2:])]
    assert main(argv) == 0
    rows = np.loadtxt(tmp_path / "r.csv", delimiter=",", skiprows=1)
    assert np.isinf(rows[:, 3]).any() and np.isfinite(rows[:, 3]).any()
    e, f = endo_from_json(desc), fn_from_json(BALL_TREE)
    assert_same(rows[:, 3], [ref_radial(e, f, x) for x in rows[:, :3]])
