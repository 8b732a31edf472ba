import math

import numpy as np
import pytest

from convendo import (INF, Affine, BadShape, BallIndicator, DimensionMismatch, GlEndo,
                      LineMeasure, Max, Norm, Precompose, Pwl1D, PwlFunction, Quad, RadialPwl,
                      Scale, Sum, ZeroVector,
                      expr_eval, pwl_indicator, pwl_abs, ray_domain)


def test_eval_sum_quad_affine():
    f = Sum([Quad(1.0), Affine([1.0, 0.0], 0.0)])
    assert expr_eval(f, [2.0, 0.0]) == pytest.approx(6.0)


def test_eval_ball_indicator():
    f = BallIndicator(1.0)
    assert expr_eval(f, [2.0, 0.0]) == INF
    assert expr_eval(f, [0.6, 0.8]) == 0.0


def test_eval_precompose_doubling():
    f = Precompose(2.0 * np.eye(2), Norm(1.0))
    assert expr_eval(f, [1.0, 0.0]) == pytest.approx(2.0)


def test_eval_dimension_mismatch():
    f = Affine([1.0, 2.0], 0.0)
    with pytest.raises(DimensionMismatch):
        expr_eval(f, [1.0, 2.0, 3.0])


def test_scale_and_max():
    f = Scale(3.0, Max([Affine([1.0], 0.0), Affine([-1.0], 0.0)]))
    assert expr_eval(f, [-2.0]) == pytest.approx(6.0)


def test_pwl1d_leaf():
    f = Pwl1D(pwl_abs(), [0.0, 1.0])
    assert expr_eval(f, [5.0, -2.0]) == pytest.approx(2.0)


def test_ray_domain_ball():
    f = BallIndicator(1.0)
    lo, hi = ray_domain(f, [2.0, 0.0])
    assert lo == pytest.approx(-0.5) and hi == pytest.approx(0.5)


def test_ray_domain_quad_full_line():
    assert ray_domain(Quad(1.0), [1.0, 1.0]) == (-INF, INF)


def test_ray_domain_sum_intersects():
    f = Sum([Quad(1.0), BallIndicator(2.0)])
    lo, hi = ray_domain(f, [1.0, 0.0])
    assert lo == pytest.approx(-2.0) and hi == pytest.approx(2.0)


def test_ray_domain_pwl1d_asymmetric():
    f = Pwl1D(pwl_indicator(-0.1, 1.0), [1.0])
    lo, hi = ray_domain(f, [0.5])
    assert lo == pytest.approx(-0.2) and hi == pytest.approx(2.0)
    lo, hi = ray_domain(f, [-0.5])
    assert lo == pytest.approx(-2.0) and hi == pytest.approx(0.2)


def test_ray_domain_zero_vector():
    with pytest.raises(ZeroVector):
        ray_domain(Quad(1.0), [0.0, 0.0])


def test_precompose_rejects_singular():
    from convendo import BadShape
    with pytest.raises(BadShape):
        Precompose(np.zeros((2, 2)), Quad(1.0))


@pytest.mark.parametrize("matrix", [1e-101 * np.eye(3), 2.0 ** -600 * np.eye(2),
                                    2.0 ** 1000 * np.eye(3)], ids=["1e-101", "2^-600", "2^1000"])
def test_precompose_takes_a_scaled_identity_whatever_its_scale(matrix):
    # det underflows below 1e-300 or overflows to inf: neither says singular
    with np.errstate(all="raise"):
        f = Precompose(matrix, Quad(1.0))
    x = np.full(len(matrix), 2.0 ** -500)
    assert expr_eval(f, x) == expr_eval(Quad(1.0), matrix @ x)
    with pytest.raises(BadShape):
        Precompose(matrix @ np.array([[1.0] * len(matrix)] * len(matrix)), Quad(1.0))


@pytest.mark.parametrize("build", [
    lambda v: Affine([1.0, v], 0.0),
    lambda v: Affine([1.0], v),
    lambda v: Quad(v),
    lambda v: Norm(v),
    lambda v: Scale(v, Quad(1.0)),
    lambda v: Pwl1D(pwl_abs(), [v, 1.0]),
    lambda v: Precompose([[1.0, 0.0], [v, 1.0]], Quad(1.0)),
], ids=["affine_a", "affine_b", "quad", "norm", "scale", "pwl1d_direction", "precompose"])
@pytest.mark.parametrize("v", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_coefficient_is_refused(build, v):
    # Quad(inf) at the origin would be inf * 0 = nan
    with pytest.raises(BadShape):
        build(v)


@pytest.mark.parametrize("call", [
    lambda x: Quad(1.0)(x),
    lambda x: GlEndo(0.0, LineMeasure([(1.0, 1.0)]), 2)(Quad(1.0), x),
    lambda x: ray_domain(Quad(1.0), x),
    lambda x: Quad(1.0).eval_many([[0.0, 1.0], x]),
], ids=["tree", "gl", "ray_domain", "block"])
def test_a_nan_coordinate_is_refused_as_the_pwl1d_leaf_refuses_it(call):
    # the tree, the operator and the ray domain gave nan, nan and (-inf, inf)
    with pytest.raises(BadShape, match="cannot evaluate at nan"):
        call([math.nan, 0.0])
    with pytest.raises(BadShape, match="cannot evaluate at nan"):
        Pwl1D(pwl_abs(), [1.0, 0.0])([math.nan, 0.0])
    call([INF, 1.0])  # an infinite coordinate is a point at infinity


def test_radial_pwl_refuses_a_profile_even_only_near_zero():
    # even on [-4, 4] only (tail slopes -2 and 1); samples of [0, 2] passed it
    with pytest.raises(BadShape, match="profile must be even"):
        RadialPwl(PwlFunction([-4.0, 0.0, 4.0], [5.0, 1.0, 5.0], -2.0, 1.0))
    f = RadialPwl(PwlFunction([-4.0, 0.0, 4.0], [5.0, 1.0, 5.0], -2.0, 2.0))
    assert f([0.0, -4.0]) == 5.0 and f([3.0, 4.0]) == 7.0


def test_a_zero_coefficient_meets_an_infinite_coordinate_as_zero():
    # inf * 0 gave nan, a nan refusal and (nan, nan) on points with no nan
    assert Affine([0.0, 1.0], 0.0)([INF, 0.0]) == 0.0
    assert Pwl1D(pwl_abs(), [0.0, 1.0])([INF, 0.0]) == 0.0
    assert ray_domain(Pwl1D(pwl_indicator(-1, 1), [0, 1]), [INF, 0]) == (-INF, INF)
    assert GlEndo(0, LineMeasure([(1, 1)]), 2)(Affine([0, 1], 0), [INF, 0]) == 0.0
    # a nonzero coefficient keeps the point at infinity, and finite rows their bits
    assert Affine([2.0, 1.0], 0.0)([-INF, 0.0]) == -INF
    X = np.array([[0.1, 0.7], [INF, 0.3], [-0.2, 1e300]])
    got = Affine([0.0, 3.0], 0.5).eval_many(X)
    assert [v.hex() for v in got[[0, 2]]] == [(float(np.array([0.0, 3.0]) @ x) + 0.5).hex()
                                              for x in X[[0, 2]]]
    assert got[1] == 3.0 * 0.3 + 0.5


def test_norms_of_rows_whose_square_overflows_or_underflows():
    assert Norm(1.0)([1e200, 0.0]) == 1e200
    assert Norm(2.0)([3e-200, -4e-200]) == pytest.approx(1e-199, rel=1e-12)
    assert Norm(1.0)([1e300, 1e300]) == pytest.approx(math.sqrt(2.0) * 1e300, rel=1e-12)
    assert Norm(1.0)([INF, 1.0]) == INF and Norm(1.0)([0.0, 0.0]) == 0.0
    assert RadialPwl(pwl_abs())([0.0, -1e-300]) == 1e-300
    # where the square is a normal float, the value is sqrt of it bit for bit
    x = np.array([0.3, -1.7])
    assert Norm(1.0)(x) == math.sqrt(float(x @ x))


def test_ball_membership_where_the_squares_leave_the_float_range():
    # ||x||^2 and r^2 overflow (underflow) alike, and the points read inside
    assert BallIndicator(1e200)([2e200, 0.0]) == INF
    assert BallIndicator(1e-200)([2e-200, 0.0]) == INF
    assert BallIndicator(1e200)([0.5e200, 0.0]) == 0.0
    assert BallIndicator(1e-200)([0.5e-200, 0.0]) == 0.0
    # a normal r^2 and a square that underflows or overflows
    assert BallIndicator(1.0)([1e-200, 0.0]) == 0.0 and BallIndicator(1.0)([1e200, 0.0]) == INF
    assert BallIndicator(1.0)([1.0, 0.0]) == 0.0 and BallIndicator(1.0)([0.6, 0.8 + 1e-15]) == INF


def test_pwl1d_takes_a_direction_whose_square_underflows():
    assert Pwl1D(pwl_abs(), [1e-200, 0.0])([1e200, 0.0]) == 1.0
    with pytest.raises(ZeroVector, match="^direction must be nonzero$"):
        Pwl1D(pwl_abs(), [0.0, 0.0])
