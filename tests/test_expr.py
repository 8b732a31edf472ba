import math

import numpy as np
import pytest

from convendo import (INF, Affine, BadShape, BallIndicator, DimensionMismatch, Max,
                      Norm, Precompose, Pwl1D, Quad, Scale, Sum, ZeroVector,
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
