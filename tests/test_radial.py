import math

import numpy as np
import pytest

from convendo import (INF, Affine, Max, Norm, NotHomogeneous, OrbitMeasure,
                      OriginNotInDomain, Precompose, Pwl1D, Quad, RadialEndo,
                      Sum, ZeroVector, acts_as_scalar_on_radial,
                      canonical_rotation, minkowski_restrict, pwl_indicator,
                      radial_eval, radial_is_dually_translation_invariant)


def e1(n):
    v = np.zeros(n)
    v[0] = 1.0
    return v


def test_rotation_identity_at_pole():
    assert np.allclose(canonical_rotation(e1(3), 3), np.eye(3))


def test_rotation_antipodal_two_dim():
    R = canonical_rotation(np.array([-1.0, 0.0]), 2)
    assert np.allclose(R, [[-1.0, 0.0], [0.0, -1.0]])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_rotation_defining_property(n):
    rng = np.random.default_rng(42)
    for _ in range(200):
        x = rng.normal(size=n)
        if np.linalg.norm(x) < 1e-6:
            continue
        R = canonical_rotation(x, n)
        assert np.linalg.norm(R @ e1(n) - x / np.linalg.norm(x)) <= 1e-14
        assert abs(np.linalg.det(R) - 1.0) <= 1e-12
        assert np.allclose(R @ R.T, np.eye(n), atol=1e-13)


def test_rotation_near_antipode_stable():
    for eps in (1e-7, 1e-10, 1e-13):
        x = np.array([-1.0, eps, 0.0])
        R = canonical_rotation(x, 3)
        assert np.linalg.norm(R @ e1(3) - x / np.linalg.norm(x)) <= 1e-14


def test_rotation_zero_vector():
    with pytest.raises(ZeroVector):
        canonical_rotation(np.zeros(3), 3)


def test_identity_atom_is_identity_map():
    e = RadialEndo(OrbitMeasure(3, [(1.0, 0.0, 1.0)]), M=16)
    f = Sum([Quad(0.5), Affine([0.1, -0.2, 0.3], 0.7)])
    for x in ([1.0, 2.0, 2.0], [0.0, 0.0, 0.0], [-0.3, 0.1, 0.9]):
        x = np.array(x)
        from convendo import expr_eval
        assert radial_eval(e, f, x) == pytest.approx(expr_eval(f, x), abs=1e-12)


def test_two_pole_atoms_on_norm():
    e = RadialEndo(OrbitMeasure(3, [(1.0, 0.0, 1.0), (1.0, math.pi, 1.0)]), M=8)
    x = np.array([1.0, 2.0, 2.0])
    assert radial_eval(e, Norm(1.0), x) == pytest.approx(6.0, abs=1e-12)


def test_scaled_atom_on_quad():
    e = RadialEndo(OrbitMeasure(3, [(2.0, 0.0, 1.0)]), M=4)
    x = np.array([0.0, 1.0, 0.0])
    assert radial_eval(e, Quad(1.0), x) == pytest.approx(4.0, abs=1e-12)


def test_equatorial_orbit_kills_linear():
    # oracle: brute-force average over 10^4 circle points
    e = RadialEndo(OrbitMeasure(3, [(1.0, math.pi / 2, 1.0)]), M=16)
    a = np.array([1.0, 0.0, 0.0])
    f = Affine(a, 0.0)
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = rng.normal(size=3)
        R = canonical_rotation(x, 3)
        r = np.linalg.norm(x)
        phis = 2 * math.pi * np.arange(10 ** 4) / 10 ** 4
        pts = np.stack([np.zeros_like(phis), np.cos(phis), np.sin(phis)], axis=1)
        brute = float(np.mean([(a @ (r * (R @ p))) for p in pts]))
        assert abs(brute) <= 1e-12
        assert radial_eval(e, f, x) == pytest.approx(brute, abs=1e-12)


def test_value_at_origin_is_mass_times_f0():
    mu = OrbitMeasure(3, [(1.0, 0.3, 2.0), (0.5, 1.0, 1.5)])
    e = RadialEndo(mu, M=8)
    f = Sum([Quad(1.0), Affine([0.0, 0.0, 0.0], 3.0)])
    assert radial_eval(e, f, np.zeros(3)) == pytest.approx(3.5 * 3.0)


def test_infinity_propagates():
    e = RadialEndo(OrbitMeasure(3, [(2.0, 0.0, 1.0)]), M=4)
    f = Pwl1D(pwl_indicator(-1.0, 1.0), [1.0, 0.0, 0.0])
    assert radial_eval(e, f, np.array([1.0, 0.0, 0.0])) == INF
    assert radial_eval(e, f, np.array([0.4, 0.0, 0.0])) == 0.0


def test_origin_not_in_domain():
    e = RadialEndo(OrbitMeasure(2, [(1.0, 0.0, 1.0)]), M=1)
    f = Pwl1D(pwl_indicator(1.0, 2.0), [1.0, 0.0])
    with pytest.raises(OriginNotInDomain):
        radial_eval(e, f, np.array([1.5, 0.0]))


def test_dual_invariance_criterion():
    assert radial_is_dually_translation_invariant(
        RadialEndo(OrbitMeasure(3, [(1.0, 0.0, 1.0), (1.0, math.pi, 1.0)])))
    assert not radial_is_dually_translation_invariant(
        RadialEndo(OrbitMeasure(3, [(2.0, 0.0, 1.0)])))
    assert radial_is_dually_translation_invariant(
        RadialEndo(OrbitMeasure(3, [])))
    # n = 2 checks both components
    assert not radial_is_dually_translation_invariant(
        RadialEndo(OrbitMeasure(2, [(1.0, math.pi / 2, 1.0)])))


def test_acts_as_scalar():
    assert acts_as_scalar_on_radial(
        RadialEndo(OrbitMeasure(3, [(1.0, math.pi / 3, 2.0)])))
    assert acts_as_scalar_on_radial(RadialEndo(OrbitMeasure(3, [])))
    e_off = RadialEndo(OrbitMeasure(3, [(1.5, 0.0, 1.0)]), M=4)
    assert not acts_as_scalar_on_radial(e_off)
    # oracle witness: on ||.||^2 at radius 1 the value is t^2, not the mass
    x = np.array([1.0, 0.0, 0.0])
    assert radial_eval(e_off, Quad(1.0), x) == pytest.approx(2.25)


def test_minkowski_restrict_segment():
    v = np.array([0.3, -0.5, 0.8])
    seg = Max([Affine(v, 0.0), Affine(-v, 0.0)])
    e = RadialEndo(OrbitMeasure(3, [(1.0, 0.0, 1.0), (1.0, math.pi, 1.0)]), M=8)
    rng = np.random.default_rng(7)
    dirs = [rng.normal(size=3) for _ in range(6)]
    vals = minkowski_restrict(e, seg, dirs)
    for u, val in zip(dirs, vals):
        assert val == pytest.approx(2.0 * abs(v @ u), abs=1e-9)


def test_minkowski_restrict_point_and_identity():
    zero = Max([Affine(np.zeros(3), 0.0)])
    e = RadialEndo(OrbitMeasure(3, [(1.0, 0.0, 1.0), (1.0, math.pi, 1.0)]), M=8)
    vals = minkowski_restrict(e, zero, [np.array([1.0, 1.0, 0.0])])
    assert vals[0] == pytest.approx(0.0, abs=1e-15)

    v = np.array([1.0, 0.0, 0.0])
    seg = Max([Affine(v, 0.0), Affine(-v, 0.0)])
    e_id = RadialEndo(OrbitMeasure(3, [(1.0, 0.0, 1.0)]), M=8)
    rng2 = np.random.default_rng(9)
    dirs = [rng2.normal(size=3) for _ in range(5)]
    vals = minkowski_restrict(e_id, seg, dirs)
    for u, val in zip(dirs, vals):
        assert val == pytest.approx(abs(v @ u), abs=1e-9)


def test_minkowski_restrict_rejects_affine_offset():
    e = RadialEndo(OrbitMeasure(3, [(1.0, 0.0, 1.0), (1.0, math.pi, 1.0)]), M=8)
    bad = Max([Affine(np.array([1.0, 0.0, 0.0]), 1.0)])
    with pytest.raises(NotHomogeneous):
        minkowski_restrict(e, bad, [np.array([1.0, 0.0, 0.0])])


def test_rotation_choice_invariance_smooth():
    e = RadialEndo(OrbitMeasure(3, [(1.3, 1.0, 2.0)]), M=64)
    f = Sum([Quad(0.4), Norm(0.8), Affine([0.5, -0.1, 0.2], 0.3)])
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.normal(size=3)
        base = canonical_rotation(x, 3)
        q = np.eye(3)
        th = rng.uniform(0, 2 * math.pi)
        q[1:, 1:] = [[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]]
        assert radial_eval(e, f, x) == pytest.approx(
            radial_eval(e, f, x, rotation=base @ q), abs=1e-9)


def test_radial_equivariance_any_input():
    e = RadialEndo(OrbitMeasure(3, [(1.0, 0.7, 1.0), (0.5, 2.0, 0.5)]), M=24)
    f = Sum([Quad(0.3), Pwl1D(pwl_indicator(-4.0, 4.0), [0.0, 1.0, 0.0]),
             Norm(0.4)])
    rng = np.random.default_rng(4)
    for _ in range(10):
        x = rng.normal(size=3)
        t = rng.uniform(0.3, 2.0)
        lhs = radial_eval(e, f, t * x)
        rhs = radial_eval(e, Precompose(t * np.eye(3), f), x)
        if lhs == INF:
            assert rhs == INF
        else:
            assert lhs == pytest.approx(rhs, abs=1e-9)


def test_quadrature_resolution_is_bounded_before_allocation():
    from convendo import BadShape
    from convendo.expr import BLOCK
    mu = OrbitMeasure(3, [(1.0, 0.5, 1.0)])
    with pytest.raises(BadShape):
        RadialEndo(mu, M=10 ** 9)  # constructing only: the quadrature is never built
    assert RadialEndo(mu, M=BLOCK).M == BLOCK


@pytest.mark.parametrize("r", [1e200, 1e-200])
def test_points_whose_squared_norm_leaves_the_float_range(r):
    # 1e200 read nan (an infinite radius times a zero node coordinate) and
    # 1e-200 raised ZeroVector: its square underflowed to 0
    e = RadialEndo(OrbitMeasure(3, [(1.0, 0.5, 1.0)]), M=8)
    got = e(Affine([1.0, 0.0, 0.0], 0.0), [r, 0.0, 0.0])
    assert got == pytest.approx(r * math.cos(0.5), rel=1e-12)
    R = canonical_rotation([0.0, r, 0.0], 3)
    assert np.allclose(R[:, 0], [0.0, 1.0, 0.0], atol=1e-15)
