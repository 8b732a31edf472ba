import math

import numpy as np
import pytest

from convendo import (AtomAtZero, BadShape, EmptyMeasure, LineMeasure,
                      OrbitMeasure, UnsupportedDimension, line_measure_add,
                      moment_abs, moment_signed, orbit_center,
                      orbit_quadrature, orbit_total_mass, support_bounds)


def test_moment_examples():
    assert moment_abs(LineMeasure([(0.5, 1.0)]), -2) == pytest.approx(4.0)
    assert moment_signed(LineMeasure([(1.0, 1.0), (-1.0, 1.0)]), -1) == pytest.approx(0.0)
    assert moment_signed(LineMeasure([(1.0, 1.0)]), -1) == pytest.approx(1.0)


def test_moment_balanced_fixture():
    # 4 delta_2 + delta_{-1/2}: 4/2 - 2 = 0 exactly
    m = LineMeasure([(2.0, 4.0), (-0.5, 1.0)])
    assert moment_signed(m, -1) == 0.0


def test_moment_atom_at_zero_rejected():
    m = LineMeasure([(0.0, 1.0)])
    with pytest.raises(AtomAtZero):
        moment_abs(m, -2)
    with pytest.raises(AtomAtZero):
        moment_signed(m, -1)
    assert moment_abs(m, 0) == 1.0  # non-negative powers stay legal


def test_weights_validated():
    with pytest.raises(BadShape):
        LineMeasure([(1.0, -0.5)])


def test_support_bounds():
    assert support_bounds(LineMeasure([(2.0, 1.0)])) == (2.0, 2.0)
    assert support_bounds(LineMeasure([(1.0, 1.0), (-1.0, 1.0)])) == (-1.0, 1.0)
    assert support_bounds(LineMeasure([(0.5, 3.0), (0.5, 1.0)])) == (0.5, 0.5)
    with pytest.raises(EmptyMeasure):
        support_bounds(LineMeasure([]))


def test_additivity_of_mass_and_moments():
    m1 = LineMeasure([(1.0, 2.0), (-2.0, 0.5)])
    m2 = LineMeasure([(0.7, 1.0)])
    m = line_measure_add(m1, m2)
    assert moment_abs(m, 0) == pytest.approx(moment_abs(m1, 0) + moment_abs(m2, 0))
    assert moment_signed(m, -1) == pytest.approx(
        moment_signed(m1, -1) + moment_signed(m2, -1))


def test_line_measure_add_merges_atoms_within_merge_tol():
    m = line_measure_add(LineMeasure([(1.0, 2.0), (-2.0, 0.5)]),
                         LineMeasure([(1.0 + 1e-13, 0.25), (3.0, 1.0)]))
    assert m.atoms == ((-2.0, 0.5), (1.0, 2.25), (3.0, 1.0))


def test_orbit_mass_and_center():
    mu = OrbitMeasure(3, [(1.0, 0.0, 1.0), (1.0, math.pi, 1.0)])
    assert orbit_total_mass(mu) == 2.0
    assert orbit_center(mu)[0] == pytest.approx(0.0, abs=1e-15)

    mu2 = OrbitMeasure(3, [(2.0, 0.0, 1.0)])
    assert orbit_total_mass(mu2) == 1.0
    assert orbit_center(mu2)[0] == pytest.approx(2.0)

    assert orbit_total_mass(OrbitMeasure(3, [])) == 0.0


def test_orbit_center_two_dim_has_both_components():
    mu = OrbitMeasure(2, [(2.0, math.pi / 2, 1.0)])
    c = orbit_center(mu)
    assert c[0] == pytest.approx(0.0, abs=1e-15)
    assert c[1] == pytest.approx(2.0)


def test_orbit_quadrature_pole_degenerate():
    pts = orbit_quadrature((1.0, 0.0, 1.0), 3, M=8)
    assert len(pts) == 8
    for p, w in pts:
        assert w == pytest.approx(1.0 / 8)
        assert np.allclose(p, [1.0, 0.0, 0.0], atol=1e-15)


def test_orbit_quadrature_equator():
    pts = orbit_quadrature((1.0, math.pi / 2, 1.0), 3, M=4)
    assert len(pts) == 4
    for p, w in pts:
        assert w == pytest.approx(0.25)
        assert p[0] == pytest.approx(0.0, abs=1e-15)
        assert np.linalg.norm(p) == pytest.approx(1.0)


def test_orbit_quadrature_two_dim_single_point():
    pts = orbit_quadrature((2.0, math.pi / 4, 3.0), 2)
    assert len(pts) == 1
    p, w = pts[0]
    assert w == 3.0
    assert np.allclose(p, [2 * math.cos(math.pi / 4), 2 * math.sin(math.pi / 4)])


def test_orbit_quadrature_weights_sum():
    for n in (2, 3, 4):
        pts = orbit_quadrature((1.3, 0.8, 2.7), n, M=32)
        assert sum(w for _, w in pts) == pytest.approx(2.7, abs=1e-14)
        assert all(w >= 0 for _, w in pts)


def test_orbit_quadrature_linear_exactness():
    # averaging a linear functional over the orbit circle leaves only the
    # polar component: t cos(theta) times the functional at the pole
    t, theta, w = 1.7, 1.1, 1.0
    a = np.array([0.4, -1.2, 0.7])
    for M in (2, 3, 8, 64):
        pts = orbit_quadrature((t, theta, w), 3, M=M)
        avg = sum(wq * float(a @ p) for p, wq in pts)
        assert avg == pytest.approx(t * math.cos(theta) * a[0], abs=1e-12)


def test_orbit_quadrature_rejects_big_dimension():
    with pytest.raises(UnsupportedDimension):
        orbit_quadrature((1.0, 0.5, 1.0), 5, M=8)


def test_orbit_measure_validation():
    with pytest.raises(BadShape):
        OrbitMeasure(3, [(-1.0, 0.0, 1.0)])
    with pytest.raises(BadShape):
        OrbitMeasure(3, [(1.0, 0.0, -1.0)])
    with pytest.raises(UnsupportedDimension):
        OrbitMeasure(1, [(1.0, 0.0, 1.0)])


@pytest.mark.parametrize("v", [float("nan"), math.inf, -math.inf])
@pytest.mark.parametrize("field", range(2))
def test_line_measure_refuses_non_finite(field, v):
    atom = [1.0, 1.0]
    atom[field] = v
    with pytest.raises(BadShape):
        LineMeasure([tuple(atom)])


@pytest.mark.parametrize("v", [float("nan"), math.inf, -math.inf])
@pytest.mark.parametrize("field", range(3))
def test_orbit_measure_refuses_non_finite(field, v):
    atom = [1.0, 0.5, 1.0]
    atom[field] = v
    with pytest.raises(BadShape):
        OrbitMeasure(3, [tuple(atom)])


@pytest.mark.parametrize("moment", [moment_abs, moment_signed])
def test_moment_order_is_checked(moment):
    with pytest.raises(BadShape):
        moment(LineMeasure([(1.0, 1.0)]), 2)
