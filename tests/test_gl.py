import numpy as np
import pytest

from convendo import (INF, Affine, BadShape, GlEndo, LineMeasure, Max, Norm,
                      OriginNotInDomain, Pwl1D, Quad, ScaleComposeMap, Sum,
                      gl_empirical_monotone_search, gl_eval, gl_eval_detailed,
                      gl_is_dually_translation_invariant, gl_is_monotone,
                      pwl_indicator, scale_compose_eval)


def test_single_atom_reduction():
    e = GlEndo(0.0, LineMeasure([(1.0, 1.0)]), 1)
    assert gl_eval(e, Quad(1.0), [2.0]) == pytest.approx(4.0)


def test_two_atom_on_hinge():
    e = GlEndo(0.0, LineMeasure([(1.0, 1.0), (-1.0, 1.0)]), 1)
    hinge = Max([Affine([0.0], 0.0), Affine([1.0], 0.0)])
    assert gl_eval(e, hinge, [-3.0]) == pytest.approx(3.0)


def test_delta_two_on_norm():
    e = GlEndo(1.0, LineMeasure([(2.0, 1.0)]), 2)
    x = np.array([0.6, 0.8])
    assert gl_eval(e, Norm(1.0), x) == pytest.approx(0.5)


def test_blowup_case_analysis():
    # oracle: with nu = delta_1 + delta_{-1}, the scaled support [-1, 1] x
    # must fit in the per-ray domain of f, which is (-0.1/x, 1/x) for x > 0,
    # so finite values survive only for |x| < 0.1
    e = GlEndo(0.0, LineMeasure([(1.0, 1.0), (-1.0, 1.0)]), 1)
    f = Sum([Affine([0.0], 0.0), Pwl1D(pwl_indicator(-0.1, 1.0), [1.0])])
    assert gl_eval(e, f, [0.05]) == 0.0
    assert gl_eval(e, f, [-0.05]) == 0.0
    assert gl_eval(e, f, [0.5]) == INF
    assert gl_eval(e, f, [-0.11]) == INF
    assert gl_eval(e, f, [0.11]) == INF


def test_boundary_case_radial_limit():
    e = GlEndo(0.0, LineMeasure([(1.0, 1.0), (-1.0, 1.0)]), 1)
    f = Sum([Affine([0.0], 0.0), Pwl1D(pwl_indicator(-0.1, 1.0), [1.0])])
    val, report = gl_eval_detailed(e, f, [0.1])
    assert report["case"] == "boundary"
    assert val == pytest.approx(0.0)
    assert report["tail_monotone"]


def test_ray_interval_attribute_error_propagates():
    # a fault inside a node's own _ray_interval_batch surfaces from gl_eval
    class Broken(Quad):
        def _ray_interval_batch(self, X):
            return self.no_such_attribute

    e = GlEndo(0.0, LineMeasure([(1.0, 1.0)]), 2)
    with pytest.raises(AttributeError, match="no_such_attribute"):
        gl_eval(e, Broken(1.0), [1.0, 0.0])


def test_origin_not_in_domain():
    e = GlEndo(0.0, LineMeasure([(1.0, 1.0)]), 1)
    f = Pwl1D(pwl_indicator(1.0, 2.0), [1.0])
    with pytest.raises(OriginNotInDomain):
        gl_eval(e, f, [1.5])


def test_zero_measure_is_c_f0():
    e = GlEndo(2.5, LineMeasure([]), 2)
    f = Sum([Quad(1.0), Affine([1.0, 0.0], 3.0)])
    assert gl_eval(e, f, [1.0, 1.0]) == pytest.approx(2.5 * 3.0)


def test_nu_must_avoid_zero():
    with pytest.raises(BadShape):
        GlEndo(0.0, LineMeasure([(0.0, 1.0)]), 1)


def test_monotone_criterion_boundary():
    assert gl_is_monotone(GlEndo(4.0, LineMeasure([(0.5, 1.0)]), 2))
    assert not gl_is_monotone(GlEndo(3.9, LineMeasure([(0.5, 1.0)]), 2))
    assert not gl_is_monotone(GlEndo(4.0 - 1e-6, LineMeasure([(0.5, 1.0)]), 2))
    assert gl_is_monotone(GlEndo(0.0, LineMeasure([]), 2))


def test_dual_invariance_criterion():
    assert gl_is_dually_translation_invariant(
        GlEndo(0.0, LineMeasure([(1.0, 1.0), (-1.0, 1.0)]), 2))
    assert not gl_is_dually_translation_invariant(
        GlEndo(0.0, LineMeasure([(1.0, 1.0)]), 2))
    assert gl_is_dually_translation_invariant(
        GlEndo(0.0, LineMeasure([(2.0, 4.0), (-0.5, 1.0)]), 2))


def test_dual_invariance_matches_action_on_linear():
    # oracle: the operator kills linear functions iff the signed 1/s moment
    # vanishes, checked by evaluating on a linear function over a grid
    for atoms, expect in (([(2.0, 4.0), (-0.5, 1.0)], True),
                          ([(1.0, 1.0)], False)):
        e = GlEndo(0.7, LineMeasure(atoms), 2)
        ell = Affine([1.0, -2.0], 0.0)
        vals = [abs(gl_eval(e, ell, [x1, x2]))
                for x1 in (-1.0, 0.5, 2.0) for x2 in (-0.7, 1.3)]
        empirical_zero = max(vals) <= 1e-9
        assert gl_is_dually_translation_invariant(e) == expect == empirical_zero


def test_monotone_witness_fixture():
    # oracle: hand evaluation of the operator on f(y) = ||y|| - 1 at radius
    # 2: value = -c + 2 * (1/0.5) = 4 - c
    e = GlEndo(3.9, LineMeasure([(0.5, 1.0)]), 2)
    assert not gl_is_monotone(e)
    w = gl_empirical_monotone_search(e, trials=10, seed=3)
    assert w is not None
    assert np.linalg.norm(w["x"]) == pytest.approx(2.0)
    assert w["value_f"] - w["value_g"] == pytest.approx(0.1, abs=1e-9)
    # the witness pair is ordered
    for _ in range(20):
        p = np.random.default_rng(0).uniform(-4, 4, size=2)
        assert w["f"](p) <= w["g"](p) + 1e-12


def test_no_witness_when_monotone():
    e = GlEndo(4.0, LineMeasure([(0.5, 1.0)]), 2)
    assert gl_empirical_monotone_search(e, trials=300, seed=5) is None
    e_id = GlEndo(1.0, LineMeasure([(1.0, 1.0)]), 2)
    assert gl_empirical_monotone_search(e_id, trials=300, seed=6) is None


def test_scale_compose_examples():
    sc = ScaleComposeMap(2.0, -1.0, 1)
    seg = Pwl1D(pwl_indicator(0.0, 1.0), [1.0])
    assert scale_compose_eval(sc, seg, [-0.5]) == 0.0
    assert scale_compose_eval(sc, seg, [0.5]) == INF

    ident = ScaleComposeMap(1.0, 1.0, 2)
    f = Quad(1.0)
    assert scale_compose_eval(ident, f, [1.0, 2.0]) == pytest.approx(5.0)

    tripled = ScaleComposeMap(3.0, 2.0, 1)
    assert scale_compose_eval(tripled, Quad(1.0), [1.0]) == pytest.approx(12.0)


def test_scale_compose_validation():
    with pytest.raises(BadShape):
        ScaleComposeMap(0.0, 1.0, 1)
    with pytest.raises(BadShape):
        ScaleComposeMap(1.0, 0.0, 1)


def test_gl_equivariance_spot():
    e = GlEndo(0.5, LineMeasure([(1.0, 1.0), (-2.0, 0.5)]), 2)
    f = Sum([Quad(0.7), Norm(0.3), Affine([0.2, -0.4], 1.0)])
    m = np.array([[1.0, 2.0], [0.5, -1.0]])
    from convendo import Precompose
    for x in ([0.3, -1.2], [2.0, 0.1]):
        x = np.array(x)
        assert gl_eval(e, Precompose(m, f), x) == pytest.approx(
            gl_eval(e, f, m @ x), abs=1e-12)


@pytest.mark.parametrize("v", [float("nan"), INF, -INF])
def test_non_finite_parameters_are_refused(v):
    with pytest.raises(BadShape):
        GlEndo(v, LineMeasure([(1.0, 1.0)]), 1)
    with pytest.raises(BadShape):
        ScaleComposeMap(v, 1.0, 1)
    with pytest.raises(BadShape):
        ScaleComposeMap(1.0, v, 1)
