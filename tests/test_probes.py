import numpy as np
import pytest

from convendo import (INF, PerturbationNotConvex, epi_converges_probe,
                      gw_probe, is_convex_sampled, moreau_envelope, pwl_abs,
                      pwl_add, pwl_make, pwl_scale, PwlFunction)

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
    plus = pwl_add(pwl_make([-1.0], [0.0], 0.0, 1.0),
                   pwl_make([1.0], [0.0], 0.0, 1.0))
    minus = pwl_make([0.0], [0.0], 0.0, 2.0)
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
