import json
import math

import numpy as np
import pytest

from convendo import kernel1d
from convendo import (INF, BadShape, GlEndo, InfiniteSlope, Kernel1D, LineMeasure,
                      MaEndo, OutsideA, PhiEndo, PhiNegative, PhiNotEven, Pwl1D, PwlFunction,
                      ScaleComposeMap, TailNotAffine, XSliceNotAffine, detect_tail_radius,
                      example_phi_convexity_certificate, gl_eval_detailed, hat_weight,
                      kernel_decompose, kernel_endo_eval, kernel_extract,
                      kernel_extract_live, kernel_is_monotone, monge_ampere,
                      pwl_abs, pwl_hinge, pwl_indicator, pwl_integral, pwl_linear)
from convendo.cli import main
from convendo.extreal import EDGE_TOL


def dense_parabola(span=3.0, pieces=1200, coeff=1.0):
    xs = np.linspace(-span, span, pieces + 1)
    return PwlFunction(xs, coeff * xs ** 2, -2 * coeff * span, 2 * coeff * span)


# -- Monge-Ampere ----------------------------------------------------------------

def test_ma_of_abs():
    assert monge_ampere(pwl_abs()).atoms == ((0.0, 2.0),)


def test_ma_of_tent_pair():
    f = PwlFunction([-1.0, 1.0], [0.0, 0.0], -1.0, 1.0)
    assert monge_ampere(f).atoms == ((-1.0, 1.0), (1.0, 1.0))


def test_ma_of_affine_is_empty():
    assert len(monge_ampere(pwl_linear(2.0, 1.0))) == 0


def test_ma_rejects_truncated_domain():
    from convendo import pwl_indicator
    with pytest.raises(InfiniteSlope):
        monge_ampere(pwl_indicator(-1.0, 1.0))


# -- decomposition ----------------------------------------------------------------

def hinge_kernel():
    return Kernel1D(lambda x, y: max(y - x, 0.0) - max(y, 0.0), (-1, 1, -4, 4))


def test_decompose_hinge_kernel_coefficients():
    # oracle: hand evaluation of the tail solves; psi(x, y) = y - x - y_+ for
    # y >= 2, zero for y <= -2, so c1 = x, c2 = -x, c3 = c4 = 0
    d = kernel_decompose(hinge_kernel(), (-1, 1), 2.0)
    for x in (-1.0, -0.3, 0.0, 0.5, 1.0):
        c1, c2, c3, c4 = d.tails(x)
        assert c1 == pytest.approx(x, abs=1e-12)
        assert c2 == pytest.approx(-x, abs=1e-12)
        assert c3 == pytest.approx(0.0, abs=1e-12)
        assert c4 == pytest.approx(0.0, abs=1e-12)


def test_decompose_zero_kernel():
    k = Kernel1D(lambda x, y: 0.0, (-1, 1, -4, 4))
    d = kernel_decompose(k, (-1, 1), 2.0)
    assert d.tails(0.3)[0] == 0.0 and d.tails(-0.7)[3] == 0.0
    assert d.residual(0.2, [0.7])[1] == [0.0]
    f = dense_parabola()
    assert kernel_endo_eval(d, f, 0.5) == 0.0


def test_decompose_affine_kernel_gives_zero_map():
    # a kernel affine in y induces the zero operator; oracle: evaluate the
    # reconstruction on random inputs
    k = Kernel1D(lambda x, y: y, (-1, 1, -4, 4))
    d = kernel_decompose(k, (-1, 1), 2.0)
    from convendo.rand import random_finite_pwl, rng_from_seed
    rng = rng_from_seed(8)
    for _ in range(10):
        f = random_finite_pwl(rng)
        x = float(rng.uniform(-1.0, 1.0))
        assert kernel_endo_eval(d, f, x) == pytest.approx(0.0, abs=1e-9)


def test_psi_tilde_vanishes_on_tails():
    d = kernel_decompose(hinge_kernel(), (-1, 1), 2.0)
    for x in (-0.8, 0.0, 0.9):
        c1, c2, c3, c4 = d.tails(x)
        for y in (2.0, 2.5, 3.0, -2.0, -2.7):
            raw = (d.kernel(x, y)
                   - (c1 * max(y, 0.0) + c2 * max(y + 1.0, 0.0)
                      + c3 * max(-y, 0.0) + c4 * max(-y - 1.0, 0.0)))
            assert raw == pytest.approx(0.0, abs=1e-12)
            assert d.residual(x, [y])[1][0] == pytest.approx(0.0, abs=1e-12)


def test_hinge_kernel_reconstruction_matches_parabola():
    d = kernel_decompose(hinge_kernel(), (-1, 1), 2.0)
    f = dense_parabola()
    # oracle: the hinge kernel encodes f -> f(x) - f(0)
    for x in (-1.0, -0.4, 0.0, 0.5, 1.0):
        assert kernel_endo_eval(d, f, x) == pytest.approx(
            f(x) - f(0.0), abs=1e-5)


def test_affine_inputs_reconstruct_exactly():
    d = kernel_decompose(hinge_kernel(), (-1, 1), 2.0)
    # oracle: for affine f the jump sum is empty, so the value is
    # (c1+c3) f(0) + (c2+c4) f(-1) = x (f(0) - f(-1)) = f(x) - f(0)
    for a, b in ((3.0, 7.0), (-2.0, 0.5)):
        f = pwl_linear(a, b)
        for x in (-0.9, 0.2, 1.0):
            assert kernel_endo_eval(d, f, x) == pytest.approx(
                f(x) - f(0.0), abs=1e-12)


def test_endo_eval_outside_interval():
    d = kernel_decompose(hinge_kernel(), (-1, 1), 2.0)
    with pytest.raises(OutsideA):
        kernel_endo_eval(d, pwl_abs(), 1.5)


def test_decompose_rejects_bent_tail():
    k = Kernel1D(lambda x, y: y * y, (-1, 1, -4, 4))
    with pytest.raises(TailNotAffine):
        kernel_decompose(k, (-1, 1), 2.0)


def test_decompose_rejects_bent_x_slice():
    k = Kernel1D(lambda x, y: x * x * y, (-1, 1, -4, 4))
    with pytest.raises(XSliceNotAffine):
        kernel_decompose(k, (-1, 1), 2.0)


def test_decompose_rejects_non_finite_samples():
    # nan > tol * scale is false, so a nan row passed both affine checks
    k = Kernel1D(lambda x, y: float("nan"), (-1, 1, -4, 4))
    with pytest.raises(TailNotAffine, match="second difference nan"):
        kernel_decompose(k, (-1, 1), 2.0)
    # one +inf sample: its second differences, +-inf, are not above tol * inf
    for row in ([0.0, INF, 2.0, 3.0], [INF] * 4, [1.0, float("nan"), 1.0]):
        label, dev = kernel1d._first_bend([("affine", [0.0, 1.0, 2.0, 3.0]), ("bad", row)])
        assert label == "bad" and math.isnan(dev)


def test_roundtrip_of_a_truncated_phi_is_refused(tmp_path, capsys):
    # the operator is +inf where the decomposition reads nan, and the nan
    # trials used to drop out of the maximum deviation
    path = tmp_path / "phi.json"
    path.write_text(json.dumps({"kind": "phi_example", "phi": {
        "kind": "pwl", "breakpoints": [-0.5, 0.0, 0.5], "values": [1.5, 1.0, 1.5],
        "slope_left": "-inf", "slope_right": "inf"}}))
    assert main(["kernel", "roundtrip", "--endo", str(path), "--trials", "50",
                 "--seed", "3", "--tol", "1e-6"]) == 3
    assert "bends beyond" in capsys.readouterr().err


def test_detect_tail_radius():
    em = GlEndo(0.0, LineMeasure([(1.0, 1.0)]), 1)
    live = kernel_extract_live(em, (-1.0, 1.0, -2.0 ** 12, 2.0 ** 12))
    r = detect_tail_radius(live, (-1.0, 1.0), start=2.0)
    assert r >= 2.0
    d = kernel_decompose(live, (-1, 1), r)
    f = dense_parabola()
    assert kernel_endo_eval(d, f, 0.3) == pytest.approx(f(0.3) - f(0.0), abs=1e-5)


def test_detect_tail_radius_restarts_its_run_after_a_bend():
    # affine on [1, 2], bent at |y| = 3 inside [2, 4], affine from 4 on; the
    # box ends at y = 64, four doublings into the second run
    psi = Kernel1D(lambda x, y: max(abs(y) - 3.0, 0.0), (-1.0, 1.0, -64.0, 64.0))
    assert detect_tail_radius(psi, (-1.0, 1.0)) == 4.0


def test_detect_tail_radius_refuses_a_kernel_with_no_affine_tail():
    psi = Kernel1D(lambda x, y: y * y, (-1.0, 1.0, -64.0, 64.0))
    with pytest.raises(TailNotAffine, match="no affine tail radius"):
        detect_tail_radius(psi, (-1.0, 1.0))


# -- extraction --------------------------------------------------------------------

def test_extract_hinge_values():
    em = GlEndo(0.0, LineMeasure([(1.0, 1.0)]), 1)
    xs = np.linspace(-1, 1, 9)
    ys = np.linspace(-3, 3, 13)
    k = kernel_extract(em, xs, ys)
    for x in xs:
        for y in ys:
            assert k(x, y) == pytest.approx(
                max(y - x, 0.0) - max(y, 0.0), abs=1e-12)


def test_extract_zero_map():
    em = lambda f, x: 0.0
    k = kernel_extract(em, np.linspace(-1, 1, 5), np.linspace(-2, 2, 5))
    assert np.allclose(k.grid[2], 0.0)


def test_grid_kernel_bilinear_between_nodes():
    xs = np.array([0.0, 1.0])
    ys = np.array([0.0, 1.0])
    k = Kernel1D.from_grid(xs, ys, np.array([[0.0, 1.0], [2.0, 3.0]]))
    assert k(0.5, 0.5) == pytest.approx(1.5)
    with pytest.raises(OutsideA):
        k(2.0, 0.0)


def test_kernel_x_convexity_certificate():
    xs = np.linspace(-1, 1, 9)
    ys = np.linspace(-3, 3, 13)
    assert hinge_kernel().is_x_convex(xs, ys)
    concave = Kernel1D(lambda x, y: -x * x * max(y, 0.0), (-1, 1, -4, 4))
    assert not concave.is_x_convex(xs, ys)


def test_kernel_monotonicity_predicates():
    xs = np.linspace(-1, 1, 7)
    ys = np.linspace(-3, 3, 61)
    assert not kernel_is_monotone(hinge_kernel(), xs, ys)
    ident = Kernel1D(lambda x, y: max(y - x, 0.0), (-1, 1, -4, 4))
    assert kernel_is_monotone(ident, xs, ys)
    zero = Kernel1D(lambda x, y: 0.0, (-1, 1, -4, 4))
    assert kernel_is_monotone(zero, xs, ys)


def test_nonmonotone_witness_for_eval_minus_origin():
    # oracle: f = |y| - 1 <= g = (|y| - 1)_+ but f(x) - f(0) > g(x) - g(0)
    em = GlEndo(0.0, LineMeasure([(1.0, 1.0)]), 1)
    f = PwlFunction([0.0], [-1.0], -1.0, 1.0)
    g = PwlFunction([-1.0, 1.0], [0.0, 0.0], -1.0, 1.0)
    ys = np.linspace(-5, 5, 101)
    assert all(f(y) <= g(y) + 1e-12 for y in ys)
    assert em(f, 0.9) > em(g, 0.9) + 0.5


# -- profile-integral operator ------------------------------------------------------

def test_phi_endo_parabola_oracle():
    # oracle: integral of s^2 over [-2, 2] is 16/3
    phi = PwlFunction([0.0], [1.0], -1.0, 1.0)
    pe = PhiEndo(phi)
    f = dense_parabola(span=5.0, pieces=4000)
    assert pe(f, 1.0) == pytest.approx(16.0 / 3.0, abs=1e-4)


def test_phi_endo_kills_affine():
    phi = PwlFunction([0.0], [1.0], -1.0, 1.0)
    pe = PhiEndo(phi)
    f = pwl_linear(3.0, 7.0)
    for t in (-2.0, 0.0, 0.4, 1.7):
        assert pe(f, t) == pytest.approx(0.0, abs=1e-12)


def test_phi_endo_indicator_domain():
    from convendo import pwl_indicator
    phi = pwl_indicator(-1.0, 1.0)
    pe = PhiEndo(phi)
    f = pwl_abs()
    assert pe(f, 0.5) == 0.0
    assert pe(f, -0.9) == 0.0
    assert pe(f, 1.2) == INF
    assert pe(f, 1.0) == pytest.approx(0.0)  # boundary radial limit


def test_phi_endo_integrates_f_minus_f0_where_the_terms_overflow_apart(tmp_path):
    # the integral of f and 2 a f(0) overflow separately, and their
    # difference read nan: 0 where f is flat on [-a, a], 2.5e299 beyond, and
    # +inf where the integral of f - f(0) itself overflows
    pe = PhiEndo(PwlFunction([0.0], [1.0], -1.0, 1.0))
    flat = PwlFunction([-1.0, 1.0], [1e308, 1e308], -1e300, 1e300)
    assert pe(flat, 0.0) == 0.0
    assert pe(flat, 0.5) == pytest.approx(2.5e299, rel=1e-7)  # f's own rounding near 1e308
    assert pe.eval_many(flat, [[0.0], [0.5]]).tolist() == [pe(flat, 0.0), pe(flat, 0.5)]
    steep = {"kind": "pwl", "breakpoints": [-1.0, 1.0], "values": [1e200, 1e200],
             "slope_left": -1.0, "slope_right": 1.0}
    assert pe(PwlFunction([-1.0, 1.0], [1e200, 1e200], -1.0, 1.0), 1e300) == INF
    endo, fn, pts = tmp_path / "e.json", tmp_path / "f.json", tmp_path / "p.json"
    endo.write_text(json.dumps({"kind": "phi_example", "phi": {
        "kind": "pwl", "breakpoints": [0.0], "values": [1.0],
        "slope_left": -1.0, "slope_right": 1.0}}))
    fn.write_text(json.dumps(steep))
    pts.write_text(json.dumps([[1e300]]))
    out = tmp_path / "out.csv"
    assert main(["eval", "--endo", str(endo), "--fn", str(fn), "--points", str(pts),
                 "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1].split(",")[-1] == "inf"


@pytest.mark.parametrize("eps", [1e-12, 5e-11, 1e-10])
def test_phi_endo_just_outside_bounded_profile_takes_boundary_value(eps):
    # within EDGE_TOL outside the domain [-1, 1] of phi, RADIAL_LIMIT * t
    # alone lands outside it too, where phi is +inf
    pe = PhiEndo(PwlFunction([-1.0, 0.0, 1.0], [2.0, 1.0, 2.0], -INF, INF))
    f = PwlFunction([-1.0, 0.5], [1.0, -0.5], -2.0, 3.0)
    edge = pe(f, 1.0)
    assert np.isfinite(edge)
    assert pe(f, 1.0 + eps) == edge
    assert pe(f, -1.0 - eps) == pe(f, -1.0)
    assert pe(f, 1.0 + 2e-10) == INF


def test_phi_endo_validation():
    lopsided = PwlFunction([0.0], [1.0], -1.0, 2.0)
    with pytest.raises(PhiNotEven):
        PhiEndo(lopsided)


def test_phi_endo_refuses_a_profile_even_only_near_zero():
    # even on [-4, 4] only (tail slopes -2 and 1): samples of [0, 3] passed
    # it, and it read |.| as 36.0 at t = 5 but 49.0 at t = -5
    with pytest.raises(PhiNotEven):
        PhiEndo(PwlFunction([-4.0, 0.0, 4.0], [5.0, 1.0, 5.0], -2.0, 1.0))
    pe = PhiEndo(PwlFunction([-4.0, 0.0, 4.0], [5.0, 1.0, 5.0], -2.0, 2.0))
    assert pe(pwl_abs(), 5.0) == pe(pwl_abs(), -5.0) == 49.0


def test_phi_endo_refuses_a_negative_profile():
    with pytest.raises(PhiNegative):
        PhiEndo(PwlFunction([-1.0, 0.0, 1.0], [0.5, -0.5, 0.5], -1.0, 1.0))
    assert PhiEndo(pwl_abs())(pwl_abs(), 1.0) == 1.0  # phi(0) = 0 is allowed


def test_phi_convexity_certificate_signs():
    # oracle: for phi = 1 + t^2 and f = y^2 both summands have closed-form
    # signs: phi'' = 2 > 0, f(a) + f(-a) - 2 f(0) = 2 a^2 >= 0, f' increasing
    grid = np.linspace(-2.0, 2.0, 81)
    phi = dense_parabola(span=3.0, pieces=600)
    phi = _shift(phi, 1.0)
    f = dense_parabola(span=8.0, pieces=800)
    rep = example_phi_convexity_certificate(phi, f, grid, tol=1e-6)
    assert rep.passed
    assert np.all(rep.term_curvature >= -1e-6)
    assert np.all(rep.term_slopes >= -1e-6)


def test_phi_convexity_certificate_affine_f():
    grid = np.linspace(-2.0, 2.0, 41)
    phi = _shift(dense_parabola(span=3.0, pieces=600), 1.0)
    f = pwl_linear(2.0, -1.0)
    rep = example_phi_convexity_certificate(phi, f, grid, tol=1e-9)
    assert rep.passed
    assert np.max(np.abs(rep.term_curvature)) <= 1e-9
    assert np.max(np.abs(rep.term_slopes)) <= 1e-9


def test_phi_convexity_certificate_flat_profile():
    grid = np.linspace(-0.5, 0.5, 21)
    phi = PwlFunction([0.0], [1.0], 0.0, 0.0)
    f = dense_parabola()
    rep = example_phi_convexity_certificate(phi, f, grid, tol=1e-9)
    assert np.max(np.abs(rep.term_curvature)) <= 1e-9  # phi'' = 0 region
    assert rep.passed


def test_phi_convexity_certificate_reads_the_right_slope_by_index():
    # f'(a) is the slope-sequence entry past the breakpoints <= a. With a one
    # ulp below a breakpoint, a step to nextafter(a) read the piece beyond
    # it: for a lone breakpoint that raised EmptyDomain on valid input ...
    below_one = PwlFunction([0.0], [math.nextafter(1.0, 0.0)], -1.0, 1.0)
    rep = example_phi_convexity_certificate(
        below_one, PwlFunction([1.0], [0.0], -1.0, 1.0), [-0.5, 0.0, 0.5])
    assert rep.term_slopes.tolist() == [0.0] and rep.passed
    # ... and for an interior one it read slope 1 where f has slope 0
    phi = PwlFunction([0.0], [math.nextafter(1.0, 0.0)], -1.0, 2.0)
    f = PwlFunction([-0.5, 1.0, 2.0], [0.0, 0.0, 1.0], -3.0, 2.0)
    rep = example_phi_convexity_certificate(phi, f, [-0.5, 0.0, 0.5])
    dphi = (phi(0.5) - phi(-0.5)) / 1.0
    assert rep.term_slopes.tolist() == [dphi * dphi * (0.0 - -3.0)]


def test_phi_convexity_certificate_refuses_inputs_outside_the_domain():
    # a truncated f read slopes [inf, 0, inf] and passed
    grid = np.linspace(-1.0, 1.0, 5)
    phi = PwlFunction([0.0], [0.5], -1.0, 1.0)
    with pytest.raises(InfiniteSlope):
        example_phi_convexity_certificate(phi, PwlFunction([-1.0, 1.0], [0.0, 0.0], -INF, INF), grid)
    # a phi that is +inf on the grid gave nan terms and a RuntimeWarning
    with pytest.raises(BadShape, match="phi must be finite"):
        example_phi_convexity_certificate(PwlFunction([-0.5, 0.5], [0.0, 0.0], -INF, INF),
                                          PwlFunction([0.0], [0.0], -1.0, 1.0), grid)


def test_tails_refuse_an_x_outside_A_as_residual_does():
    # the decomposition is validated on A only, though psi's box is wider
    d = kernel_decompose(Kernel1D(lambda x, y: max(y - x, 0.0) - max(y, 0.0),
                                  (-2.0, 2.0, -4.0, 4.0)), (-1.0, 1.0), 2.0)
    assert d.tails(1.0 + 5e-11) == d.residual(1.0 + 5e-11, [])[0]
    for x in (1.5, -1.0 - 2e-10, math.nan):
        with pytest.raises(OutsideA):
            d.tails(x)
        with pytest.raises(OutsideA):
            d.residual(x, [0.5])


def _ulps(x, k):
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(INF, k))
    return x


@pytest.mark.parametrize("edge", [-1.0, 1.0])
@pytest.mark.parametrize("shift", [-EDGE_TOL, 0.0, EDGE_TOL])
@pytest.mark.parametrize("k", [-2, -1, 0, 1, 2])
def test_gl_phi_and_residual_split_a_point_near_an_edge_alike(edge, shift, k):
    # p a few ulps from edge +- EDGE_TOL, against an interval with the edge
    # +-1: a gl support end against the ray domain of f along x = 1, a t
    # against phi's domain, an x against A
    p = _ulps(edge + shift, k)
    e = GlEndo(0.0, LineMeasure([(p, 1.0)]), 1)
    gl_case = gl_eval_detailed(e, Pwl1D(pwl_indicator(-1.0, 1.0), [1.0]), [1.0])[1]["case"]
    phi = PwlFunction([-1.0, 0.0, 1.0], [1.0, 0.0, 1.0], -INF, INF)
    a = PhiEndo(phi)._half_width(p)  # interior phi(p) = |p|, boundary RADIAL_LIMIT |p|
    phi_case = "exterior" if a == INF else "interior" if a == phi(p) else "boundary"
    assert phi_case == gl_case
    d = kernel_decompose(Kernel1D(lambda x, y: 0.0, (-2.0, 2.0, -4.0, 4.0)), (-1.0, 1.0), 2.0)
    try:
        d.residual(p, [])
        outside = False
    except OutsideA:
        outside = True
    assert outside == (gl_case == "exterior")


def _shift(f, c):
    return PwlFunction(f.breakpoints, [v + c for v in f.values],
                       f.slope_left, f.slope_right, slopes=f.slopes)


# -- jump-weight operator -----------------------------------------------------------

def test_ma_endo_examples():
    g = dense_parabola(span=3.0, pieces=600)
    ma = MaEndo(g, hat_weight(1.0), 1.0)
    # single kink of |.| at 0 with jump 2 and zeta(0) = 1
    for x in (-1.5, 0.3, 2.0):
        assert ma(pwl_abs(), x) == pytest.approx(2.0 * g(x), abs=1e-12)
    assert ma(pwl_linear(1.0, 0.0), 0.7) == 0.0
    shifted_abs = PwlFunction([5.0], [0.0], -1.0, 1.0)
    assert ma(shifted_abs, 0.7) == 0.0  # kink outside the weight support


# -- round trips ---------------------------------------------------------------------

@pytest.mark.parametrize("make_endo", [
    lambda: GlEndo(0.0, LineMeasure([(1.0, 1.0)]), 1),
    lambda: GlEndo(0.5, LineMeasure([(1.0, 1.0), (-0.5, 0.25)]), 1),
    lambda: PhiEndo(PwlFunction([0.0], [1.0], -1.0, 1.0)),
    lambda: MaEndo(dense_parabola(span=3.0, pieces=100), hat_weight(1.0), 1.0),
])
def test_live_round_trip(make_endo):
    em = make_endo()
    live = kernel_extract_live(em, (-1.2, 1.2, -8.0, 8.0))
    d = kernel_decompose(live, (-1.0, 1.0), 4.0)
    from convendo.rand import random_finite_pwl, rng_from_seed
    rng = rng_from_seed(21)
    for _ in range(25):
        f = random_finite_pwl(rng)
        x = float(rng.uniform(-1.0, 1.0))
        assert kernel_endo_eval(d, f, x) == pytest.approx(em(f, x), abs=1e-8)


def test_closing_example_closed_form_kernel():
    # the extracted kernel of the profile-integral operator with
    # phi(t) = 1 + |t| matches (s + phi(t))^2 / 2 - 2 phi(t) s_+ inside
    # |s| < phi(t) and vanishes outside
    phi = PwlFunction([0.0], [1.0], -1.0, 1.0)
    em = PhiEndo(phi)
    xs = np.linspace(-1.0, 1.0, 21)
    ys = np.linspace(-3.0, 3.0, 41)
    k = kernel_extract(em, xs, ys)
    _, _, vals = k.grid

    def closed(t, s):
        a = 1.0 + abs(t)
        if abs(s) >= a:
            return 0.0
        return (s + a) ** 2 / 2.0 - 2.0 * a * max(s, 0.0)

    ref = np.array([[closed(x, y) for y in ys] for x in xs])
    d2v = vals[:, 2:] - 2 * vals[:, 1:-1] + vals[:, :-2]
    d2r = ref[:, 2:] - 2 * ref[:, 1:-1] + ref[:, :-2]
    assert float(np.max(np.abs(d2v - d2r))) <= 1e-9


def test_pwl_integral_exact():
    f = pwl_abs()
    assert pwl_integral(f, -2.0, 2.0) == pytest.approx(4.0)
    assert pwl_integral(f, 0.0, 1.0) == pytest.approx(0.5)
    g = PwlFunction([-1.0, 1.0], [1.0, 1.0], -2.0, 3.0)
    assert pwl_integral(g, -1.0, 1.0) == pytest.approx(2.0)


# -- tail coefficients once per point -------------------------------------------------

def _endo_eval_per_kink(d, f, x):
    """The decomposed operator with c1..c4 solved again for every kink."""
    R, psi = d.R, d.kernel

    def c1(x):
        return (R + 1.0) * psi(x, R + 1.0) - (R + 2.0) * psi(x, R)

    def c2(x):
        return (R + 1.0) * psi(x, R) - R * psi(x, R + 1.0)

    def c3(x):
        return R * psi(x, -R) - (R - 1.0) * psi(x, -R - 1.0)

    def c4(x):
        return R * psi(x, -R - 1.0) - (R + 1.0) * psi(x, -R)

    total = (c1(x) + c3(x)) * f(0.0) + (c2(x) + c4(x)) * f(-1.0)
    for y, w in monge_ampere(f).atoms:
        res = 0.0 if abs(y) > R + 1e-12 else (
            psi(x, y) - (c1(x) * max(y, 0.0) + c2(x) * max(y + 1.0, 0.0)
                         + c3(x) * max(-y, 0.0) + c4(x) * max(-y - 1.0, 0.0)))
        total += res * w
    return total


def _kinked(rng, k, span):
    """A finite convex PwlFunction with k kinks spread over [-span, span]."""
    bp = np.sort(rng.uniform(-span, span, k))
    seq = np.cumsum(rng.uniform(0.1, 1.0, k + 1)) - 2.0
    va = np.concatenate([[0.5], 0.5 + np.cumsum(seq[1:-1] * np.diff(bp))])
    return PwlFunction(bp, va, seq[0], seq[-1], slopes=seq[1:-1])


@pytest.mark.parametrize("make_endo", [
    lambda: GlEndo(0.5, LineMeasure([(1.0, 1.0), (-0.5, 0.25)]), 1),
    lambda: PhiEndo(PwlFunction([0.0], [1.0], -1.0, 1.0)),
    lambda: MaEndo(dense_parabola(span=3.0, pieces=100), hat_weight(1.0), 1.0),
    None,
], ids=["gl", "phi", "ma", "hinge"])
def test_endo_eval_matches_per_kink_tails_bit_for_bit(make_endo):
    if make_endo is None:
        d = kernel_decompose(hinge_kernel(), (-1, 1), 2.0)
    else:
        live = kernel_extract_live(make_endo(), (-1.2, 1.2, -8.0, 8.0))
        d = kernel_decompose(live, (-1.0, 1.0), 4.0)
    rng = np.random.default_rng(8)
    for k in (1, 5, 12):
        f = _kinked(rng, k, 2.5 * d.R)  # kinks inside and outside [-R, R]
        for x in rng.uniform(-1.0, 1.0, 3).tolist() + [0.0]:
            assert kernel_endo_eval(d, f, x).hex() == _endo_eval_per_kink(d, f, x).hex()
            assert d.tails(x) == d.residual(x, [])[0]


def test_endo_eval_adds_kinks_beyond_R_as_zeros():
    # a zero kernel gives (c1 + c3) f(0) + (c2 + c4) f(-1) = -0.0 for f < 0
    # there; each kink beyond R then adds +0.0, as psi_tilde's zeros do
    d = kernel_decompose(Kernel1D(lambda x, y: 0.0, (-1, 1, -4, 4)), (-1, 1), 2.0)
    f = PwlFunction([-3.0, 3.0], [-1.0, -1.0], -1.0, 1.0)
    assert kernel_endo_eval(d, f, 0.5).hex() == _endo_eval_per_kink(d, f, 0.5).hex() == "0x0.0p+0"
    g = PwlFunction([0.0], [-1.0], 0.0, 0.0)
    assert kernel_endo_eval(d, g, 0.5).hex() == "-0x0.0p+0"


def test_endo_eval_makes_four_plus_kinks_psi_calls():
    calls = []

    def evaluator(x, y):
        calls.append(y)
        return max(y - x, 0.0) - max(y, 0.0)

    d = kernel_decompose(Kernel1D(evaluator, (-1, 1, -4, 4)), (-1, 1), 2.0)
    f = PwlFunction([-3.0, -1.0, 0.5, 1.9, 2.5], [5.0, 1.0, 0.0, 0.5, 1.0], -3.0, 1.0)
    inside = sum(abs(y) <= d.R for y, _ in monge_ampere(f).atoms)
    assert inside == 3
    calls.clear()
    kernel_endo_eval(d, f, 0.25)
    assert len(calls) == 4 + inside
    # the cut sits at R + 1e-12: kinks at -R and R + 5e-13 are read, ones
    # at -R - 2e-12 and R + 2e-12 are not, in kernel_endo_eval and
    # residual alike
    bp = [-2.0 - 2e-12, -2.0, 1.5, 2.0 + 5e-13, 2.0 + 2e-12]
    ms = [-2.5, -1.0, 0.5, 1.0]
    va = [1.0]
    for b1, b2, m in zip(bp, bp[1:], ms):
        va.append(va[-1] + m * (b2 - b1))
    g = PwlFunction(bp, va, -3.0, 3.0, slopes=ms)
    kinks = [y for y, _ in monge_ampere(g).atoms]
    assert kinks == bp
    for y, read in zip(kinks, (False, True, True, True, False)):
        calls.clear()
        d.residual(0.25, [y])
        assert len(calls) == 4 + read
    calls.clear()
    kernel_endo_eval(d, g, 0.25)
    assert len(calls) == 4 + 3


@pytest.mark.parametrize("bad", ["xs", "ys", "values"])
@pytest.mark.parametrize("v", [float("nan"), INF, -INF])
def test_grid_kernel_refuses_non_finite(bad, v):
    grid = {"xs": [-1.0, 0.0, 1.0], "ys": [-1.0, 1.0],
            "values": [[0.0, 1.0], [0.5, 0.5], [1.0, 0.0]]}
    if bad == "values":
        grid["values"][1][0] = v
    else:
        grid[bad][-1] = v
    with pytest.raises(BadShape):
        Kernel1D.from_grid(grid["xs"], grid["ys"], grid["values"])


# -- grid rows against the scalar bilinear formula -------------------------------

def _bilinear(xs, ys, values, x, y):
    """psi(x, y) of a grid kernel, one point at a time."""
    i = int(np.clip(np.searchsorted(xs, x) - 1, 0, xs.size - 2))
    j = int(np.clip(np.searchsorted(ys, y) - 1, 0, ys.size - 2))
    tx = (x - xs[i]) / (xs[i + 1] - xs[i])
    ty = (y - ys[j]) / (ys[j + 1] - ys[j])
    return float((1 - tx) * (1 - ty) * values[i, j] + tx * (1 - ty) * values[i + 1, j]
                 + (1 - tx) * ty * values[i, j + 1] + tx * ty * values[i + 1, j + 1])


@pytest.mark.parametrize("seed", range(3))
def test_grid_row_matches_scalar_bilinear_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    xs = np.cumsum(rng.uniform(0.05, 0.5, 9)) - 1.0
    ys = np.cumsum(rng.uniform(0.05, 0.5, 23)) - 3.0
    values = rng.normal(size=(xs.size, ys.size)) * 10.0 ** rng.integers(-3, 4)
    k = Kernel1D.from_grid(xs, ys, values)
    # nodes, points just beside them, points between them and the box edges
    ys_row = np.concatenate([ys, np.nextafter(ys, INF), np.nextafter(ys, -INF),
                             rng.uniform(ys[0], ys[-1], 40), [ys[0] - 5e-10, ys[-1] + 5e-10]])
    ys_row = ys_row[(ys_row >= ys[0] - 1e-9) & (ys_row <= ys[-1] + 1e-9)]
    for x in np.concatenate([xs, rng.uniform(xs[0], xs[-1], 6), [xs[-1] + 5e-10]]).tolist():
        got = k.row(x, ys_row.tolist())
        want = [_bilinear(xs, ys, values, x, y) for y in ys_row.tolist()]
        assert [v.hex() for v in got] == [v.hex() for v in want]
        for y in ys_row[::7].tolist():
            assert k(x, y).hex() == _bilinear(xs, ys, values, x, y).hex()


def test_row_checks_the_box():
    k = Kernel1D.from_grid([0.0, 1.0], [0.0, 1.0], [[0.0, 1.0], [2.0, 3.0]])
    with pytest.raises(OutsideA, match=r"\(0.5, 1.5\)"):
        k.row(0.5, [0.2, 1.5, 2.0])
    with pytest.raises(OutsideA):
        k.row(1.5, [0.5])
    with pytest.raises(OutsideA):
        k.row(0.5, [float("nan")])
    calls = []
    live = Kernel1D(lambda x, y: calls.append(y) or 0.0, (-1, 1, -1, 1))
    with pytest.raises(OutsideA):
        live.row(0.0, [0.5, 3.0])
    assert calls == []  # the whole row is checked before anything is evaluated
    assert live.row(0.0, []) == []


# -- hinges and measures built without re-validation -----------------------------

def _fields(f):
    return [(type(v), v) for v in (f.breakpoints, f.values, f.slopes)] + \
        [(type(f.slope_left), f.slope_left), (type(f.slope_right), f.slope_right)] + \
        [tuple(map(type, f.breakpoints + f.values))]


@pytest.mark.parametrize("y", [0, 2, -3.5, -0.0, 1e-300, 1e308, np.float64(0.7),
                               np.float32(1.25), True])
def test_hinge_equals_validated_construction(y):
    assert _fields(pwl_hinge(y)) == _fields(PwlFunction([float(y)], [0.0], -1.0, 0.0))


@pytest.mark.parametrize("y", [float("nan"), INF, -INF, np.float64("nan")])
def test_hinge_refuses_non_finite_as_validated_construction(y):
    with pytest.raises(BadShape) as want:
        PwlFunction([float(y)], [0.0], -1.0, 0.0)
    with pytest.raises(BadShape) as got:
        pwl_hinge(y)
    assert str(got.value) == str(want.value)


def _measure_fields(m):
    return [(type(m.positions), m.positions), (type(m.weights), m.weights),
            tuple(map(type, m.positions + m.weights))]


@pytest.mark.parametrize("seed", range(5))
def test_monge_ampere_equals_validated_measure(seed):
    rng = np.random.default_rng(seed)
    for k in (1, 2, 7, 40):
        f = _kinked(rng, k, 3.0)
        seq = f.slope_sequence()
        atoms = [(b, m2 - m1) for b, m1, m2 in zip(f.breakpoints, seq, seq[1:])]
        assert _measure_fields(monge_ampere(f)) == _measure_fields(LineMeasure(atoms))
    # flat pieces give zero jumps, which are dropped
    f = PwlFunction([-1.0, 0.0, 1.0], [1.0, 1.0, 2.0], 0.0, 1.0)
    assert monge_ampere(f).atoms == ((0.0, 1.0),)


def test_monge_ampere_refuses_an_overflowing_jump_as_validated_measure():
    f = PwlFunction([0.0], [0.0], -1.5e308, 1.5e308)
    with pytest.raises(BadShape) as want:
        LineMeasure([(0.0, f.slope_right - f.slope_left)])
    with pytest.raises(BadShape) as got:
        monge_ampere(f)
    assert str(got.value) == str(want.value)


# -- kernel rows against one operator call per hinge -----------------------------

def _per_hinge(op, x, ys):
    """The oracle of ``op.kernel_row``: one operator call on each hinge."""
    return [op(pwl_hinge(y), x) for y in ys]


def _hexes(values):
    return [float(v).hex() for v in values]


def _grid_decomposition():
    xs, ys = np.linspace(-1.0, 1.0, 9), np.linspace(-5.0, 5.0, 41)
    X = xs[:, None]
    values = np.maximum(ys - X, 0.0) - 0.5 * np.maximum(ys, 0.0) + 0.25 * X * ys + 0.1 * X
    return kernel_decompose(Kernel1D.from_grid(xs, ys, values), (-1.0, 1.0), 2.0)


ROW_YS = [-3.0, -2.0, -1.0, -0.0, 0.0, 1e-300, 0.37, 1.0, 2.5, 3.0]


@pytest.mark.parametrize("x", [-1.0, -0.4, 0.0, 0.8, 1.0])
def test_gl_and_scale_compose_rows_match_the_hinge_oracle(x):
    e = GlEndo(-0.5, LineMeasure([(1.0, 1.0), (-0.5, 0.25), (2.0, 0.7), (1e-3, 3.0)]), 1)
    m = ScaleComposeMap(2.0, -1.5, 1)
    # atoms whose s x lands on y, and mu x
    ys = ROW_YS + [s * x for s in e.nu.positions] + [-1.5 * x]
    assert _hexes(e.kernel_row(x, ys)) == _hexes(_per_hinge(e, x, ys))
    assert _hexes(m.kernel_row(x, ys)) == _hexes(_per_hinge(m, x, ys))


@pytest.mark.parametrize("phi", [
    PwlFunction([0.0], [1.0], -1.0, 1.0),
    PwlFunction([-1.0, 0.0, 1.0], [2.0, 1.0, 2.0], -INF, INF),  # truncated to [-1, 1]
    PwlFunction([0.0], [0.0], -1.0, 1.0),                        # a = 0 at t = 0
], ids=["unbounded", "truncated", "zero_at_0"])
@pytest.mark.parametrize("t", [0.0, 0.3, -0.95, 1.0, -1.0, 1.0 + 5e-11, -1.0 - 5e-11, 1.5])
def test_phi_rows_match_the_hinge_oracle(phi, t):
    pe = PhiEndo(phi)
    # the trapezoid's ends: y = +-a (a = phi(t) inside, the radial limit on
    # the boundary, +inf outside the truncated domain)
    a = pe._half_width(t)
    ys = ROW_YS + ([a, -a, np.nextafter(a, 0.0), -np.nextafter(a, 0.0)] if a < INF else [])
    row = pe.kernel_row(t, ys)
    assert _hexes(row) == _hexes(_per_hinge(pe, t, ys))
    if phi.slope_left == -INF and abs(t) > 1.0 + 1e-10:
        assert (row == INF).all()


@pytest.mark.parametrize("x", [-1.5, 0.0, 0.4, 2.0])
def test_ma_rows_match_the_hinge_oracle(x):
    g = PwlFunction([-1.0, 0.5, 1.5], [2.0, -0.5, 1.0], -3.0, 2.0)
    # a weight that is not 0 at the radius, so that the cut |y| <= 1.2 shows
    ma = MaEndo(g, lambda u: 0.5 + u * u, 1.2)
    ys = ROW_YS + [1.2, -1.2, np.nextafter(1.2, 2.0), -np.nextafter(1.2, 2.0)]
    assert _hexes(ma.kernel_row(x, ys)) == _hexes(_per_hinge(ma, x, ys))


@pytest.mark.parametrize("make", ["grid", "live"])
@pytest.mark.parametrize("x", [-1.0, -1.0 - 5e-11, -0.3, 0.0, 0.9, 1.0 + 5e-11])
def test_decomposition_rows_match_the_hinge_oracle(make, x):
    if make == "grid":
        d = _grid_decomposition()
    else:
        live = kernel_extract_live(GlEndo(0.5, LineMeasure([(1.0, 1.0), (-0.5, 0.25)]), 1),
                                   (-1.2, 1.2, -8.0, 8.0))
        d = kernel_decompose(live, (-1.0, 1.0), 2.0)
    R = d.R
    # kinks at the 1e-12 cut: +-R +- 5e-13 are read, +-R +- 2e-12 are not
    ys = ROW_YS + [s * R + e for s in (1.0, -1.0) for e in (0.0, 5e-13, -5e-13, 2e-12, -2e-12)]
    assert _hexes(d.kernel_row(x, ys)) == _hexes(_per_hinge(d, x, ys))


def test_decomposition_row_outside_A_raises_as_the_hinge_oracle():
    d = _grid_decomposition()
    with pytest.raises(OutsideA) as want:
        _per_hinge(d, 1.5, [0.5])
    with pytest.raises(OutsideA) as got:
        d.kernel_row(1.5, [0.5])
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("op", [
    GlEndo(0.5, LineMeasure([(1.0, 1.0), (-0.5, 0.25)]), 1),
    ScaleComposeMap(2.0, -1.5, 1),
    PhiEndo(PwlFunction([0.0], [1.0], -1.0, 1.0)),
    MaEndo(PwlFunction([0.0], [0.5], -1.0, 2.0), hat_weight(1.0), 1.0),
    _grid_decomposition(),
], ids=["gl", "scale_compose", "phi", "ma", "kernel"])
def test_live_row_refuses_a_y_outside_the_box_as_the_hinge_oracle(op):
    box = (-1.0, 1.0, -4.0, 4.0)
    oracle = Kernel1D(lambda x, y: op(pwl_hinge(y), x), box)
    for x, ys in ((0.5, [0.5, 4.5, -6.0]), (0.5, [float("nan")]), (1.5, [0.5])):
        with pytest.raises(OutsideA) as want:
            oracle.row(x, ys)
        with pytest.raises(OutsideA) as got:
            kernel_extract_live(op, box).row(x, ys)
        assert str(got.value) == str(want.value)


def test_gl_kernel_of_more_dimensions_is_refused_as_before():
    with pytest.raises(BadShape, match="1-dimensional"):
        kernel_extract(GlEndo(1.0, LineMeasure([(1.0, 1.0)]), 2), [0.0, 1.0], [0.0, 1.0])
    for op in (GlEndo(1.0, LineMeasure([(1.0, 1.0)]), 2), ScaleComposeMap(2.0, -1.5, 2)):
        with pytest.raises(BadShape) as want:
            op(pwl_hinge(1.0), 0.0)
        with pytest.raises(BadShape) as got:
            op.kernel_row(0.0, [1.0])
        assert str(got.value) == str(want.value)


def test_kernel_extract_without_x_nodes_reports_the_node_count():
    for op in (ScaleComposeMap(2.0, -1.5, 1), lambda f, x: f(x)):
        with pytest.raises(BadShape, match="at least two nodes"):
            kernel_extract(op, [], [0.0, 1.0])


@pytest.mark.parametrize("make", ["grid", "live"])
def test_decomposition_eval_many_matches_each_point(make):
    if make == "grid":
        d = _grid_decomposition()
    else:
        live = kernel_extract_live(PhiEndo(PwlFunction([0.0], [1.0], -1.0, 1.0)),
                                   (-1.2, 1.2, -8.0, 8.0))
        d = kernel_decompose(live, (-1.0, 1.0), 4.0)
    rng = np.random.default_rng(3)
    X = np.concatenate([[-1.0, -1.0 - 5e-11, 0.0, 1.0], rng.uniform(-1.0, 1.0, 396)])[:, None]
    for k in (0, 1, 7, 60):
        f = _kinked(rng, k, 2.5 * d.R) if k else pwl_linear(0.5, -2.0)
        got = d.eval_many(f, X)
        assert _hexes(got) == _hexes([d(f, x) for x in X[:, 0].tolist()])
        assert _hexes(got[:8]) == _hexes([_endo_eval_per_kink(d, f, x) for x in X[:8, 0]])


def test_kernel_extract_calls_no_operator_on_a_hinge(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(kernel1d, "pwl_hinge", lambda y: calls.append(y) or pwl_hinge(y))
    for cls in (GlEndo, PhiEndo, MaEndo, kernel1d.KernelDecomposition):
        monkeypatch.setattr(cls, "__call__", lambda self, f, x: calls.append(f) or 0.0)
    pwl = {"kind": "pwl", "breakpoints": [-1.0, 0.5], "values": [1.0, 0.0],
           "slope_left": -2.0, "slope_right": 1.0}
    xs, ys = np.linspace(-1.0, 1.0, 5), np.linspace(-3.0, 3.0, 13)
    descriptors = [
        {"kind": "gl", "c": 0.5, "n": 1, "nu": {"atoms": [{"s": 1.0, "w": 1.0}]}},
        {"kind": "phi_example", "phi": {**pwl, "breakpoints": [0.0], "values": [1.0],
                                        "slope_left": -1.0, "slope_right": 1.0}},
        {"kind": "ma_example", "g": pwl, "zeta": {"kind": "hat", "radius": 1.0}},
        {"kind": "kernel", "A": [-1.0, 1.0], "R": 2.0, "psi": {
            "kind": "grid", "xs": xs.tolist(), "ys": ys.tolist(),
            "values": (np.maximum(ys - xs[:, None], 0.0) - np.maximum(ys, 0.0)).tolist()}},
    ]
    for i, desc in enumerate(descriptors):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(desc))
        assert main(["kernel", "extract", "--endo", str(path), "--grid-x=-1:1:0.25",
                     "--grid-y=-3:3:0.5", "--out", str(tmp_path / f"{i}.csv")]) == 0
    assert calls == []
