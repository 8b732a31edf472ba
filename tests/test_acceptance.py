"""Acceptance criteria, one test per criterion, one PASS/FAIL line each."""

import math
import time

import numpy as np

from convendo import (INF, Affine, GlEndo, LineMeasure, MaEndo, Norm,
                      OrbitMeasure, PhiEndo, Precompose, Pwl1D, PwlFunction,
                      Quad, RadialEndo, RadialPwl, ScaleComposeMap,
                      Sum, acts_as_scalar_on_radial, canonical_rotation,
                      expr_eval, gl_empirical_monotone_search, gl_eval,
                      gl_is_dually_translation_invariant, gl_is_monotone,
                      gw_probe, hat_weight, is_convex_block, is_convex_sampled,
                      kernel_decompose, kernel_endo_eval, kernel_extract,
                      kernel_extract_live, line_measure_add, legendre,
                      monge_ampere, moreau_envelope, pwl_add, pwl_indicator,
                      radial_eval, scale_compose_eval)
from convendo.rand import (random_convex_pwl, random_finite_expr,
                           random_finite_pwl, random_invertible,
                           random_line_measure,
                           random_rotation, random_rotation_fixing_axis,
                           random_smooth_expr, rng_from_seed)
from convendo.fixtures import (gw_bases_1d, gw_bases_nd, probe_lines,
                               radial_hat_parts, random_hat_parts_1d)


def _report(num, name, ok, detail=""):
    print(f"criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'} {detail}")
    return ok


# ---------------------------------------------------------------------------

def test_criterion_1_legendre_involution():
    rng = rng_from_seed(101)
    t0 = time.time()
    worst = 0.0
    for _ in range(1000):
        f = random_convex_pwl(rng, max_breaks=50)
        g = legendre(legendre(f))
        assert len(g.breakpoints) == len(f.breakpoints)
        worst = max(worst, max(abs(a - b) for a, b in
                               zip(f.breakpoints, g.breakpoints)))
        worst = max(worst, max(abs(a - b) for a, b in zip(f.values, g.values)))
        for a, b in zip(f.slope_sequence(), g.slope_sequence()):
            if math.isfinite(a) or math.isfinite(b):
                worst = max(worst, abs(a - b))
            else:
                assert a == b
    dt = time.time() - t0
    ok = worst <= 1e-12 and dt < 5.0
    assert _report(1, "legendre involution", ok,
                   f"max_dev={worst:.2e} runtime={dt:.2f}s")


def test_criterion_2_monge_ampere_additivity():
    rng = rng_from_seed(102)
    t0 = time.time()
    worst_w = 0.0
    positions_exact = True
    for _ in range(1000):
        f = random_finite_pwl(rng)
        g = random_finite_pwl(rng)
        lhs = monge_ampere(pwl_add(f, g))
        rhs = line_measure_add(monge_ampere(f), monge_ampere(g))
        assert len(lhs) == len(rhs)
        positions_exact &= lhs.positions == rhs.positions
        if len(lhs):
            worst_w = max(worst_w, max(abs(a - b) for a, b in
                                       zip(lhs.weights, rhs.weights)))
    dt = time.time() - t0
    ok = positions_exact and worst_w <= 1e-12 and dt < 5.0
    assert _report(2, "Monge-Ampere additivity", ok,
                   f"max_weight_dev={worst_w:.2e} runtime={dt:.2f}s")


def test_criterion_3_gl_criteria():
    # boundary flip of the monotonicity criterion at c = 4 for nu = delta_1/2
    flip = (gl_is_monotone(GlEndo(4.0, LineMeasure([(0.5, 1.0)]), 2))
            and not gl_is_monotone(GlEndo(4.0 - 1e-9, LineMeasure([(0.5, 1.0)]), 2))
            and not gl_is_monotone(GlEndo(3.9, LineMeasure([(0.5, 1.0)]), 2)))

    w = gl_empirical_monotone_search(
        GlEndo(3.9, LineMeasure([(0.5, 1.0)]), 2), trials=10, seed=1)
    witness_ok = (w is not None
                  and abs(np.linalg.norm(w["x"]) - 2.0) <= 1e-12
                  and abs((w["value_f"] - w["value_g"]) - 0.1) <= 1e-9)
    # value against the zero input: Psi(0) = 0, so value_f itself is the gap
    zero_gap = abs(w["value_f"] - 0.1) <= 1e-9

    rng = rng_from_seed(103)
    agree = True
    for i in range(100):
        nu = random_line_measure(rng, balanced=(i % 2 == 0))
        e = GlEndo(float(rng.uniform(0.0, 2.0)), nu, 2)
        pred = gl_is_dually_translation_invariant(e)
        probes = [(np.array([1.0, 0.0]), np.array([1.0, 0.0]))]
        probes += [(rng.normal(size=2), rng.uniform(-2, 2, size=2))
                   for _ in range(3)]
        emp = max(abs(gl_eval(e, Affine(a, 0.0), x)) for a, x in probes)
        agree &= pred == (emp <= 1e-9)
    ok = flip and witness_ok and zero_gap and agree
    assert _report(3, "GL monotone/dual criteria", ok,
                   f"flip={flip} witness={witness_ok} dual_agree={agree}")


def test_criterion_4_gl_equivariance():
    rng = rng_from_seed(104)
    pool = {2: [random_finite_expr(rng, 2) for _ in range(10)],
            3: [random_finite_expr(rng, 3) for _ in range(10)]}
    worst = 0.0
    for i in range(100):
        n = 2 if i < 50 else 3
        e = GlEndo(float(rng.uniform(0.0, 2.0)), random_line_measure(rng), n)
        m = random_invertible(rng, n)
        f = pool[n][i % 10]
        for x in rng.uniform(-2.0, 2.0, size=(100, n)):
            worst = max(worst, abs(gl_eval(e, Precompose(m, f), x)
                                   - gl_eval(e, f, m @ x)))
    ok = worst <= 1e-9
    assert _report(4, "GL equivariance", ok, f"max_dev={worst:.2e}")


def test_criterion_5_rigidity_blowup():
    e = GlEndo(0.0, LineMeasure([(1.0, 1.0), (-1.0, 1.0)]), 1)
    f = Sum([Affine([0.0], 0.0), Pwl1D(pwl_indicator(-0.1, 1.0), [1.0])])
    inside = all(gl_eval(e, f, [x]) == 0.0
                 for x in np.linspace(-0.099, 0.099, 21))
    outside = all(gl_eval(e, f, [x]) == INF
                  for x in list(np.arange(0.11, 2.01, 0.1))
                  + list(-np.arange(0.11, 2.01, 0.1)))
    sc = ScaleComposeMap(2.0, -1.0, 1)
    seg = Pwl1D(pwl_indicator(0.0, 1.0), [1.0])
    contrast = (scale_compose_eval(sc, seg, [-0.5]) == 0.0
                and scale_compose_eval(sc, seg, [-1.0]) == 0.0
                and scale_compose_eval(sc, seg, [0.25]) == INF)
    ok = inside and outside and contrast
    assert _report(5, "whole-space rigidity blow-up", ok,
                   f"inside={inside} outside={outside} contrast={contrast}")


def test_criterion_6_radial_suite():
    rng = rng_from_seed(106)
    two_pole = RadialEndo(OrbitMeasure(3, [(1.0, 0.0, 1.0),
                                           (1.0, math.pi, 1.0)]), M=64)
    tilted = RadialEndo(OrbitMeasure(3, [(1.3, 1.1, 2.0),
                                         (0.6, 2.0, 0.5)]), M=64)

    worst_rot = 0.0
    for _ in range(20):
        e = tilted if rng.random() < 0.5 else two_pole
        f = random_smooth_expr(rng, 3)
        x = rng.uniform(-2.0, 2.0, size=3)
        if np.linalg.norm(x) < 0.1:
            x[0] += 1.0
        base = canonical_rotation(x, 3)
        q = random_rotation_fixing_axis(rng, 3)
        worst_rot = max(worst_rot, abs(radial_eval(e, f, x)
                                       - radial_eval(e, f, x, rotation=base @ q)))

    worst_so = 0.0
    for _ in range(20):
        e = tilted
        f = random_smooth_expr(rng, 3)
        rho = random_rotation(rng, 3)
        x = rng.uniform(-2.0, 2.0, size=3)
        worst_so = max(worst_so, abs(radial_eval(e, Precompose(rho, f), x)
                                     - radial_eval(e, f, rho @ x)))

    worst_dil = 0.0
    for _ in range(30):
        e = tilted
        f = random_finite_expr(rng, 3)
        t = float(rng.uniform(0.2, 3.0))
        x = rng.uniform(-2.0, 2.0, size=3)
        worst_dil = max(worst_dil,
                        abs(radial_eval(e, f, t * x)
                            - radial_eval(e, Precompose(t * np.eye(3), f), x)))

    worst_mono = 0.0
    from convendo.rand import random_nonneg_expr
    fixtures = [two_pole, tilted,
                RadialEndo(OrbitMeasure(2, [(1.5, 2.0, 1.0)]), M=1)]
    for _ in range(1000):
        e = fixtures[int(rng.integers(0, 3))]
        f = random_finite_expr(rng, e.n)
        g = Sum([f, random_nonneg_expr(rng, e.n)])
        x = rng.uniform(-2.0, 2.0, size=e.n)
        worst_mono = max(worst_mono,
                         radial_eval(e, f, x) - radial_eval(e, g, x))

    # unit-radius orbits act as mass times the identity on rotation-
    # invariant inputs; off-sphere orbits visibly do not
    e_unit = RadialEndo(OrbitMeasure(3, [(1.0, math.pi / 3, 2.0)]), M=64)
    assert acts_as_scalar_on_radial(e_unit)
    worst_scalar = 0.0
    for f in (Norm(1.0), Quad(1.0)):
        for x in rng.uniform(-2.0, 2.0, size=(25, 3)):
            worst_scalar = max(worst_scalar,
                               abs(radial_eval(e_unit, f, x)
                                   - 2.0 * expr_eval(f, x)))
    e_off = RadialEndo(OrbitMeasure(3, [(1.5, 0.0, 1.0)]), M=8)
    assert not acts_as_scalar_on_radial(e_off)
    x1 = np.array([1.0, 0.0, 0.0])
    margin = abs(radial_eval(e_off, Quad(1.0), x1)
                 - 1.0 * expr_eval(Quad(1.0), x1))

    ok = (worst_rot <= 1e-9 and worst_so <= 1e-9 and worst_dil <= 1e-9
          and worst_mono <= 1e-9 and worst_scalar <= 1e-6 and margin >= 1.0)
    assert _report(6, "radial operator suite", ok,
                   f"rot={worst_rot:.1e} so={worst_so:.1e} dil={worst_dil:.1e} "
                   f"mono={worst_mono:.1e} scalar={worst_scalar:.1e} "
                   f"margin={margin:.2f}")


def _one_dim_families():
    phi = PwlFunction([0.0], [1.0], -1.0, 1.0)
    span = np.linspace(-3, 3, 49)
    g = PwlFunction(span, span ** 2 / 9.0, -2.0 / 3.0, 2.0 / 3.0)
    return [
        ("gl1d", GlEndo(0.5, LineMeasure([(1.0, 1.0), (-0.5, 0.25)]), 1), 1e-8),
        ("phi", PhiEndo(phi), 1e-5),
        ("ma", MaEndo(g, hat_weight(1.0), 1.0), 1e-5),
    ]


def test_criterion_7_kernel_round_trip():
    rng = rng_from_seed(107)
    t0 = time.time()
    details = []
    ok = True
    for name, em, tol in _one_dim_families():
        live = kernel_extract_live(em, (-1.2, 1.2, -8.0, 8.0))
        d = kernel_decompose(live, (-1.0, 1.0), 4.0)
        worst = 0.0
        xs = rng.uniform(-1.0, 1.0, size=50)
        for _ in range(100):
            f = random_finite_pwl(rng)
            for x in xs:
                worst = max(worst, abs(kernel_endo_eval(d, f, float(x))
                                       - em(f, float(x))))
        details.append(f"{name}={worst:.2e}(tol {tol:.0e})")
        ok &= worst <= tol
    dt = time.time() - t0
    ok &= dt < 60.0
    assert _report(7, "kernel round trip", ok,
                   " ".join(details) + f" runtime={dt:.1f}s")


def test_criterion_8_closing_example_kernel():
    phi = PwlFunction([0.0], [1.0], -1.0, 1.0)
    em = PhiEndo(phi)
    xs = np.linspace(-1.0, 1.0, 101)
    ys = np.linspace(-3.0, 3.0, 101)
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
    worst = float(np.max(np.abs(d2v - d2r)))
    ok = worst <= 1e-6
    assert _report(8, "closed-form kernel of the profile operator", ok,
                   f"max_second_diff_dev={worst:.2e}")


def _shipped_endos():
    phi = PwlFunction([0.0], [1.0], -1.0, 1.0)
    span = np.linspace(-3, 3, 49)
    g = PwlFunction(span, span ** 2 / 9.0, -2.0 / 3.0, 2.0 / 3.0)
    gl2 = GlEndo(0.0, LineMeasure([(1.0, 1.0), (-1.0, 1.0)]), 2)
    glm = GlEndo(1.5, LineMeasure([(0.8, 1.0), (-1.25, 0.5)]), 2)
    rad3 = RadialEndo(OrbitMeasure(3, [(1.0, 0.0, 1.0), (1.0, math.pi, 1.0)]),
                      M=64)
    rad2 = RadialEndo(OrbitMeasure(2, [(1.0, 0.5, 1.0), (0.5, -2.0, 0.5)]), M=1)
    hinge_d = kernel_decompose(
        kernel_extract_live(
            GlEndo(0.0, LineMeasure([(1.0, 1.0)]), 1),
            (-1.2, 1.2, -8.0, 8.0)), (-1.0, 1.0), 4.0)
    return {
        "nd": [("gl_two_atom", gl2, 2),
               ("gl_mixed", glm, 2),
               ("scale_compose", ScaleComposeMap(2.0, -1.0, 2), 2),
               ("radial_3d", rad3, 3),
               ("radial_2d", rad2, 2)],
        "1d": [("gl1d", GlEndo(0.5, LineMeasure([(1.0, 1.0), (-0.5, 0.25)]), 1)),
               ("phi", PhiEndo(phi)),
               ("ma", MaEndo(g, hat_weight(1.0), 1.0)),
               ("kernel_decomp", hinge_d)],
    }


def test_criterion_9_gw_well_definedness():
    rng = rng_from_seed(109)
    endos = _shipped_endos()
    all_ok = True
    checked = 0
    for name, em, n in endos["nd"]:
        for _ in range(10):
            phi_p, phi_m, _ = radial_hat_parts(rng, n)
            bases = [gw_bases_nd(rng, phi_m, n) for _ in range(3)]
            fs = [bases[0][0], bases[0][1], bases[1][0], bases[1][1], bases[2][0]]
            x = rng.uniform(-1.5, 1.5, size=n)
            if np.linalg.norm(x) < 0.3:
                x = x + 0.4
            lines = probe_lines(rng, n)
            for k in range(1, 5):
                _, flag = gw_probe(em, x, phi_p, phi_m, (fs[0], fs[k]),
                                   tol=1e-9, lines=lines)
                all_ok &= flag
                checked += 1
    for name, em in endos["1d"]:
        for _ in range(10):
            phi_p, phi_m = random_hat_parts_1d(rng)
            bases = [gw_bases_1d(rng, phi_m) for _ in range(3)]
            fs = [bases[0][0], bases[0][1], bases[1][0], bases[1][1], bases[2][0]]
            x = float(rng.uniform(-1.0, 1.0))
            for k in range(1, 5):
                _, flag = gw_probe(em, x, phi_p, phi_m, (fs[0], fs[k]), tol=1e-9)
                all_ok &= flag
                checked += 1
    assert _report(9, "probe well-definedness", all_ok, f"checks={checked}")


def test_criterion_10_output_convexity():
    rng = rng_from_seed(110)
    endos = _shipped_endos()
    ts = np.linspace(-1.0, 1.0, 9)
    ok = True
    for name, em, n in endos["nd"]:
        smooth_only = name.startswith("radial") and n == 3
        for _ in range(50):
            f = (random_smooth_expr(rng, n) if smooth_only
                 else random_finite_expr(rng, n))
            for _ in range(10):
                base = rng.uniform(-1.0, 1.0, size=n)
                d = rng.normal(size=n)
                if not is_convex_block(lambda T: em.eval_many(f, base + T[:, None] * d), ts,
                                       tol=1e-8):
                    ok = False
    for name, em in endos["1d"]:
        for _ in range(50):
            f = random_finite_pwl(rng)
            for _ in range(10):
                base = float(rng.uniform(-0.4, 0.4))
                d = float(rng.uniform(0.1, 0.6)) * (1 if rng.random() < 0.5 else -1)
                if not is_convex_sampled(lambda t: em(f, base + t * d), ts,
                                         tol=1e-8):
                    ok = False
    assert _report(10, "output convexity", ok)


def _even_profile():
    # even convex profile with gentle slopes, kinks at 0 and +-1
    return PwlFunction([-1.0, 0.0, 1.0], [0.25, 0.0, 0.25],
                       -0.4, 0.4, slopes=[-0.25, 0.25])


def _resampled_envelope(p, t, mesh=2e-4, span=4.0):
    env = moreau_envelope(p, t)
    n = int(round(span / mesh))
    xs = np.linspace(-span, span, 2 * n + 1)
    return PwlFunction(xs, [env(x) for x in xs], p.slope_left, p.slope_right)


def test_criterion_11_epi_continuity_smoke():
    rng = rng_from_seed(111)
    prof = _even_profile()
    js = [2 ** k for k in range(1, 11)]
    envs = {j: _resampled_envelope(prof, 1.0 / j) for j in js}

    gl = GlEndo(1.0, LineMeasure([(1.0, 0.5), (-1.0, 0.5)]), 2)
    rad = RadialEndo(OrbitMeasure(3, [(1.0, 0.0, 1.0), (1.0, math.pi, 1.0)]),
                     M=32)
    sc = ScaleComposeMap(2.0, -1.0, 2)
    phi = PhiEndo(PwlFunction([0.0], [1.0], -1.0, 1.0))
    span = np.linspace(-3, 3, 49)
    ma = MaEndo(PwlFunction(span, span ** 2 / 9.0, -2.0 / 3.0, 2.0 / 3.0),
                hat_weight(1.0), 1.0)
    gl1 = GlEndo(0.5, LineMeasure([(1.0, 1.0), (-0.5, 0.25)]), 1)

    def family_devs(apply_to_profile, points):
        limit = [apply_to_profile(prof, x) for x in points]
        out = []
        for j in js:
            fj = envs[j]
            out.append(max(abs(apply_to_profile(fj, x) - lim)
                           for x, lim in zip(points, limit)))
        return out

    families = {}
    pts2 = [rng.uniform(-1.0, 1.0, size=2) * 0.8 + 0.2 for _ in range(10)]
    families["gl"] = family_devs(
        lambda p, x: gl_eval(gl, RadialPwl(p), x), pts2)
    pts3 = [rng.uniform(-1.0, 1.0, size=3) for _ in range(10)]
    families["radial"] = family_devs(
        lambda p, x: radial_eval(rad, RadialPwl(p), x), pts3)
    families["scale_compose"] = family_devs(
        lambda p, x: scale_compose_eval(sc, RadialPwl(p), x), pts2)
    pts1 = [float(v) for v in rng.uniform(-1.0, 1.0, size=10)]
    families["phi"] = family_devs(lambda p, x: phi(p, x), pts1)
    families["ma"] = family_devs(lambda p, x: ma(p, x), pts1)
    families["gl1d"] = family_devs(
        lambda p, x: gl1(p, x), pts1)

    ok = True
    details = []
    for name, devs in families.items():
        final = devs[-1]
        mono = all(d2 <= d1 * 1.1 + 1e-6 for d1, d2 in zip(devs, devs[1:]))
        details.append(f"{name}: final={final:.1e} mono={mono}")
        ok &= final <= 1e-3 and mono
    assert _report(11, "epi-continuity smoke", ok, "; ".join(details))
