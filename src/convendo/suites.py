"""Property suites behind the ``check`` command.

Each suite replays the invariants of one layer of the library on seeded
random inputs and reports per-property trial counts and worst observed
errors. A failing property carries a JSON-serializable counterexample.
Every operator is called as ``e(f, x)``, so the gl and radial suites share
the properties their families have in common.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import rand
from .expr import Affine, Max, Norm, Precompose, Pwl1D, Quad, Scale, Sum, expr_eval
from .extreal import INF
from .fixtures import (gw_bases_1d, gw_bases_nd, probe_lines, radial_hat_parts,
                       random_hat_parts_1d)
from .gl import (GlEndo, ScaleComposeMap, gl_empirical_monotone_search,
                 gl_is_dually_translation_invariant, gl_is_monotone)
from .kernel1d import (Kernel1D, MaEndo, PhiEndo, hat_weight, kernel_decompose,
                       kernel_extract_live, kernel_is_monotone, monge_ampere)
from .measures import LineMeasure, OrbitMeasure, line_measure_add, orbit_total_mass
from .probes import epi_converges_probe, gw_probe, is_convex_block
from .pwl import (PwlFunction, inf_convolve, legendre, moreau_envelope,
                  pwl_add, pwl_indicator)
from .radial import (RadialEndo, acts_as_scalar_on_radial, canonical_rotation,
                     minkowski_restrict, radial_eval,
                     radial_is_dually_translation_invariant)
from .serialize import endo_to_json, fn_to_json


@dataclass
class PropertyResult:
    name: str
    passed: bool
    trials: int
    max_error: float
    counterexample: dict | None = None

    def line(self):
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag} {self.name}: trials={self.trials} max_error={self.max_error:.3e}"


@dataclass
class SuiteReport:
    suite: str
    seed: int
    results: list = field(default_factory=list)

    @property
    def passed(self):
        return all(r.passed for r in self.results)

    def add(self, *args, **kwargs):
        self.results.append(PropertyResult(*args, **kwargs))

    def worst(self, name, tol, trials, errors):
        """Add a property that holds when its largest error is at most tol.

        ``errors`` yields (error, example) pairs. ``example()`` returns the
        counterexample of its draw; it is called only when the error is the
        largest so far, before the next draw. A nan error is the largest, and
        the first one stays.
        """
        worst, bad = 0.0, None
        for err, example in errors:
            if worst == worst and not err <= worst:
                worst, bad = err, example()
        self.add(name, worst <= tol, trials, worst, None if worst <= tol else bad)

    def lines(self):
        return [r.line() for r in self.results]

    def counterexamples(self):
        return [{"property": r.name, "suite": self.suite, "seed": self.seed,
                 **(r.counterexample or {})} for r in self.results if not r.passed]


def _one_dim_endos():
    phi = PwlFunction([0.0], [1.0], -1.0, 1.0)
    span = np.linspace(-3, 3, 49)
    g = PwlFunction(span, span ** 2, -6.0, 6.0)
    return [
        ("gl1d_identity_minus_origin", GlEndo(0.0, LineMeasure([(1.0, 1.0)]), 1)),
        ("gl1d_mixed", GlEndo(0.5, LineMeasure([(1.0, 1.0), (-0.5, 0.25)]), 1)),
        ("phi_example", PhiEndo(phi)),
        ("ma_example", MaEndo(g, hat_weight(1.0), 1.0)),
    ]


# -- core ----------------------------------------------------------------------

def run_core_suite(seed=0, trials=1000):
    rng = rand.rng_from_seed(seed)
    rep = SuiteReport("core", seed)

    # pointwise-add exactness on random sample points
    def add_errors():
        for _ in range(trials):
            f = rand.random_convex_pwl(rng)
            g = rand.random_convex_pwl(rng)
            lo = max(f.domain[0], g.domain[0])
            hi = min(f.domain[1], g.domain[1])
            if not lo < hi:
                continue
            s = pwl_add(f, g)
            a, b = max(lo, -6.0), min(hi, 6.0)
            if not a < b:
                continue
            for x in rng.uniform(a, b, size=10):
                lhs, rhsum = s(x), f(x) + g(x)
                if lhs == INF and rhsum == INF:
                    continue
                yield abs(lhs - rhsum), lambda: {"f": fn_to_json(f), "g": fn_to_json(g), "x": x}
    rep.worst("pwl_add_exact", 1e-12, trials, add_errors())

    # conjugating twice reproduces the data
    def involution_errors():
        for _ in range(trials):
            f = rand.random_convex_pwl(rng)
            g = legendre(legendre(f))
            yield (_distance((f.breakpoints, g.breakpoints), (f.values, g.values),
                             (f.slope_sequence(), g.slope_sequence())),
                   lambda: {"f": fn_to_json(f)})
    rep.worst("legendre_involution", 1e-12, trials, involution_errors())

    n_ord = max(1, trials // 5)

    # f <= g implies conjugate(f) >= conjugate(g)
    def order_errors():
        for _ in range(n_ord):
            f = rand.random_convex_pwl(rng)
            if not f.domain[0] < f.domain[1]:
                continue
            g = pwl_add(f, rand.random_nonneg_pwl(rng))
            fs, gs = legendre(f), legendre(g)
            for y in rng.uniform(-4.0, 4.0, size=10):
                a, b = fs(y), gs(y)
                if a < INF:
                    yield max(0.0, b - a), lambda: {"f": fn_to_json(f), "g": fn_to_json(g),
                                                    "y": y}
    rep.worst("legendre_order_reversal", 1e-9, n_ord, order_errors())

    n_pairs = min(100, max(1, trials // 10))

    # inf-convolution against a brute-force grid minimum
    def convolve_excess():
        done = 0
        while done < n_pairs:
            f = rand.random_finite_pwl(rng, max_breaks=5)
            g = rand.random_finite_pwl(rng, max_breaks=5)
            fs, gs = legendre(f), legendre(g)
            if not (max(fs.domain[0], gs.domain[0]) < min(fs.domain[1], gs.domain[1])):
                continue
            done += 1
            h = inf_convolve(f, g)
            lip = max(abs(m) for m in f.slope_sequence() + g.slope_sequence())
            ygrid = np.linspace(-12.0, 12.0, 2401)
            step = ygrid[1] - ygrid[0]
            for x in rng.uniform(-2.0, 2.0, size=3):
                brute = float(np.min(f.eval_many(ygrid) + g.eval_many(x - ygrid)))
                yield (abs(h(x) - brute) - (step * lip + 1e-9),
                       lambda: {"f": fn_to_json(f), "g": fn_to_json(g), "x": x,
                                "exact": h(x), "brute": brute})
    rep.worst("inf_convolve_bruteforce", 0.0, n_pairs, convolve_excess())

    n_env = max(1, trials // 20)

    # Moreau envelopes: below f and tightening as t shrinks
    def envelope_errors():
        for _ in range(n_env):
            f = rand.random_convex_pwl(rng)
            e1 = moreau_envelope(f, 1.0)
            e2 = moreau_envelope(f, 0.25)
            for x in rng.uniform(-3.0, 3.0, size=8):
                err = max(0.0, e1(x) - e2(x))
                fv = f(x)
                if fv < INF:
                    err = max(err, e2(x) - fv)
                yield err, lambda: {"f": fn_to_json(f), "x": x}
    rep.worst("moreau_monotone_below", 1e-10, n_env, envelope_errors())

    f = PwlFunction([0.0], [0.0], -1.0, 1.0)
    probe = epi_converges_probe(lambda j: moreau_envelope(f, 1.0 / j), f,
                                [(-1.0, 1.0)], tol=1e-1, j_max=8)
    err = probe.sup_dists[0][-1]
    expected = 1.0 / (2.0 * 8)
    rep.add("moreau_epi_convergence", probe.passed and abs(err - expected) <= 1e-9,
            8, abs(err - expected))

    endos = _one_dim_endos()

    # probe well-definedness for the 1D operator families
    def probe_failures():
        for name, em in endos:
            for _ in range(5):
                phi_p, phi_m = random_hat_parts_1d(rng)
                f1, f2 = gw_bases_1d(rng, phi_m)
                x = float(rng.uniform(-1.0, 1.0))
                _, ok = gw_probe(em, x, phi_p, phi_m, (f1, f2), tol=1e-9)
                yield 0.0 if ok else 1.0, lambda: {"endo": name, "x": x}
    rep.worst("gw_probe_consistency", 0.0, 5 * len(endos), probe_failures())

    return rep


def _distance(*pairs):
    """Largest entrywise gap over pairs of sequences; inf when a pair differs
    in length. Equal entries, infinities included, are 0 apart."""
    err = 0.0
    for a, b in pairs:
        if len(a) != len(b):
            return INF
        err = max([err] + [abs(u - v) for u, v in zip(a, b) if u != v])
    return err


# -- gl --------------------------------------------------------------------------

def _gl_fixtures():
    return [
        GlEndo(0.0, LineMeasure([(1.0, 1.0)]), 2),
        GlEndo(0.0, LineMeasure([(1.0, 1.0), (-1.0, 1.0)]), 2),
        GlEndo(1.0, LineMeasure([(2.0, 1.0)]), 3),
        GlEndo(4.0, LineMeasure([(0.5, 1.0)]), 2),
        GlEndo(2.0, LineMeasure([]), 2),
    ]


def run_gl_suite(seed=0, trials=100):
    rng = rand.rng_from_seed(seed)
    rep = SuiteReport("gl", seed)
    fixtures = _gl_fixtures()

    rep.worst("gl_additivity", 1e-9, trials, _additivity_errors(fixtures, rng, trials))

    def homogeneity_errors():
        for _ in range(trials):
            e = fixtures[int(rng.integers(0, len(fixtures)))]
            f = rand.random_finite_expr(rng, e.n)
            lam = float(rng.uniform(0.0, 3.0))
            x = rng.uniform(-2.0, 2.0, size=e.n)
            yield (abs(e(Scale(lam, f), x) - lam * e(f, x)),
                   lambda: {"f": fn_to_json(f), "lambda": lam, "x": x.tolist()})
    rep.worst("gl_homogeneity", 1e-9, trials, homogeneity_errors())

    def random_gl():
        n = 2 if rng.random() < 0.5 else 3
        return GlEndo(float(rng.uniform(0.0, 2.0)), rand.random_line_measure(rng), n)
    rep.worst("gl_equivariance", 1e-9, trials, _equivariance_errors(
        rng, trials, random_gl, rand.random_finite_expr, rand.random_invertible))

    _output_convexity(rep, "gl_output_convexity", fixtures, rand.random_finite_expr, rng,
                      max(1, trials // 2))

    def alternately_balanced():
        for i in range(max(2, trials // 2)):
            nu = rand.random_line_measure(rng, balanced=(i % 2 == 0))
            yield GlEndo(float(rng.uniform(0.0, 2.0)), nu, 2)
    rep.worst("gl_dual_invariance_iff_kills_linear", 0.0, max(2, trials // 2), _linear_response(
        alternately_balanced(), 1, gl_is_dually_translation_invariant, rng))

    # probe value against direct atom summation
    def recovery_errors():
        for _ in range(max(1, trials // 4)):
            e = GlEndo(float(rng.uniform(0.0, 3.0)), rand.random_line_measure(rng), 2)
            x = rng.uniform(-1.5, 1.5, size=2)
            if np.linalg.norm(x) < 0.3:
                x = x + 0.5
            phi_p, phi_m, hat = radial_hat_parts(rng, 2)
            f1, f2 = gw_bases_nd(rng, phi_m, 2)
            val, ok = gw_probe(e, x, phi_p, phi_m, (f1, f2), tol=1e-9,
                               lines=probe_lines(rng, 2))
            zero = np.zeros(2)
            expected = e.c * hat(zero) + sum(
                w * (hat(s * x) - hat(zero)) / (s * s) for s, w in e.nu.atoms)
            yield (abs(val - expected) + (0.0 if ok else 1.0),
                   lambda: {"x": x.tolist(), "value": val, "expected": expected})
    rep.worst("gl_gw_recovery", 1e-8, max(1, trials // 4), recovery_errors())

    # monotonicity predicate versus empirical search, away from the threshold
    cases = [GlEndo(3.9, LineMeasure([(0.5, 1.0)]), 2),
             GlEndo(4.0, LineMeasure([(0.5, 1.0)]), 2),
             GlEndo(1.0, LineMeasure([(1.0, 1.0)]), 2)]
    for _ in range(6):
        cases.append(GlEndo(float(rng.uniform(0.0, 4.0)),
                            rand.random_line_measure(rng), 2))
    cases = [e for e in cases if abs(e.c - sum(w / (s * s) for s, w in e.nu.atoms)) >= 1e-6]

    def monotone_mismatches():
        for e in cases:
            pred = gl_is_monotone(e)
            witness = gl_empirical_monotone_search(
                e, trials=50, seed=int(rng.integers(0, 2 ** 32)))
            yield (float(pred != (witness is None)),
                   lambda: {"endo": endo_to_json(e), "pred": pred,
                            "witness_found": witness is not None})
    rep.worst("gl_monotone_iff_no_witness", 0.0, len(cases), monotone_mismatches())

    # whole-space rigidity: the two-atom operator blows up off a small
    # domain, while scale-compose maps stay finite on the image domain
    e2 = GlEndo(0.0, LineMeasure([(1.0, 1.0), (-1.0, 1.0)]), 1)
    f = Sum([Affine([0.0], 0.0), Pwl1D(pwl_indicator(-0.1, 1.0), [1.0])])
    ok = all(e2(f, [x]) == 0.0 for x in np.linspace(-0.09, 0.09, 7))
    ok = ok and all(e2(f, [x]) == INF for x in (-0.11, 0.11, 0.5, -0.5, 2.0))
    sc = ScaleComposeMap(2.0, -1.0, 1)
    seg = Pwl1D(pwl_indicator(0.0, 1.0), [1.0])
    ok = ok and sc(seg, [-0.5]) == 0.0 and sc(seg, [0.5]) == INF
    rep.add("gl_rigidity_blowup", ok, 1, 0.0)

    return rep


# -- properties the gl and radial families share ---------------------------------

def _additivity_errors(fixtures, rng, count):
    for _ in range(count):
        e = fixtures[int(rng.integers(0, len(fixtures)))]
        f = rand.random_finite_expr(rng, e.n)
        g = rand.random_finite_expr(rng, e.n)
        x = rng.uniform(-2.0, 2.0, size=e.n)
        yield (abs(e(Sum([f, g]), x) - e(f, x) - e(g, x)),
               lambda: {"f": fn_to_json(f), "g": fn_to_json(g), "x": x.tolist()})


def _equivariance_errors(rng, count, op, draw, group):
    """e(f o M)(x) against e(f)(M x), for e = op(), f = draw(rng, n) and a
    group element M = group(rng, n)."""
    for _ in range(count):
        e = op()
        f = draw(rng, e.n)
        m = group(rng, e.n)
        x = rng.uniform(-2.0, 2.0, size=e.n)
        yield (abs(e(Precompose(m, f), x) - e(f, m @ x)),
               lambda: {"f": fn_to_json(f), "matrix": m.tolist(), "x": x.tolist()})


def _output_convexity(rep, name, fixtures, draw, rng, count):
    """Midpoint convexity of e(f) along random lines, for f = draw(rng, n)."""
    ts = np.linspace(-1.0, 1.0, 9)
    bad = None
    for _ in range(count):
        e = fixtures[int(rng.integers(0, len(fixtures)))]
        f = draw(rng, e.n)
        base = rng.uniform(-1.0, 1.0, size=e.n)
        d = rng.normal(size=e.n)
        if not is_convex_block(lambda T: e.eval_many(f, base + T[:, None] * d), ts, tol=1e-8):
            bad = {"f": fn_to_json(f), "base": base.tolist(), "dir": d.tolist()}
            break
    rep.add(name, bad is None, count, 0.0, bad)


def _linear_response(ops, axes, predicate, rng):
    """The dual-translation-invariance predicate of each operator against its
    vanishing on linear inputs <a, .> at x: a = x = e_i for the first ``axes``
    coordinate axes, then three random (a, x). Yields 1.0 per mismatch."""
    for e in ops:
        pred = predicate(e)
        probes = [(u, u) for u in np.eye(e.n)[:axes]]
        probes += [(rng.normal(size=e.n), rng.uniform(-2.0, 2.0, size=e.n))
                   for _ in range(3)]
        emp = max(abs(e(Affine(a, 0.0), x)) for a, x in probes)
        yield (float(pred != (emp <= 1e-9)),
               lambda: {"endo": endo_to_json(e), "pred": pred, "emp": emp})


# -- radial ----------------------------------------------------------------------

def _radial_fixtures():
    return [
        RadialEndo(OrbitMeasure(3, [(1.0, 0.0, 1.0)]), M=64),
        RadialEndo(OrbitMeasure(3, [(1.0, 0.0, 1.0), (1.0, math.pi, 1.0)]), M=64),
        RadialEndo(OrbitMeasure(3, [(1.0, math.pi / 3, 2.0),
                                    (0.5, math.pi / 2, 1.0)]), M=64),
        RadialEndo(OrbitMeasure(2, [(1.5, 2.0, 1.0), (0.7, -1.1, 0.5)]), M=1),
    ]


def run_radial_suite(seed=0, trials=100):
    rng = rand.rng_from_seed(seed)
    rep = SuiteReport("radial", seed)
    fixtures = _radial_fixtures()

    n_rot = max(1, trials // 4)

    # independence of the rotation choice (orbit invariance)
    def rotation_errors():
        for _ in range(n_rot):
            e = fixtures[int(rng.integers(0, 3))]
            f = rand.random_smooth_expr(rng, 3)
            x = rng.uniform(-2.0, 2.0, size=3)
            if np.linalg.norm(x) < 0.1:
                x[0] += 1.0
            base = canonical_rotation(x, 3)
            q = rand.random_rotation_fixing_axis(rng, 3)
            yield (abs(radial_eval(e, f, x) - radial_eval(e, f, x, rotation=base @ q)),
                   lambda: {"f": fn_to_json(f), "x": x.tolist()})
    rep.worst("radial_rotation_choice_free", 1e-9, n_rot, rotation_errors())

    n_so = max(1, trials // 2)

    def fixture():
        return fixtures[int(rng.integers(0, len(fixtures)))]

    # equivariance under rotations and under dilations t * I of the argument
    rep.worst("radial_so_equivariance", 1e-9, n_so, _equivariance_errors(
        rng, n_so, fixture,
        lambda rng, n: (rand.random_smooth_expr if n == 3 else rand.random_finite_expr)(rng, n),
        rand.random_rotation))
    rep.worst("radial_dilation_equivariance", 1e-9, n_so, _equivariance_errors(
        rng, n_so, fixture, rand.random_finite_expr,
        lambda rng, n: float(rng.uniform(0.2, 3.0)) * np.eye(n)))

    # monotonicity on ordered pairs
    def order_errors():
        for _ in range(trials):
            e = fixtures[int(rng.integers(0, len(fixtures)))]
            n = e.n
            f = rand.random_finite_expr(rng, n)
            g = Sum([f, rand.random_nonneg_expr(rng, n)])
            x = rng.uniform(-2.0, 2.0, size=n)
            yield (max(0.0, e(f, x) - e(g, x)),
                   lambda: {"f": fn_to_json(f), "g": fn_to_json(g), "x": x.tolist()})
    rep.worst("radial_monotone", 1e-9, trials, order_errors())

    rep.worst("radial_additivity", 1e-9, n_so, _additivity_errors(fixtures, rng, n_so))
    _output_convexity(rep, "radial_output_convexity", fixtures[:3], rand.random_smooth_expr,
                      rng, max(1, trials // 4))

    cases = [OrbitMeasure(3, [(1.0, 0.0, 1.0), (1.0, math.pi, 1.0)]),
             OrbitMeasure(3, [(2.0, 0.0, 1.0)]),
             OrbitMeasure(3, [(1.0, math.pi / 2, 1.0)]),
             OrbitMeasure(2, [(1.0, 0.5, 1.0), (1.0, 0.5 - math.pi, 1.0)]),
             OrbitMeasure(2, [(1.0, 0.5, 1.0)])]
    rep.worst("radial_dual_invariance_iff_kills_linear", 0.0, len(cases), _linear_response(
        (RadialEndo(mu, M=32) for mu in cases), 2, radial_is_dually_translation_invariant, rng))

    # unit-radius orbits act as the total mass on rotation-invariant inputs
    e_unit = RadialEndo(OrbitMeasure(3, [(1.0, math.pi / 3, 2.0)]), M=64)
    e_off = RadialEndo(OrbitMeasure(3, [(1.5, 0.0, 1.0)]), M=8)
    ok = acts_as_scalar_on_radial(e_unit) and not acts_as_scalar_on_radial(e_off)
    mass = orbit_total_mass(e_unit.mu)
    worst = 0.0
    for fr in (Norm(1.0), Quad(1.0)):
        for _ in range(10):
            x = rng.uniform(-2.0, 2.0, size=3)
            worst = max(worst, abs(e_unit(fr, x) - mass * expr_eval(fr, x)))
    x1 = np.array([1.0, 0.0, 0.0])
    off_gap = abs(e_off(Quad(1.0), x1)
                  - orbit_total_mass(e_off.mu) * expr_eval(Quad(1.0), x1))
    ok = ok and worst <= 1e-6 and off_gap >= 1.0
    rep.add("radial_scalar_on_invariant_iff_unit_orbits", ok, 22, worst)

    # restriction to support functions of polytopes
    v = np.array([0.6, -0.2, 0.75])
    seg = Max([Affine(v, 0.0), Affine(-v, 0.0)])
    e2 = fixtures[1]
    dirs = [rng.normal(size=3) for _ in range(8)]
    vals = minkowski_restrict(e2, seg, dirs)
    expect = np.array([2.0 * abs(v @ u) for u in dirs])
    err = float(np.max(np.abs(vals - expect)))
    rep.add("radial_minkowski_restriction", err <= 1e-9, 8, err)

    return rep


# -- kernel ----------------------------------------------------------------------

def run_kernel_suite(seed=0, trials=100):
    rng = rand.rng_from_seed(seed)
    rep = SuiteReport("kernel", seed)

    # second-derivative measure is additive atom by atom
    def ma_errors():
        for _ in range(trials * 10):
            f = rand.random_finite_pwl(rng)
            g = rand.random_finite_pwl(rng)
            lhs = monge_ampere(pwl_add(f, g))
            rhs = line_measure_add(monge_ampere(f), monge_ampere(g))
            yield (_distance((lhs.positions, rhs.positions), (lhs.weights, rhs.weights)),
                   lambda: {"f": fn_to_json(f), "g": fn_to_json(g)})
    rep.worst("ma_additivity", 1e-12, trials * 10, ma_errors())

    # weak convergence smoke: resampled envelopes against a tent weight
    f = PwlFunction([0.0], [0.0], -1.0, 1.0)
    zeta = hat_weight(1.0)
    target = 2.0 * zeta(0.0)
    errs = []
    js = (1, 2, 4, 8, 16)
    for j in js:
        env = moreau_envelope(f, 1.0 / j)
        xs = np.linspace(-3.0, 3.0, 601)
        fj = PwlFunction(xs, [env(x) for x in xs], -1.0, 1.0)
        total = sum(zeta(abs(y)) * w for y, w in monge_ampere(fj).atoms)
        errs.append(abs(total - target))
    ok = all(e <= 4.0 / j for e, j in zip(errs, js))
    rep.add("ma_weak_convergence", ok, len(js), max(errs))

    # each family's live kernel and its decomposition, built once
    box = (-1.2, 1.2, -8.0, 8.0)
    fams = [(name, em, kernel_extract_live(em, box)) for name, em in _one_dim_endos()]
    decomps = [(name, em, kernel_decompose(live, (-1.0, 1.0), 4.0))
               for name, em, live in fams]
    n_rt = max(1, trials // 10)

    # extraction, decomposition and re-evaluation reproduce each family
    def round_trip_errors():
        for name, em, d in decomps:
            for _ in range(n_rt):
                f = rand.random_finite_pwl(rng)
                x = float(rng.uniform(-1.0, 1.0))
                yield (abs(d(f, x) - em(f, x)),
                       lambda: {"endo": name, "f": fn_to_json(f), "x": x})
    rep.worst("kernel_round_trip", 1e-6, len(decomps) * n_rt, round_trip_errors())

    n_gauge = max(1, trials // 10)
    base = Kernel1D(lambda x, y: max(y - x, 0.0) - max(y, 0.0), (-1, 1, -5, 5))
    d1 = kernel_decompose(base, (-1, 1), 2.0)

    # affine-in-y gauge freedom leaves the operator untouched
    def gauge_errors():
        for _ in range(n_gauge):
            al, be, ga, de = rng.normal(size=4)
            shifted = Kernel1D(
                lambda x, y, al=al, be=be, ga=ga, de=de:
                    max(y - x, 0.0) - max(y, 0.0) + (al + be * x) + (ga + de * x) * y,
                (-1, 1, -5, 5))
            d2 = kernel_decompose(shifted, (-1, 1), 2.0)
            for _ in range(5):
                f = rand.random_finite_pwl(rng)
                x = float(rng.uniform(-1.0, 1.0))
                yield (abs(d1(f, x) - d2(f, x)),
                       lambda: {"gauge": [al, be, ga, de], "f": fn_to_json(f), "x": x})
    rep.worst("kernel_gauge_freedom", 1e-9, 5 * n_gauge, gauge_errors())

    # probe pairing equals the residual-weighted jump sum
    def pairing_errors():
        for name, _, d in decomps:
            for _ in range(5):
                phi_p, phi_m = random_hat_parts_1d(rng)
                f1, f2 = gw_bases_1d(rng, phi_m)
                x = float(rng.uniform(-1.0, 1.0))
                val, ok = gw_probe(d, x, phi_p, phi_m, (f1, f2), tol=1e-8)
                map_, mam = monge_ampere(phi_p), monge_ampere(phi_m)
                (c1, c2, c3, c4), res = d.residual(x, map_.positions + mam.positions)
                expected = ((c1 + c3) * (phi_p(0.0) - phi_m(0.0))
                            + (c2 + c4) * (phi_p(-1.0) - phi_m(-1.0))
                            + sum(r * w for r, w in zip(res, map_.weights))
                            - sum(r * w for r, w in zip(res[len(map_):], mam.weights)))
                yield abs(val - expected) + (0.0 if ok else 1.0), lambda: {"endo": name, "x": x}
    rep.worst("kernel_gw_pairing", 1e-8, len(decomps) * 5, pairing_errors())

    # monotone predicate matches an empirical ordered-pair search
    xs = np.linspace(-1.0, 1.0, 9)
    ys = np.linspace(-4.0, 4.0, 81)
    mono_id = GlEndo(1.0, LineMeasure([(1.0, 1.0)]), 1)
    fams.append(("gl1d_pure_identity", mono_id, kernel_extract_live(mono_id, box)))
    fdip = PwlFunction([0.0], [-1.0], -1.0, 1.0)            # |y| - 1
    gpos = PwlFunction([-1.0, 1.0], [0.0, 0.0], -1.0, 1.0)  # (|y| - 1)_+

    def monotone_mismatches():
        for name, em, live in fams:
            pred = kernel_is_monotone(live, xs, ys)
            witness = None
            for x in np.linspace(-1.0, 1.0, 5):
                vf, vg = em(fdip, x), em(gpos, x)
                if vf > vg + 1e-9:
                    witness = {"x": float(x), "vf": vf, "vg": vg}
                    break
            if witness is None:
                for _ in range(trials):
                    fr = rand.random_finite_pwl(rng)
                    gr = pwl_add(fr, rand.random_nonneg_pwl(rng))
                    x = float(rng.uniform(-1.0, 1.0))
                    vf, vg = em(fr, x), em(gr, x)
                    if vf > vg + 1e-9 * max(1.0, abs(vf)):
                        witness = {"x": x, "vf": vf, "vg": vg}
                        break
            yield (float(pred != (witness is None)),
                   lambda: {"endo": name, "pred": pred, "witness": witness})
    rep.worst("kernel_monotone_iff_no_witness", 0.0, len(fams), monotone_mismatches())

    return rep


SUITES = {"core": run_core_suite, "gl": run_gl_suite,
          "radial": run_radial_suite, "kernel": run_kernel_suite}


def run_suite(name, seed=0, trials=None):
    return SUITES[name](seed, **({} if trials is None else {"trials": trials}))
