"""exact_1d: the exact one-dimensional calculus and the kernel commands.

Two parts of about equal weight in the timed phase:

* transforms on random convex piecewise-linear functions whose breakpoint
  counts are log-spaced up to 2048: ``legendre`` (twice, for the
  involution), ``inf_convolve``, ``pwl_add``, ``pwl_max``, ``monge_ampere``;
* kernel calls: ``kernel_endo_eval`` on many-kink inputs through live
  decompositions of a ``gl`` (n = 1), a ``phi_example`` and an
  ``ma_example`` operator, and ``convendo kernel roundtrip`` / ``kernel
  extract`` in-process on those three descriptors and on a tabulated
  ``kernel`` descriptor.

Sizes, kink counts and truncation patterns are fixed; the seed draws the
numbers.
"""

import json

import numpy as np

import refs
from common import Op, cli, convex_pwl, grid_axis, to_program, write_json

SIZES = {"full": {"legendre": [32, 64, 128, 256, 512, 1024, 2048],
                  "inf_convolve": [32, 64, 128, 256, 512],
                  "kinks": [8, 16, 32, 64, 128], "xs": 8, "trials": 100, "grid_trials": 20,
                  "extract": ((-1.0, 1.0, 0.1), (-4.0, 4.0, 0.05)),
                  "grid_extract": ((-1.0, 1.0, 0.25), (-3.5, 3.5, 0.1))},
         "tiny": {"legendre": [4, 8, 16], "inf_convolve": [4, 8],
                  "kinks": [4], "xs": 2, "trials": 3, "grid_trials": 2,
                  "extract": ((-1.0, 1.0, 0.5), (-4.0, 4.0, 0.5)),
                  "grid_extract": ((-1.0, 1.0, 0.5), (-3.5, 3.5, 0.5))}}

# (truncated on the left, truncated on the right), cycled over the sizes
TAILS = [(False, False), (True, False), (False, True)]

A, R, BOX = (-1.0, 1.0), 4.0, (-1.2, 1.2, -8.0, 8.0)
GRID_R = 2.0      # decomposition radius of the tabulated kernel
SAMPLES = 256     # interior points checked per transform output

# Round-trip tolerances of the kernel decomposition, as documented
ROUNDTRIP_TOL = {"gl": 1e-8, "phi_example": 1e-5, "ma_example": 1e-5, "kernel": 1e-8}


def _pwl_pair_check(what, h, ref, rng):
    xs = refs.sample_points(h, rng, SAMPLES)
    refs.compare(what, xs, [h(x) for x in xs], ref(xs), refs.TOL_EXACT)


def _transform_ops(C, rng, sz):
    ops = []
    for i, k in enumerate(sz["legendre"]):
        f = convex_pwl(rng, k, trunc_left=TAILS[i % 3][0], trunc_right=TAILS[i % 3][1])
        fp = to_program(C, f)
        crng = np.random.default_rng(rng.integers(2 ** 63))

        def legendre_twice(fp=fp):
            g = C.pwl.legendre(fp)
            return g, C.pwl.legendre(g)

        def check_legendre(out, f=f, fp=fp, k=k, crng=crng):
            g, gg = out
            _pwl_pair_check(f"legendre k={k}", g, lambda ys: refs.conjugate(f, ys), crng)
            _same_data(f"legendre involution k={k}", gg, fp)

        ops.append(Op(f"legendre k={k}", 2, legendre_twice, check_legendre))

        g = convex_pwl(rng, k)
        gp = to_program(C, g)
        ops.append(Op(f"pwl_add k={k}", 1, lambda fp=fp, gp=gp: C.pwl.pwl_add(fp, gp),
                      lambda h, f=f, g=g, k=k, crng=crng:
                          _pwl_pair_check(f"pwl_add k={k}", h, lambda xs: f(xs) + g(xs), crng)))

        # pwl_max drops about half of the crossings on a common unbounded
        # tail (see CHANGES.md), so its second input has a bounded domain
        b = convex_pwl(rng, k, trunc_left=True, trunc_right=True)
        bp_ = to_program(C, b)
        ops.append(Op(f"pwl_max k={k}", 1, lambda fp=fp, bp_=bp_: C.pwl.pwl_max(fp, bp_),
                      lambda h, f=f, b=b, k=k, crng=crng:
                          _pwl_pair_check(f"pwl_max k={k}", h,
                                          lambda xs: np.maximum(f(xs), b(xs)), crng)))

        ops.append(Op(f"monge_ampere k={k}", 1,
                      lambda gp=gp: C.kernel1d.monge_ampere(gp),
                      lambda m, g=g, k=k: _check_measure(f"monge_ampere k={k}", m, g)))

    for i, k in enumerate(sz["inf_convolve"]):
        f = convex_pwl(rng, k)
        g = convex_pwl(rng, k, trunc_left=TAILS[i % 3][0], trunc_right=TAILS[i % 3][1])
        fp, gp = to_program(C, f), to_program(C, g)
        crng = np.random.default_rng(rng.integers(2 ** 63))
        ops.append(Op(f"inf_convolve k={k}", 1,
                      lambda fp=fp, gp=gp: C.pwl.inf_convolve(fp, gp),
                      lambda h, f=f, g=g, k=k, crng=crng:
                          _pwl_pair_check(f"inf_convolve k={k}", h,
                                          lambda xs: refs.inf_convolution(f, g, xs), crng)))
    return ops


def _same_data(what, got, want):
    if got.slope_left != want.slope_left or got.slope_right != want.slope_right \
            or len(got.breakpoints) != len(want.breakpoints):
        raise refs.Mismatch(what, "tails and size",
                            (got.slope_left, got.slope_right, len(got.breakpoints)),
                            (want.slope_left, want.slope_right, len(want.breakpoints)))
    bp = np.asarray(want.breakpoints)
    refs.compare(what + " breakpoints", bp, got.breakpoints, bp, refs.TOL_EXACT)
    refs.compare(what + " values", bp, got.values, want.values, refs.TOL_EXACT)


def _check_measure(what, m, f):
    if len(m.positions) != f.bp.size:
        raise refs.Mismatch(what, "atom count", len(m.positions), f.bp.size)
    refs.compare(what + " positions", f.bp, m.positions, f.bp, refs.TOL_EXACT)
    refs.compare(what + " weights", f.bp, m.weights, np.diff(f.slopes), refs.TOL_EXACT)


# -- kernel part -------------------------------------------------------------------

def _descriptors(rng):
    """gl (n = 1), phi_example, ma_example and a tabulated kernel, each with
    the closed form of its operator and of its kernel."""
    c = float(rng.uniform(0.0, 1.0))
    atoms = [(float(sg * rng.uniform(0.3, 1.2)), float(rng.uniform(0.2, 1.5)))
             for sg in (1.0, -1.0)]
    gl = {"kind": "gl", "c": c, "n": 1,
          "nu": {"atoms": [{"s": s, "w": w} for s, w in atoms]}}

    al, be, ga, tau = (float(rng.uniform(lo, hi)) for lo, hi in
                       ((0.5, 1.0), (0.2, 0.6), (0.1, 0.5), (0.3, 0.8)))
    phi = refs.Pwl([-tau, 0.0, tau], [al + be * tau, al, al + be * tau],
                   [-(be + ga), -be, be, be + ga])
    phi_d = {"kind": "phi_example", "phi": phi.descriptor()}

    g = convex_pwl(rng, 6, span=1.5, slope_span=3.0)
    radius = float(rng.uniform(0.8, 1.5))
    ma = {"kind": "ma_example", "g": g.descriptor(), "zeta": {"kind": "hat", "radius": radius}}

    c2 = float(rng.uniform(0.0, 1.0))
    atoms2 = [(float(sg * rng.uniform(0.3, 1.0)), float(rng.uniform(0.2, 1.5)))
              for sg in (1.0, -1.0)]
    xs, ys = grid_axis(-1.0, 1.0, 0.25), grid_axis(-3.5, 3.5, 0.1)
    table = refs.gl1d_kernel(c2, atoms2, xs[:, None], ys[None, :])
    kern = {"kind": "kernel", "A": list(A), "R": GRID_R,
            "psi": {"kind": "grid", "xs": xs.tolist(), "ys": ys.tolist(),
                    "values": table.tolist()}}

    return [
        ("gl", gl, lambda f, x: refs.gl1d_value(c, atoms, f, x),
         lambda X, Y: refs.gl1d_kernel(c, atoms, X, Y), False, refs.TOL_OPERATOR),
        ("phi_example", phi_d, lambda f, x: refs.phi_value(phi, f, x),
         lambda X, Y: refs.phi_kernel(phi, X, Y), True, refs.TOL_QUADRATURE),
        ("ma_example", ma, lambda f, x: refs.ma_value(g, radius, f, x),
         lambda X, Y: refs.ma_kernel(g, radius, X, Y), False, refs.TOL_OPERATOR),
        ("kernel", kern, None,
         lambda X, Y: refs.gl1d_kernel(c2, atoms2, X, Y), True, refs.TOL_OPERATOR),
    ]


def _endomap(C, op):
    if isinstance(op, C.gl.GlEndo):
        return op.as_endomap_1d()
    return op.as_endomap()


def _kernel_ops(C, rng, out_dir, sz):
    ops = []
    inputs = [convex_pwl(rng, k) for k in sz["kinks"] for _ in range(2)]
    for name, desc, value, kernel, mod_affine, k_tol in _descriptors(rng):
        path = write_json(out_dir / f"{name}.endo.json", desc)
        operator = C.serialize.endo_from_json(desc)
        if value is not None:
            live = C.kernel1d.kernel_extract_live(_endomap(C, operator), BOX)
            d = C.kernel1d.kernel_decompose(live, A, R)
            for f in inputs:
                fp = to_program(C, f)
                xs = rng.uniform(A[0], A[1], sz["xs"])
                ops.append(Op(f"kernel_endo_eval {name} kinks={f.bp.size}", xs.size,
                              lambda d=d, fp=fp, xs=xs:
                                  [C.kernel1d.kernel_endo_eval(d, fp, float(x)) for x in xs],
                              lambda got, xs=xs, f=f, name=name, value=value:
                                  refs.compare(f"kernel_endo_eval {name} kinks={f.bp.size}",
                                               xs, got, [value(f, x) for x in xs],
                                               refs.TOL_OPERATOR)))

        tol = ROUNDTRIP_TOL[name]
        trials = sz["grid_trials" if name == "kernel" else "trials"]
        rt_out = str(out_dir / f"{name}.roundtrip.json")
        argv = ["kernel", "roundtrip", "--endo", path, "--R", repr(R),
                "--trials", str(trials), "--seed", str(int(rng.integers(2 ** 31))),
                "--tol", repr(tol), "--out", rt_out]
        ops.append(Op(f"kernel roundtrip {name}", 1,
                      lambda argv=argv: cli(C, argv)[0],
                      lambda rc, name=name, rt_out=rt_out, tol=tol, trials=trials:
                          _check_roundtrip(name, rc, rt_out, tol, trials)))

        gx, gy = sz["grid_extract" if name == "kernel" else "extract"]
        k_out = str(out_dir / f"{name}.kernel.csv")
        argv = ["kernel", "extract", "--endo", path, "--grid-x=%r:%r:%r" % gx,
                "--grid-y=%r:%r:%r" % gy, "--out", k_out]
        ops.append(Op(f"kernel extract {name}", 1,
                      lambda argv=argv: cli(C, argv)[0],
                      lambda rc, name=name, k_out=k_out, gx=gx, gy=gy, kernel=kernel,
                      mod_affine=mod_affine, k_tol=k_tol:
                          _check_extract(name, rc, k_out, gx, gy, kernel, mod_affine, k_tol)))
    return ops


def _check_roundtrip(name, rc, path, tol, trials):
    with open(path) as fh:
        rep = json.load(fh)
    if rc != 0 or rep["trials"] != trials or not rep["max_deviation"] <= tol:
        raise refs.Mismatch(f"kernel roundtrip {name}", f"{trials} trials",
                            rep["max_deviation"], f"<= {tol} with exit 0 (exit {rc})")


def _check_extract(name, rc, path, gx, gy, kernel, mod_affine, tol):
    """Tabulated values against the closed-form kernel; kernels known only
    up to terms affine in y are compared in second differences along y."""
    if rc != 0:
        raise refs.Mismatch(f"kernel extract {name}", "exit code", rc, 0)
    with open(path) as fh:
        ys = np.array([float(v) for v in fh.readline().strip().split(",")[1:]])
        rows = np.array([[float(v) for v in line.split(",")] for line in fh])
    xs, vals = rows[:, 0], rows[:, 1:]
    for what, got, want in (("x grid", xs, grid_axis(*gx)), ("y grid", ys, grid_axis(*gy))):
        if got.shape != want.shape or np.max(np.abs(got - want)) > refs.TOL_EXACT:
            raise refs.Mismatch(f"kernel extract {name} {what}", "axis", got.tolist(),
                                want.tolist())
    want = kernel(xs[:, None], ys[None, :])
    X = np.broadcast_to(xs[:, None], vals.shape)
    Y = np.broadcast_to(ys[None, :], vals.shape)
    pts = np.stack([X, Y], axis=-1)
    if mod_affine:
        refs.compare(f"kernel extract {name} (second differences in y)",
                     pts[:, 1:-1].reshape(-1, 2), refs.second_diff_y(vals).ravel(),
                     refs.second_diff_y(want).ravel(), tol)
    else:
        refs.compare(f"kernel extract {name}", pts.reshape(-1, 2), vals.ravel(),
                     want.ravel(), tol)


def setup(C, rng, out_dir, size):
    sz = SIZES[size]
    return _transform_ops(C, rng, sz) + _kernel_ops(C, rng, out_dir, sz)
