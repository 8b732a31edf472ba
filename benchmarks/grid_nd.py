"""grid_nd: ``convendo eval`` over 2D and 3D grids, checked point by point.

Two groups of about equal weight in the timed phase:

* radial: n = 3 with M = 64 on a smooth input (closed form) and on a
  max/profile tree with pole orbits (sum of w f(+-t x)), and n = 2 on a tree
  with a ball indicator (orbit point turned by the angle of x);
* linear family and scale-compose: ``gl`` in n = 2 on a tree whose ball
  indicator splits the grid into interior and exterior points, plus a points
  file lying exactly on the domain boundary, and ``scale_compose`` on a
  precomposed tree.

Tree shapes, atom counts and grid sizes are fixed; the seed draws the
numbers, so every seed does the same amount of work.
"""

import math

import numpy as np

import refs
from common import Op, cli_ok, convex_pwl, grid_axis, write_json

# grid spans, per group: (lo, hi, step); the tiny size is for the self-test
GRIDS = {
    "full": {"radial3_smooth": (-1.5, 1.5, 0.5), "radial3_pole": (-1.5, 1.5, 0.5),
             "radial2_tree": (-2.0, 2.0, 0.1), "gl2_tree": (-2.0, 2.0, 0.025),
             "scale_compose2": (-2.0, 2.0, 0.04), "gl2_boundary": 64},
    "tiny": {"radial3_smooth": (-1.0, 1.0, 1.0), "radial3_pole": (-1.0, 1.0, 1.0),
             "radial2_tree": (-2.0, 2.0, 1.0), "gl2_tree": (-2.0, 2.0, 0.5),
             "scale_compose2": (-2.0, 2.0, 0.5), "gl2_boundary": 4},
}

# grid points keep this relative distance from every ball-indicator sphere
MARGIN = 1e-6


def _unit(rng, n):
    d = rng.normal(size=n)
    return (d / np.linalg.norm(d)).tolist()


def _profile(rng):
    return convex_pwl(rng, 6, span=1.5, slope_span=3.0).descriptor()


def _affine(rng, n):
    return {"kind": "affine", "a": rng.normal(size=n).tolist(), "b": float(rng.uniform(-1, 1))}


def _quad(rng):
    return {"kind": "quad", "c": float(rng.uniform(0.2, 1.0))}


def _tree(rng, n, ball=None):
    """max(profile(<d, x>), affine) + quad [+ ball indicator]."""
    terms = [{"kind": "max", "terms": [
                {"kind": "pwl1d", "direction": _unit(rng, n), "pwl": _profile(rng)},
                _affine(rng, n)]},
             _quad(rng)]
    if ball is not None:
        terms.append({"kind": "ball_indicator", "r": ball})
    return {"kind": "sum", "terms": terms}


def _grid_points(spec, n):
    axis = grid_axis(*spec)
    mesh = np.meshgrid(*([axis] * n), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def _ball_radius(rng, norms, scales, ratio):
    """A radius near ratio * max(scales) that no |x| * scale comes close to."""
    while True:
        r = ratio * max(scales) * rng.uniform(0.95, 1.05)
        if all(np.min(np.abs(norms * s - r)) > MARGIN * r for s in scales):
            return r


def _inputs(rng, size):
    """Descriptors and evaluation points for every group of the round."""
    g = GRIDS[size]
    cases = []

    # radial, n = 3, smooth input: closed form
    c, d = float(rng.uniform(0.2, 1.0)), float(rng.uniform(0.0, 1.0))
    a, b = rng.normal(size=3), float(rng.uniform(-1, 1))
    fn = {"kind": "sum", "terms": [{"kind": "quad", "c": c}, {"kind": "norm", "c": d},
                                   {"kind": "affine", "a": a.tolist(), "b": b}]}
    endo = {"kind": "radial", "M": 64, "mu": {"n": 3, "atoms": [
        {"t": float(rng.uniform(0.3, 1.5)), "theta": float(rng.uniform(0.0, math.pi)),
         "w": float(rng.uniform(0.2, 1.5))} for _ in range(3)]}}
    cases.append(("radial3_smooth", endo, fn, g["radial3_smooth"], 3,
                  lambda X, e=endo, k=(c, d, a, b): refs.radial_smooth_value(e, k, X),
                  refs.TOL_QUADRATURE))

    # radial, n = 3, tree input on pole orbits
    fn = _tree(rng, 3)
    endo = {"kind": "radial", "M": 64, "mu": {"n": 3, "atoms": [
        {"t": float(rng.uniform(0.3, 1.5)), "theta": th, "w": float(rng.uniform(0.2, 1.5))}
        for th in (0.0, math.pi)]}}
    cases.append(("radial3_pole", endo, fn, g["radial3_pole"], 3,
                  lambda X, e=endo, f=fn: refs.radial_pole_value(e, f, X),
                  refs.TOL_QUADRATURE))

    # radial, n = 2, tree with a ball indicator
    atoms = [{"t": float(rng.uniform(0.3, 1.2)), "theta": float(rng.uniform(-math.pi, math.pi)),
              "w": float(rng.uniform(0.2, 1.5))} for _ in range(3)]
    norms = np.linalg.norm(_grid_points(g["radial2_tree"], 2), axis=1)
    r = _ball_radius(rng, norms, [at["t"] for at in atoms], 1.6)
    fn = _tree(rng, 2, ball=r)
    endo = {"kind": "radial", "M": 64, "mu": {"n": 2, "atoms": atoms}}
    cases.append(("radial2_tree", endo, fn, g["radial2_tree"], 2,
                  lambda X, e=endo, f=fn: refs.radial_plane_value(e, f, X),
                  refs.TOL_QUADRATURE))

    # linear family, n = 2: interior and exterior grid points, boundary points
    nu = [{"s": float(sign * rng.uniform(0.3, 1.5)), "w": float(rng.uniform(0.2, 1.5))}
          for sign in (1.0, -1.0, 1.0 if rng.random() < 0.5 else -1.0)]
    smax = max(abs(at["s"]) for at in nu)
    norms = np.linalg.norm(_grid_points(g["gl2_tree"], 2), axis=1)
    r = _ball_radius(rng, norms, [abs(at["s"]) for at in nu], 1.6)
    fn = _tree(rng, 2, ball=r)
    endo = {"kind": "gl", "c": float(rng.uniform(0.0, 2.0)), "nu": {"atoms": nu}, "n": 2}
    ref = (lambda X, e=endo, f=fn: refs.gl_value(e, f, X))
    cases.append(("gl2_tree", endo, fn, g["gl2_tree"], 2, ref, refs.TOL_OPERATOR))
    ang = rng.uniform(-math.pi, math.pi, g["gl2_boundary"])
    edge = (r / smax) * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    cases.append(("gl2_boundary", endo, fn, edge, 2, ref, refs.TOL_OPERATOR))

    # scale-compose, n = 2, precomposed tree with a ball indicator
    th = rng.uniform(-math.pi, math.pi)
    rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    mat = rot @ np.diag(rng.uniform(0.6, 1.4, 2))
    mu = float((1.0 if rng.random() < 0.5 else -1.0) * rng.uniform(0.5, 1.5))
    norms = np.linalg.norm(_grid_points(g["scale_compose2"], 2), axis=1)
    r = _ball_radius(rng, norms, [abs(mu)], 1.6)
    inner = {"kind": "max", "terms": [
        {"kind": "pwl1d", "direction": _unit(rng, 2), "pwl": _profile(rng)}, _quad(rng)]}
    fn = {"kind": "sum", "terms": [{"kind": "precompose", "matrix": mat.tolist(), "term": inner},
                                   {"kind": "ball_indicator", "r": r}]}
    endo = {"kind": "scale_compose", "lambda": float(rng.uniform(0.5, 2.0)), "mu": mu, "n": 2}
    cases.append(("scale_compose2", endo, fn, g["scale_compose2"], 2,
                  lambda X, e=endo, f=fn: refs.scale_compose_value(e, f, X),
                  refs.TOL_OPERATOR))
    return cases


def setup(C, rng, out_dir, size):
    ops = []
    for label, endo, fn, pts, n, ref, tol in _inputs(rng, size):
        C.serialize.endo_from_json(endo)
        C.serialize.fn_from_json(fn)
        e_path = write_json(out_dir / f"{label}.endo.json", endo)
        f_path = write_json(out_dir / f"{label}.fn.json", fn)
        out = str(out_dir / f"{label}.csv")
        argv = ["eval", "--endo", e_path, "--fn", f_path, "--out", out]
        if isinstance(pts, tuple):
            argv.append("--grid=%r:%r:%r" % pts)
            expected = _grid_points(pts, n)
        else:
            argv += ["--points", write_json(out_dir / f"{label}.points.json", pts.tolist())]
            expected = pts
        ops.append(Op(label, len(expected),
                      lambda argv=argv: cli_ok(C, argv),
                      lambda _, out=out, label=label, exp=expected, ref=ref, tol=tol, n=n:
                          _check(label, out, exp, ref, tol, n)))
    return ops


def _read_csv(path):
    """Rows of floats (``inf`` parses as +inf) below a header line."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = np.array([[float(v) for v in line.split(",")] for line in fh])
    return header, rows


def _check(label, path, expected, ref, tol, n):
    header, rows = _read_csv(path)
    want_header = [f"x{i + 1}" for i in range(n)] + ["value"]
    if header != want_header:
        raise refs.Mismatch(f"grid_nd {label}", "header", header, want_header)
    if rows.shape != (len(expected), n + 1):
        raise refs.Mismatch(f"grid_nd {label}", "row count", rows.shape, (len(expected), n + 1))
    X = rows[:, :n]
    scale = np.maximum(1.0, np.abs(expected).max(axis=1))
    off = np.max(np.abs(X - expected), axis=1) > refs.TOL_EXACT * scale
    if off.any():
        i = int(np.argmax(off))
        raise refs.Mismatch(f"grid_nd {label} points", f"row {i}", X[i].tolist(),
                            expected[i].tolist())
    refs.compare(f"grid_nd {label}", X, rows[:, n], ref(X), tol)
