"""Reference computations, written in plain numpy apart from convendo.

Nothing here imports the library: every function works on the benchmark's
own input data (descriptor dicts and generator arrays), so a fault in the
library cannot hide in its own reference.
"""

import math

import numpy as np

INF = math.inf

# Documented tolerances of the library (README "Notes and limits").
TOL_EXACT = 1e-12      # exact piecewise-linear paths
TOL_OPERATOR = 1e-9    # operator arithmetic
TOL_QUADRATURE = 1e-6  # quadrature-backed paths

# Points fed to a ball indicator on purpose lie on its sphere up to rounding.
BALL_SLACK = 1e-9

CHUNK = 256  # rows per block in the brute-force references, to bound memory


class Mismatch(Exception):
    """An output of the program disagrees with its reference."""

    def __init__(self, what, point, got, want):
        super().__init__(f"{what}: at {point} got {got!r}, want {want!r}")


def compare(what, points, got, want, tol):
    """Raise Mismatch naming the first point where got and want differ.

    Values agree when both are +inf, or when they are within tol relative
    to max(1, |got|, |want|).
    """
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise Mismatch(what, "shape", got.shape, want.shape)
    inf_g, inf_w = np.isinf(got), np.isinf(want)
    both = ~(inf_g | inf_w)
    bad = (inf_g != inf_w) | np.isnan(got) | np.isnan(want)
    scale = np.maximum(1.0, np.maximum(np.abs(got), np.abs(want)))
    bad[both] |= np.abs(got[both] - want[both]) > tol * scale[both]
    if bad.any():
        i = int(np.argmax(bad))
        p = points[i]
        p = p.tolist() if hasattr(p, "tolist") else p
        raise Mismatch(what, p, float(got[i]), float(want[i]))


# -- one-dimensional piecewise-linear data ---------------------------------------

class Pwl:
    """Convex piecewise-linear data: breakpoints, values, all slopes.

    ``slopes`` holds the whole sequence (left tail, pieces, right tail);
    an infinite tail slope means +inf beyond that end.
    """

    def __init__(self, bp, val, slopes):
        self.bp = np.asarray(bp, dtype=float)
        self.val = np.asarray(val, dtype=float)
        self.slopes = np.asarray(slopes, dtype=float)
        self.sl = float(self.slopes[0])
        self.sr = float(self.slopes[-1])

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.interp(x, self.bp, self.val)
        lo, hi = x < self.bp[0], x > self.bp[-1]
        out = np.where(lo, INF if self.sl == -INF else
                       self.val[0] + self.sl * (x - self.bp[0]), out)
        return np.where(hi, INF if self.sr == INF else
                        self.val[-1] + self.sr * (x - self.bp[-1]), out)

    def descriptor(self):
        def num(v):
            return "inf" if v == INF else "-inf" if v == -INF else float(v)
        return {"kind": "pwl", "breakpoints": self.bp.tolist(),
                "values": self.val.tolist(), "slope_left": num(self.sl),
                "slope_right": num(self.sr)}

    def integral(self, lo, hi):
        """Exact integral over [lo, hi]: the trapezoid rule between kinks."""
        inner = self.bp[(self.bp > lo) & (self.bp < hi)]
        pts = np.concatenate([[lo], inner, [hi]])
        vals = self(pts)
        return float(np.sum(0.5 * (vals[1:] + vals[:-1]) * np.diff(pts)))


def pwl_from_descriptor(d):
    bp = np.asarray(d["breakpoints"], dtype=float)
    val = np.asarray(d["values"], dtype=float)
    sl = -INF if d["slope_left"] == "-inf" else float(d["slope_left"])
    sr = INF if d["slope_right"] == "inf" else float(d["slope_right"])
    return Pwl(bp, val, np.concatenate([[sl], np.diff(val) / np.diff(bp), [sr]]))


def sample_points(pf, rng, count):
    """Breakpoints, midpoints and points beyond both ends of a program output.

    At most ``count`` interior points are kept, drawn with ``rng``. The
    outermost breakpoints of a truncated domain are left out, since there
    the reference and the program may round to opposite sides of the edge.
    """
    bp = np.asarray(pf.breakpoints, dtype=float)
    pts = [bp[1:-1], 0.5 * (bp[1:] + bp[:-1])]
    if pf.slope_left != -INF:
        pts.append(bp[:1])
    if pf.slope_right != INF:
        pts.append(bp[-1:])
    pts = np.concatenate(pts)
    if pts.size > count:
        pts = rng.choice(pts, size=count, replace=False)
    return np.concatenate([pts, [bp[0] - 1.0, bp[-1] + 1.0]])


def conjugate(f, ys):
    """sup_x (x y - f(x)) by a brute-force max over the breakpoints of f."""
    out = np.empty(ys.size)
    for i in range(0, ys.size, CHUNK):
        y = ys[i:i + CHUNK]
        out[i:i + CHUNK] = np.max(y[:, None] * f.bp[None, :] - f.val[None, :], axis=1)
    out[(ys < f.sl) | (ys > f.sr)] = INF
    return out


def inf_convolution(f, g, xs):
    """min over splits x = x1 + x2 with x1 a kink of f or x2 a kink of g.

    The kink itself is evaluated, never x minus the other part, so a kink
    at the end of a truncated domain does not round off the domain.
    """
    out = np.empty(xs.size)
    for i in range(0, xs.size, CHUNK):
        x = xs[i:i + CHUNK, None]
        at_f = f.val[None, :] + g(x - f.bp[None, :])
        at_g = f(x - g.bp[None, :]) + g.val[None, :]
        out[i:i + CHUNK] = np.minimum(at_f.min(axis=1), at_g.min(axis=1))
    return out


# -- expression trees on R^n ----------------------------------------------------

def tree_eval(d, X):
    """Evaluate a function descriptor at the rows of X; +inf off the domain."""
    kind = d["kind"]
    if kind == "affine":
        return X @ np.asarray(d["a"], dtype=float) + float(d["b"])
    if kind == "quad":
        return float(d["c"]) * np.einsum("ij,ij->i", X, X)
    if kind == "ball_indicator":
        r2 = float(d["r"]) ** 2
        return np.where(np.einsum("ij,ij->i", X, X) <= r2 * (1.0 + BALL_SLACK), 0.0, INF)
    if kind == "pwl1d":
        return pwl_from_descriptor(d["pwl"])(X @ np.asarray(d["direction"], dtype=float))
    if kind == "sum":
        return np.sum([tree_eval(t, X) for t in d["terms"]], axis=0)
    if kind == "max":
        return np.max([tree_eval(t, X) for t in d["terms"]], axis=0)
    if kind == "precompose":
        return tree_eval(d["term"], X @ np.asarray(d["matrix"], dtype=float).T)
    raise ValueError(f"no reference for function kind {kind!r}")


def gl_value(endo, fn, X):
    """c f(0) + sum w (f(s x) - f(0)) / s^2, row by row."""
    f0 = float(tree_eval(fn, np.zeros((1, X.shape[1])))[0])
    total = np.full(X.shape[0], float(endo["c"]) * f0)
    for a in endo["nu"]["atoms"]:
        s, w = float(a["s"]), float(a["w"])
        total = total + w * (tree_eval(fn, s * X) - f0) / (s * s)
    return total


def scale_compose_value(endo, fn, X):
    v = tree_eval(fn, float(endo["mu"]) * X)
    return np.where(np.isinf(v), INF, float(endo["lambda"]) * v)


def radial_smooth_value(endo, coeffs, X):
    """Closed form for f = c|y|^2 + d|y| + a.y + b on orbits in n >= 3:
    sum w (c t^2 |x|^2 + d t |x| + t cos(theta) a.x + b)."""
    c, d, a, b = coeffs
    r = np.linalg.norm(X, axis=1)
    ax = X @ np.asarray(a, dtype=float)
    total = np.zeros(X.shape[0])
    for atom in endo["mu"]["atoms"]:
        t, th, w = float(atom["t"]), float(atom["theta"]), float(atom["w"])
        total += w * (c * t * t * r * r + d * t * r + t * math.cos(th) * ax + b)
    return total


def radial_pole_value(endo, fn, X):
    """Orbits at theta = 0 or pi are the single points +-t x / |x| of the
    unit sphere, so the value is sum w f(+-t x)."""
    total = np.zeros(X.shape[0])
    for atom in endo["mu"]["atoms"]:
        t, th, w = float(atom["t"]), float(atom["theta"]), float(atom["w"])
        sign = 1.0 if th == 0.0 else -1.0
        total = total + w * tree_eval(fn, sign * t * X)
    return total


def radial_plane_value(endo, fn, X):
    """In n = 2 the orbit point t(cos theta, sin theta) is turned by the
    angle of x and scaled by |x|."""
    r = np.linalg.norm(X, axis=1)
    alpha = np.arctan2(X[:, 1], X[:, 0])
    total = np.zeros(X.shape[0])
    for atom in endo["mu"]["atoms"]:
        t, th, w = float(atom["t"]), float(atom["theta"]), float(atom["w"])
        P = np.stack([t * r * np.cos(alpha + th), t * r * np.sin(alpha + th)], axis=1)
        total = total + w * tree_eval(fn, P)
    return total


# -- one-dimensional operators and kernels ---------------------------------------

def gl1d_value(c, atoms, f, x):
    f0 = float(f(0.0))
    return c * f0 + sum(w * (float(f(s * x)) - f0) / (s * s) for s, w in atoms)


def gl1d_kernel(c, atoms, X, Y):
    """psi(x, y) = c y_+ + sum w ((y - s x)_+ - y_+) / s^2."""
    yp = np.maximum(Y, 0.0)
    out = c * yp
    for s, w in atoms:
        out = out + w * (np.maximum(Y - s * X, 0.0) - yp) / (s * s)
    return out


def phi_value(phi, f, t):
    """Integral of f - f(0) over [-phi(t), phi(t)]."""
    a = float(phi(t))
    if a <= 0.0:
        return 0.0
    return f.integral(-a, a) - 2.0 * a * float(f(0.0))


def phi_kernel(phi, X, Y):
    """The profile operator applied to the hinge (y - .)_+:
    (y + a)^2 / 2 - 2 a y_+ on |y| < a = phi(x), and 0 elsewhere."""
    a = phi(X)
    inside = np.abs(Y) < a
    return np.where(inside, (Y + a) ** 2 / 2.0 - 2.0 * a * np.maximum(Y, 0.0), 0.0)


def hat(radius, u):
    return np.maximum(0.0, 1.0 - np.abs(u) / radius)


def ma_value(g, radius, f, x):
    """g(x) * sum over kinks y_j of f of hat(|y_j|) * slope jump_j."""
    jumps = np.diff(f.slopes)
    near = np.abs(f.bp) <= radius
    return float(g(x)) * float(np.sum(hat(radius, f.bp[near]) * jumps[near]))


def ma_kernel(g, radius, X, Y):
    return g(X) * hat(radius, Y)


def second_diff_y(K):
    return K[:, 2:] - 2.0 * K[:, 1:-1] + K[:, :-2]
