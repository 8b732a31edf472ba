"""One-dimensional kernel calculus for additive operators.

Every continuous additive operator on finite convex functions of one
variable is represented by a continuous kernel psi(x, y), unique up to
adding functions affine in y. The operator is recovered from the kernel
through a four-coefficient tail decomposition plus a pairing of the
residual with the second-derivative measure of the input:

    Psi(f)[x] = (c1(x) + c3(x)) f(0) + (c2(x) + c4(x)) f(-1)
                + sum_j psi_tilde(x, y_j) * jump_j,

where the (y_j, jump_j) are the kink positions and slope jumps of f. The
kernel of an operator is extracted by applying it to hinge functions:
psi(x, y) = Psi(s -> (y - s)_+)[x].

The tail coefficients solve the affine tail equations

    psi(x, y) = c1 y + c2 (y + 1)        for y >= R,
    psi(x, y) = c3 (-y) + c4 (-y - 1)    for y <= -R,

at the nodes +-R and +-(R + 1); subtracting the four hinge multiples
c1 y_+ + c2 (y+1)_+ + c3 (-y)_+ + c4 (-y-1)_+ then kills both tails.

psi(x, .) is read as one row, ``Kernel1D.row(x, ys)``. The built-in 1-D
operators give a row of hinge values in one numpy pass, ``op.kernel_row(x,
ys)``; an opaque callable is applied to one hinge per y.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import (BadShape, InfiniteSlope, OutsideA, PhiNegative, PhiNotEven,
                     TailNotAffine, XSliceNotAffine)
from .expr import as_point_block
from .extreal import INF, RADIAL_LIMIT, edge_split
from .measures import LineMeasure
from .probes import is_convex_block, is_convex_sampled
from .pwl import PwlFunction, hinge_values, is_even, pwl_hinge


def _finite_pwl(f, x=0.0, X=None):
    """The one input check of the operators on finite pwl functions, made first by
    each entry point: f must be a PwlFunction with finite tails, and the point x (a
    float costs no numpy call) or the (k, 1) block X hold no nan; returns x or X's column."""
    if not isinstance(f, PwlFunction):
        raise BadShape("this operator expects a {'kind': 'pwl'} input")
    if f.slope_left == -INF or f.slope_right == INF:
        raise InfiniteSlope("the input must be a finite piecewise-linear function")
    if X is not None:
        return as_point_block(X, 1)[:, 0]
    if isinstance(x, float) and x == x:
        return float(x)
    return float(as_point_block(np.reshape(x, (1, -1)), 1)[0, 0])


def monge_ampere(f):
    """Second-derivative measure of a finite convex piecewise-linear f.

    Atoms sit at the breakpoints and weigh the slope jumps; zero jumps are
    dropped. Functions with truncated domains are rejected.
    """
    _finite_pwl(f)
    return _kinks(f)


def _kinks(f):
    """``monge_ampere`` of a checked f; only a jump that overflowed is refused."""
    seq = f.slope_sequence()
    pos, wts = [], []
    for b, m1, m2 in zip(f.breakpoints, seq, seq[1:]):
        jump = m2 - m1
        if jump > 0.0:
            pos.append(b)
            wts.append(jump)
    if INF in wts:
        raise BadShape("atom positions and weights must be finite")
    return LineMeasure._exact(tuple(pos), tuple(wts))


def pwl_integral(f, lo, hi):
    """Exact integral of a PwlFunction over [lo, hi] inside its domain."""
    if hi < lo:
        raise BadShape("empty integration interval")
    dlo, dhi = f.domain
    if lo < dlo - 1e-12 or hi > dhi + 1e-12:
        raise InfiniteSlope("integration interval leaves the domain")
    return _trapezoids(f, lo, hi, 0.0)


def _trapezoids(f, lo, hi, c):
    """The trapezoid sum of f - c over lo, the breakpoints inside and hi."""
    pts = [lo] + [b for b in f.breakpoints if lo < b < hi] + [hi]
    total = 0.0
    for p, q in zip(pts, pts[1:]):
        total += 0.5 * ((f(p) - c) + (f(q) - c)) * (q - p)
    return total


class Kernel1D:
    """Continuous kernel psi(x, y) with a declared validity box.

    psi is given at one point by ``evaluator(x, y)``, or by a table bilinear
    between nodes (``from_grid``) or an operator's rows (``kernel_extract_live``).
    ``psi.row(x, ys)`` reads psi(x, .); ``psi(x, y)`` is a row of one.
    """

    def __init__(self, evaluator, box):
        self.box = tuple(float(v) for v in box)  # (x_lo, x_hi, y_lo, y_hi)
        if not (self.box[0] < self.box[1] and self.box[2] < self.box[3]):
            raise BadShape("validity box is empty")
        self.grid = None  # (xs, ys, values) for grid kernels
        self._row = lambda x, ys: [evaluator(x, y) for y in ys]

    @classmethod
    def from_grid(cls, xs, ys, values):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        values = np.asarray(values, dtype=float)
        if not (np.isfinite(xs).all() and np.isfinite(ys).all() and np.isfinite(values).all()):
            raise BadShape("grid nodes and values must be finite")
        if values.shape != (xs.size, ys.size):
            raise BadShape("values must be shaped (len(xs), len(ys))")
        if xs.size < 2 or ys.size < 2:
            raise BadShape("grids need at least two nodes")
        if np.any(np.diff(xs) <= 0) or np.any(np.diff(ys) <= 0):
            raise BadShape("grids must be strictly increasing")
        psi = cls(None, (xs[0], xs[-1], ys[0], ys[-1]))
        psi.grid, psi._row = (xs, ys, values), psi._bilinear
        return psi

    def row(self, x, ys):
        """[psi(x, y) for y in ys] as floats; the box is checked first."""
        x_lo, x_hi, y_lo, y_hi = self.box
        y = np.asarray(ys, dtype=float)
        out = ~((y_lo - 1e-9 <= y) & (y <= y_hi + 1e-9) & (x_lo - 1e-9 <= x <= x_hi + 1e-9))
        if out.any():
            raise OutsideA(f"({x}, {ys[int(np.argmax(out))]}) outside validity box {self.box}")
        return np.asarray(self._row(x, ys), dtype=float).tolist()

    def _bilinear(self, x, ys):
        """The row of a grid kernel: the x cell once, the y cells in one searchsorted."""
        xs, gy, values = self.grid
        y = np.asarray(ys, dtype=float)
        i = int(np.clip(np.searchsorted(xs, x) - 1, 0, xs.size - 2))
        j = np.clip(np.searchsorted(gy, y) - 1, 0, gy.size - 2)
        tx = (x - xs[i]) / (xs[i + 1] - xs[i])
        ty = (y - gy[j]) / (gy[j + 1] - gy[j])
        return ((1 - tx) * (1 - ty) * values[i, j]
                + tx * (1 - ty) * values[i + 1, j]
                + (1 - tx) * ty * values[i, j + 1]
                + tx * ty * values[i + 1, j + 1])

    def __call__(self, x, y):
        return self.row(x, (y,))[0]

    def is_x_convex(self, xs, ys):
        """Sampled convexity of psi(., y), the defining property of kernels."""
        return all(is_convex_sampled(lambda x, y=y: self(x, y), xs) for y in ys)


def kernel_is_monotone(psi, xs, ys):
    """Monotone operators are exactly those with psi(x, .) convex; each
    psi(x, .) is sampled as one row."""
    return all(is_convex_block(lambda Y, x=x: psi.row(x, Y), ys) for x in xs)


@dataclass
class KernelDecomposition:
    """Tail coefficients and compactly supported residual of a kernel.

    Called as ``d(f, x)``, it is the operator the kernel represents.
    """

    kernel: Kernel1D
    A: tuple
    R: float
    n = 1

    def tails(self, x):
        """(c1, c2, c3, c4) at x in A."""
        return self.residual(x, ())[0]

    def residual(self, x, ys):
        """The tails (c1, c2, c3, c4) at x in A and [psi_tilde(x, y) for y in
        ys], psi less the tails' four hinge multiples, which is 0 beyond |y| =
        R + 1e-12; psi(x, .) is read as one row, at R + 1, R, -R, -R - 1 and
        the ys within."""
        x = float(x)
        if edge_split(x, x, *self.A)[1] or math.isnan(x):
            raise OutsideA(f"{x} outside decomposition interval {self.A}")
        R, cut = self.R, self.R + 1e-12
        p_hi, p_r, p_mr, p_lo, *psi = self.kernel.row(
            x, [R + 1.0, R, -R, -R - 1.0] + [y for y in ys if not abs(y) > cut])
        c1, c2, c3, c4 = tails = ((R + 1.0) * p_hi - (R + 2.0) * p_r,
                                  (R + 1.0) * p_r - R * p_hi,
                                  R * p_mr - (R - 1.0) * p_lo,
                                  R * p_lo - (R + 1.0) * p_mr)
        psi = iter(psi)
        res = [next(psi) - (c1 * max(y, 0.0) + c2 * max(y + 1.0, 0.0) + c3 * max(-y, 0.0)
                            + c4 * max(-y - 1.0, 0.0)) if not abs(y) > cut else 0.0 for y in ys]
        return tails, res

    def eval_many(self, f, X):
        """The operator at the rows of a (k, 1) array, the kinks of f found once."""
        xs, ma = _finite_pwl(f, X=X).tolist(), _kinks(f)
        return np.array([self._value(f, x, ma) for x in xs])

    def _value(self, f, x, ma):
        (c1, c2, c3, c4), res = self.residual(x, ma.positions)
        total = (c1 + c3) * f(0.0) + (c2 + c4) * f(-1.0)
        for r, w in zip(res, ma.weights):
            total += r * w  # the residual is 0 beyond R, and 0 * w keeps the sign of zero
        return total

    def kernel_row(self, x, ys):
        """[self(pwl_hinge(y), x) for y in ys], from one unit kink at each y."""
        y = np.asarray(ys, dtype=float)
        (c1, c2, c3, c4), res = self.residual(x, y.tolist())
        return (c1 + c3) * hinge_values(y, 0.0) + (c2 + c4) * hinge_values(y, -1.0) + res

    def __call__(self, f, x):
        return kernel_endo_eval(self, f, x)


def _first_bend(rows):
    """The first (label, dev) among ``rows`` of (label, samples) pairs with a
    non-finite sample (dev nan) or a largest second difference dev above 1e-8
    times the samples' magnitude (at least 1); None when every row is affine.
    A generator of rows is sampled only up to the first bend."""
    for label, vals in rows:
        v = np.asarray(vals, dtype=float)
        if not np.isfinite(v).all():
            return label, math.nan
        dev = float(np.max(np.abs(v[2:] - 2.0 * v[1:-1] + v[:-2]))) if v.size > 2 else 0.0
        if dev > 1e-8 * max(1.0, float(np.max(np.abs(v)))):
            return label, dev
    return None


def kernel_decompose(psi, A, R):
    """Solve the tail equations and validate both support conditions.

    Checks that psi(x, .) is affine beyond +-R for x in A (second
    differences of samples on [R, R+1] and [-R-1, -R]) and that
    psi(., y) is affine on A for |y| > R. R must be at least 1 so that the
    four hinge multiples reproduce affine tails exactly.
    """
    a_lo, a_hi = (float(A[0]), float(A[1]))
    R = float(R)
    if not R >= 1.0:
        raise BadShape("decomposition radius must be >= 1")
    x_lo, x_hi, y_lo, y_hi = psi.box
    if not (a_lo >= x_lo - 1e-9 and a_hi <= x_hi + 1e-9):
        raise BadShape("A leaves the kernel's validity box")
    if -(R + 1.0) < y_lo - 1e-9 or (R + 1.0) > y_hi + 1e-9:
        raise BadShape("R + 1 leaves the kernel's validity box")

    xs = np.linspace(a_lo, a_hi, 21)
    ys = np.linspace(R, R + 1.0, 13)
    bend = _first_bend((((x, sign * R), psi.row(x, sign * ys))
                        for sign in (+1.0, -1.0) for x in xs))
    if bend:
        (x, edge), dev = bend
        raise TailNotAffine(f"psi({x}, .) bends beyond {edge}: second difference {dev}")
    ys = np.concatenate([sign * np.linspace(R + 1e-6, R + 1.0, 5) for sign in (+1.0, -1.0)])
    bend = _first_bend(zip(ys, np.array([psi.row(x, ys) for x in xs]).T))
    if bend:
        y, dev = bend
        raise XSliceNotAffine(f"psi(., {y}) is not affine on A: second difference {dev}")

    return KernelDecomposition(kernel=psi, A=(a_lo, a_hi), R=R)


def kernel_endo_eval(d, f, x):
    """Apply the decomposed operator to a finite piecewise-linear input."""
    return d._value(f, _finite_pwl(f, x), _kinks(f))


def _hinge_row(endo):
    """endo's ``kernel_row``, or one call of endo per hinge."""
    return getattr(endo, "kernel_row", None) or (lambda x, ys: [endo(pwl_hinge(y), x) for y in ys])


def kernel_extract(endo, xs, ys):
    """Tabulate psi(x, y) = endo((y - .)_+)[x] on a grid kernel, one row per x."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    row = _hinge_row(endo)
    return Kernel1D.from_grid(xs, ys, np.reshape([row(x, ys) for x in xs.tolist()],
                                                 (xs.size, ys.size)))


def kernel_extract_live(endo, box):
    """Operator-backed kernel evaluated exactly on demand (no grid)."""
    psi = Kernel1D(None, box)
    psi._row = _hinge_row(endo)
    return psi


def detect_tail_radius(psi, A, start=1.0):
    """Scan doubling radii until the tails stay affine for several octaves.

    Returns the first radius of a run of eight doublings on which psi(x, .)
    is affine on [R, 2R] and [-2R, -R] for sampled x in A.
    """
    xs = np.linspace(float(A[0]), float(A[1]), 9)
    y_hi = psi.box[3]
    run_start = None
    run = 0
    R = float(start)
    while 2.0 * R <= y_hi + 1e-9:
        ys = np.linspace(R, 2.0 * R, 9)
        if _first_bend(((x, psi.row(x, sign * ys))
                        for sign in (+1.0, -1.0) for x in xs)) is None:
            if run == 0:
                run_start = R
            run += 1
            if run >= 8:
                return run_start
        else:
            run = 0
            run_start = None
        R *= 2.0
    if run_start is not None:
        return run_start
    raise TailNotAffine("no affine tail radius found inside the validity box")


# -- worked operator families -------------------------------------------------


class PhiEndo:
    """Operator f -> (t -> integral of f - f(0) over [-phi(t), phi(t)]).

    ``phi`` is an even, non-negative convex piecewise-linear profile. When
    phi has a truncated domain, values outside its closure are +inf and
    boundary values are radial limits from inside, which keeps the output
    lower semi-continuous and finite near 0.
    """

    n = 1

    def __init__(self, phi):
        if not is_even(phi):
            raise PhiNotEven("phi must be even")
        if phi(0.0) < -1e-12:  # an even convex phi is least at 0
            raise PhiNegative("phi must be non-negative")
        self.phi = phi

    def _half_width(self, t):
        t = float(t)
        dlo, dhi = self.phi.domain
        interior, exterior = edge_split(t, t, dlo, dhi)
        if exterior:
            return INF
        if not interior:
            # boundary: the radial limit from inside (from the edge just outside)
            t = RADIAL_LIMIT * min(max(t, dlo), dhi)
        return self.phi(t)

    def __call__(self, f, t):
        return self._value(f, _finite_pwl(f, t))

    def eval_many(self, f, X):
        # point by point: the trapezoid order of each value fixes its bits
        return np.array([self._value(f, t) for t in _finite_pwl(f, X=X).tolist()])

    def _value(self, f, t):
        a = self._half_width(t)
        if not 0.0 < a < INF:
            return INF if a == INF else 0.0
        f0 = f(0.0)
        value = pwl_integral(f, -a, a) - 2.0 * a * f0
        # the two terms can overflow apart: then integrate f - f(0) itself
        return value if abs(value) < INF else _trapezoids(f, -a, a, f0)

    def kernel_row(self, t, ys):
        """[self(pwl_hinge(y), t) for y in ys]: only the trapezoid from -a is not 0."""
        y = np.asarray(ys, dtype=float)
        a = self._half_width(t)
        if not 0.0 < a < INF:
            return np.full(y.shape, INF if a == INF else 0.0)
        q = np.where((-a < y) & (y < a), y, a)
        return (0.5 * (hinge_values(y, -a) + hinge_values(y, q)) * (q + a)
                - 2.0 * a * hinge_values(y, 0.0))

    def as_endomap(self):
        return self


@dataclass
class PhiConvexityReport:
    grid: np.ndarray
    term_curvature: np.ndarray
    term_slopes: np.ndarray
    tol: float

    @property
    def passed(self):
        return bool(np.all(self.term_curvature >= -self.tol)
                    and np.all(self.term_slopes >= -self.tol))


def example_phi_convexity_certificate(phi, f, grid, tol=1e-8):
    """Second-derivative certificate for the profile-integral operator.

    On a uniform grid, both finite-difference summands of the output's
    second derivative are reported:

        phi''(t) (f(phi(t)) + f(-phi(t)) - 2 f(0))      curvature term,
        (phi'(t))^2 (f'(phi(t)) - f'(-phi(t)))          slope-gap term.

    Convexity of phi and f makes both non-negative up to discretization.
    """
    grid = np.asarray(grid, dtype=float)
    h = np.diff(grid)
    if grid.size < 3 or np.max(np.abs(h - h[0])) > 1e-12:
        raise BadShape("grid must be uniform with at least 3 points")
    h = float(h[0])
    seq = f.slope_sequence()  # f'(a) is the right slope, seq[#breakpoints <= a]
    term1, term2 = [], []
    for i in range(1, grid.size - 1):
        t = grid[i]
        pm, p0, pp = phi(grid[i - 1]), phi(t), phi(grid[i + 1])
        ddphi = (pp - 2.0 * p0 + pm) / (h * h)
        dphi = (pp - pm) / (2.0 * h)
        a = p0
        term1.append(ddphi * (f(a) + f(-a) - 2.0 * f(0.0)))
        term2.append(dphi * dphi * (seq[bisect_right(f.breakpoints, a)]
                                    - seq[bisect_right(f.breakpoints, -a)]))
    return PhiConvexityReport(grid=grid[1:-1], term_curvature=np.array(term1),
                              term_slopes=np.array(term2), tol=tol)


class MaEndo:
    """Operator f -> (x -> g(x) * sum of zeta(|y_j|) * jump_j).

    ``zeta`` is a non-negative continuous weight with the declared compact
    support radius; ``g`` is a finite convex piecewise-linear factor.
    """

    n = 1

    def __init__(self, g, zeta, support_radius):
        _finite_pwl(g)
        for u in np.linspace(0.0, float(support_radius), 33):
            if zeta(u) < -1e-12:
                raise BadShape("zeta must be non-negative")
        self.g = g
        self.zeta = zeta
        self.support_radius = float(support_radius)

    def _total(self, f):
        total = 0.0
        for y, w in _kinks(f).atoms:
            if abs(y) <= self.support_radius:
                total += self.zeta(abs(y)) * w
        return total

    def __call__(self, f, x):
        return self.g(_finite_pwl(f, x)) * self._total(f)

    def eval_many(self, f, X):
        return self.g.eval_many(_finite_pwl(f, X=X)) * self._total(f)

    def kernel_row(self, x, ys):
        """[self(pwl_hinge(y), x) for y in ys]: g(x) zeta(|y|) on |y| <= radius."""
        z = [self.zeta(abs(y)) if abs(y) <= self.support_radius else 0.0 for y in map(float, ys)]
        return self.g(float(x)) * (0.0 + np.array(z, dtype=float))  # 0.0 + as in _total

    def as_endomap(self):
        return self


def hat_weight(radius):
    """The tent weight u -> max(0, 1 - u / radius) on [0, radius], with its JSON ``descriptor``."""
    radius = float(radius)
    if not radius > 0:
        raise BadShape("hat radius must be positive")

    def hat(u):
        return max(0.0, 1.0 - abs(u) / radius)
    hat.descriptor = {"kind": "hat", "radius": radius}
    return hat
