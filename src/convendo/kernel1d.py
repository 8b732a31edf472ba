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

psi is read as a table, ``Kernel1D.table(X, ys)``. The built-in 1-D operators
give their tables of hinge values in one numpy pass, ``op.kernel_table(X,
ys)``; an opaque callable is applied to one hinge per (x, y).
"""

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import (BadShape, InfiniteSlope, KernelNotConvex, OutsideA, PhiNegative,
                     PhiNotEven, TailNotAffine, XSliceNotAffine)
from .expr import as_point_block
from .extreal import EDGE_TOL, INF, RADIAL_LIMIT, edge_split
from .measures import LineMeasure
from .probes import is_convex_block
from .pwl import PwlFunction, _arrays, _quiet, _read, _slopes, hinge_values, is_even, pwl_hinge


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


@_quiet
def _kinks(f):
    """``monge_ampere`` of a checked f; only a jump that overflowed is refused."""
    b, _, seq = _arrays(f)
    jump = seq[1:] - seq[:-1]
    kink = jump > 0.0
    wts = jump[kink].tolist()
    if INF in wts:
        raise BadShape("atom positions and weights must be finite")
    return LineMeasure._exact(tuple(b[kink].tolist()), tuple(wts))


def pwl_integral(f, lo, hi):
    """Exact integral of a PwlFunction over [lo, hi] inside its domain."""
    if not lo <= hi:
        raise BadShape("empty or nan integration interval")
    dlo, dhi = f.domain
    if lo < dlo - 1e-12 or hi > dhi + 1e-12:
        raise InfiniteSlope("integration interval leaves the domain")
    return _trapezoids(f, lo, hi, 0.0)


@_quiet
def _trapezoids(f, lo, hi, c):
    """The trapezoid sum of f - c over lo <= hi (no nan), the breakpoints inside and hi."""
    bp = f.breakpoints
    pts = np.concatenate(([lo], _arrays(f)[0][bisect_right(bp, lo):bisect_left(bp, hi)], [hi]))
    y = _read(f, pts) - c
    terms = 0.5 * (y[:-1] + y[1:]) * (pts[1:] - pts[:-1])
    return float(np.add.accumulate(np.concatenate(([0.0], terms)))[-1])  # np.cumsum, unwrapped


class Kernel1D:
    """Continuous kernel psi(x, y) with a declared validity box.

    psi is given at one point by ``evaluator(x, y)``, or by a table bilinear
    between nodes (``from_grid``) or an operator's (``kernel_extract_live``).
    ``psi.table(X, ys)`` reads it; ``psi.row(x, ys)`` and ``psi(x, y)`` are one row.
    """

    def __init__(self, evaluator, box):
        self.box = tuple(float(v) for v in box)  # (x_lo, x_hi, y_lo, y_hi)
        if not (self.box[0] < self.box[1] and self.box[2] < self.box[3]):
            raise BadShape("validity box is empty")
        self.grid = None  # (xs, ys, values) for grid kernels
        self._table = lambda X, Y: [[evaluator(x, y) for y in row] for x, row in zip(
            X.tolist(), np.broadcast_to(Y, (X.size, Y.shape[-1])).tolist())]

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
        psi.grid, psi._table = (xs, ys, values), psi._bilinear
        return psi

    def table(self, X, ys):
        """psi(X[i], ys[..., j]) as a (len X, m) array, for one row ys of m
        points or one row per x; the whole box is checked first."""
        x_lo, x_hi, y_lo, y_hi = self.box
        x, y = np.asarray(X, dtype=float).reshape(-1, 1), np.asarray(ys, dtype=float)
        ok = (y_lo - 1e-9 <= y) & (y <= y_hi + 1e-9) & (x_lo - 1e-9 <= x) & (x <= x_hi + 1e-9)
        if not ok.all():
            i, j = np.unravel_index(ok.argmin(), ok.shape)
            raise OutsideA(f"({x[i, 0]}, {np.broadcast_to(y, ok.shape)[i, j]}) "
                           f"outside validity box {self.box}")
        return np.asarray(self._table(x[:, 0], y), dtype=float).reshape(ok.shape)

    def row(self, x, ys):
        """[psi(x, y) for y in ys] as floats."""
        return self.table([x], ys)[0].tolist()

    def _bilinear(self, X, Y):
        """A grid kernel's table: one searchsorted per axis, then elementwise."""
        xs, gy, values = self.grid
        i = np.clip(xs.searchsorted(X) - 1, 0, xs.size - 2)[:, None]
        j = np.clip(gy.searchsorted(Y) - 1, 0, gy.size - 2)
        tx = (X[:, None] - xs[i]) / (xs[i + 1] - xs[i])
        ty = (Y - gy[j]) / (gy[j + 1] - gy[j])
        return ((1 - tx) * (1 - ty) * values[i, j]
                + tx * (1 - ty) * values[i + 1, j]
                + (1 - tx) * ty * values[i, j + 1]
                + tx * ty * values[i + 1, j + 1])

    def __call__(self, x, y):
        return self.row(x, (y,))[0]

    @_quiet
    def require_x_convex(self):
        """Refuse a grid kernel with a psi(., y) not convex: no column's x-slope
        may fall by more than 1e-9 max(1, the column's largest |slope|)."""
        xs, ys, values = self.grid
        m = np.diff(values, axis=0) / np.diff(xs)[:, None]
        i, j = np.nonzero(m[1:] < m[:-1] - 1e-9 * np.maximum(1.0, np.abs(m).max(axis=0)))
        if i.size:
            raise KernelNotConvex(f"psi(., {ys[j[0]]}) is not convex: its x-slope falls "
                                  f"from {m[i[0], j[0]]} at x = {xs[i[0] + 1]}")


def kernel_is_monotone(psi, xs, ys):
    """Monotone operators are exactly those with psi(x, .) convex; one table
    holds psi at ys and their midpoints, which each row's test reads by bits."""
    ys = np.asarray(ys, dtype=float)
    i, j = np.triu_indices(ys.size, 1)
    keys = np.sort(np.concatenate([ys, (ys[i] + ys[j]) / 2.0]).view(np.int64))
    keys = keys[np.append(True, keys[1:] != keys[:-1])]  # each bit pattern once
    return all(is_convex_block(lambda Y, row=row: row[keys.searchsorted(Y.view(np.int64))], ys)
               for row in psi.table(xs, keys.view(float)))


# y, y + 1, -y and -y - 1 as y * sign + shift (adding -0.0 keeps a -0.0)
_SIGNS, _SHIFTS = np.array([[[1.0], [1.0], [-1.0], [-1.0]], [[-0.0], [1.0], [-0.0], [-1.0]]])


@dataclass
class KernelDecomposition:
    """Tail coefficients and compactly supported residual of a kernel.

    Called as ``d(f, x)``, it is the operator the kernel represents.
    """

    kernel: Kernel1D
    A: tuple
    R: float
    n = 1

    def __post_init__(self):  # c1..c4 = _k1 psi(x, .) at _nodes - _k2 psi at their partners
        R = self.R
        self._nodes = (R + 1.0, R, -R, -R - 1.0)
        self._k1, self._k2 = np.array([[R + 1.0, R + 1.0, R, R], [R + 2.0, R, R - 1.0, R + 1.0]])

    def tails(self, x):
        """(c1, c2, c3, c4) at x in A."""
        return self.residual(x, ())[0]

    @_quiet
    def residual(self, x, ys):
        """The tails (c1, c2, c3, c4) at x in A and [psi_tilde(x, y) for y in
        ys], psi less the tails' four hinge multiples, which is 0 beyond |y| =
        R + 1e-12; psi is read at R + 1, R, -R, -R - 1 and the ys within."""
        cut = self.R + 1e-12
        Y = [[*self._nodes, *(y for y in ys if not abs(y) > cut)]]
        C, res = self._split(np.array([float(x)]), np.array(Y))
        res = iter(res[0].tolist())
        return tuple(C[0].tolist()), [0.0 if abs(y) > cut else next(res) for y in ys]

    def _split(self, X, Y):
        """The tails c1..c4 at the floats X as the columns of C, and psi_tilde
        at (X[i], Y[i, j >= 4]), from one table of psi at Y (one row, or one
        per x) whose first columns are the nodes; run under ``_quiet``."""
        lo, hi = self.A
        out = ~((X >= lo - EDGE_TOL) & (X <= hi + EDGE_TOL))  # edge_split's exterior, or nan
        if out.any():
            raise OutsideA(f"{X[out.argmax()]} outside decomposition interval {self.A}")
        psi = self.kernel.table(X, Y)
        C = self._k1 * psi[:, :4] - self._k2 * psi.take([1, 0, 3, 2], axis=1)
        H = Y[:, None, 4:] * _SIGNS + _SHIFTS
        # c1 y_+ + c2 (y + 1)_+ + c3 (-y)_+ + c4 (-y - 1)_+, summed left to right
        S = np.cumsum(C[:, :, None] * np.where(0.0 > H, 0.0, H), axis=1)
        return C, psi[:, 4:] - S[:, 3]

    @_quiet
    def _pairs(self, X, fs):
        """The operator at the pairs (fs[i], X[i]), or (f, X[i]) for fs = [f]:
        (c1 + c3) f(0) + (c2 + c4) f(-1), then psi_tilde * jump kink by kink, in
        padded rows read at their own kink counts. psi_tilde = 0 beyond R adds
        +0.0, which is the same wherever it falls, so it is added last."""
        cut, rows = self.R + 1e-12, []
        for f in fs:  # the kinks within R form one run of the sorted positions
            m = _kinks(f)
            i, j = bisect_left(m.positions, -cut), bisect_right(m.positions, cut)
            rows.append((f(0.0), f(-1.0), -0.0 if j - i == len(m) else 0.0,
                         m.positions[i:j], m.weights[i:j]))
        k = [len(r[3]) for r in rows]
        pad = (0.0,) * max(k)
        D = np.array([(*r[:3], *self._nodes, *r[3], *pad[c:], *r[4], *pad[c:])
                      for r, c in zip(rows, k)])
        C, res = self._split(X, D[:, 3:7 + len(pad)])
        head = (C[:, :1] + C[:, 2:3]) * D[:, :1] + (C[:, 1:2] + C[:, 3:]) * D[:, 1:2]
        total = np.cumsum(np.concatenate([head, res * D[:, 7 + len(pad):]], axis=1), axis=1)
        return total[np.arange(len(X)), k] + D[:, 2]

    def eval_many(self, f, X):
        """The operator at the rows of a (k, 1) array, the kinks of f found once."""
        return self._pairs(_finite_pwl(f, X=X), [f])

    @_quiet
    def kernel_table(self, X, ys):
        """[[self(pwl_hinge(y), x) for y in ys] for x in X], from one unit
        kink at each y."""
        Y = np.atleast_2d(np.asarray(ys, dtype=float))
        read = ~(abs(Y) > self.R + 1e-12)
        C, res = self._split(X, np.concatenate(
            [np.broadcast_to(self._nodes, (len(Y), 4)), np.where(read, Y, 0.0)], axis=1))
        return ((C[:, :1] + C[:, 2:3]) * hinge_values(Y, 0.0)
                + (C[:, 1:2] + C[:, 3:]) * hinge_values(Y, -1.0) + np.where(read, res, 0.0))

    def __call__(self, f, x):
        return kernel_endo_eval(self, f, x)


def _first_bend(labels, rows):
    """(label, dev) of the first row of a table of samples with a non-finite
    sample (dev nan) or a largest second difference dev above 1e-8 times the
    row's magnitude (at least 1); None when every row is affine."""
    v = np.asarray(rows, dtype=float)
    finite = np.isfinite(v).all(axis=1)
    w = np.where(finite[:, None], v, 0.0)
    dev = np.abs(w[:, 2:] - 2.0 * w[:, 1:-1] + w[:, :-2]).max(axis=1, initial=0.0)
    bent = ~finite | (dev > 1e-8 * np.maximum(1.0, np.abs(w).max(axis=1, initial=0.0)))
    i = bent.argmax()
    return (labels[i], float(dev[i]) if finite[i] else math.nan) if bent[i] else None


def _tail_rows(psi, xs, ys):
    """psi(x, ys) for each x, then psi(x, -ys) for each x, from one table."""
    return np.concatenate(np.split(psi.table(xs, np.concatenate([ys, -ys])), 2, axis=1))


def kernel_decompose(psi, A, R):
    """Solve the tail equations and validate both support conditions.

    Checks that psi(x, .) is affine beyond +-R for x in A (second
    differences of samples on [R, R+1] and [-R-1, -R]) and that
    psi(., y) is affine on A for |y| > R. A must be finite and R finite and
    at least 1, so that the four hinge multiples reproduce affine tails exactly.
    """
    a_lo, a_hi = (float(A[0]), float(A[1]))
    R = float(R)
    if not 1.0 <= R < INF:
        raise BadShape("decomposition radius must be >= 1 and finite")
    if not (math.isfinite(a_lo) and math.isfinite(a_hi)):
        raise BadShape("decomposition interval A must be finite")
    x_lo, x_hi, y_lo, y_hi = psi.box
    if not (a_lo >= x_lo - 1e-9 and a_hi <= x_hi + 1e-9):
        raise BadShape("A leaves the kernel's validity box")
    if -(R + 1.0) < y_lo - 1e-9 or (R + 1.0) > y_hi + 1e-9:
        raise BadShape("R + 1 leaves the kernel's validity box")

    xs = np.linspace(a_lo, a_hi, 21).tolist()
    bend = _first_bend([(x, sign * R) for sign in (+1.0, -1.0) for x in xs],
                       _tail_rows(psi, xs, np.linspace(R, R + 1.0, 13)))
    if bend:
        (x, edge), dev = bend
        raise TailNotAffine(f"psi({x}, .) bends beyond {edge}: second difference {dev}")
    ys = np.concatenate([sign * np.linspace(R + 1e-6, R + 1.0, 5) for sign in (+1.0, -1.0)])
    bend = _first_bend(ys.tolist(), psi.table(xs, ys).T)
    if bend:
        y, dev = bend
        raise XSliceNotAffine(f"psi(., {y}) is not affine on A: second difference {dev}")

    return KernelDecomposition(kernel=psi, A=(a_lo, a_hi), R=R)


def kernel_endo_eval(d, f, x):
    """Apply the decomposed operator to a finite piecewise-linear input."""
    return float(d._pairs(np.array([_finite_pwl(f, x)]), [f])[0])


def kernel_extract(endo, xs, ys):
    """Tabulate psi(x, y) = endo((y - .)_+)[x] on a grid kernel, in one table."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    values = kernel_extract_live(endo, (-INF, INF, -INF, INF))._table(xs, ys)
    return Kernel1D.from_grid(xs, ys, np.reshape(values, (xs.size, ys.size)))


def kernel_extract_live(endo, box):
    """Operator-backed kernel: endo's ``kernel_table``, else one call per hinge."""
    psi = Kernel1D(lambda x, y: endo(pwl_hinge(y), x), box)
    psi._table = getattr(endo, "kernel_table", psi._table)
    return psi


def detect_tail_radius(psi, A, start=1.0):
    """Scan doubling radii until the tails stay affine for several octaves.

    Returns the first radius of a run of eight doublings on which psi(x, .)
    is affine on [R, 2R] and [-2R, -R] for sampled x in A, one table per radius.
    """
    xs, R, run = np.linspace(float(A[0]), float(A[1]), 9), float(start), []
    while 2.0 * R <= psi.box[3] + 1e-9 and len(run) < 8:
        rows = _tail_rows(psi, xs, np.linspace(R, 2.0 * R, 9))
        run = run + [R] if _first_bend(range(len(rows)), rows) is None else []
        R *= 2.0
    if run:
        return run[0]
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

    def kernel_table(self, T, ys):
        """[[self(pwl_hinge(y), t) for y in ys] for t in T]: only the trapezoid
        from -a is not 0, a the half width at t, where 0 < a < inf (b = a)."""
        y = np.asarray(ys, dtype=float)
        a = np.array([self._half_width(t) for t in T.tolist()])[:, None]
        b = np.where((0.0 < a) & (a < INF), a, 1.0)
        q = np.where((-b < y) & (y < b), y, b)
        row = (0.5 * (hinge_values(y, -b) + hinge_values(y, q)) * (q + b)
               - 2.0 * b * hinge_values(y, 0.0))
        return np.where(b == a, row, np.where(a == INF, INF, 0.0))

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


@_quiet
def example_phi_convexity_certificate(phi, f, grid, tol=1e-8):
    """Second-derivative certificate for the profile-integral operator.

    On a uniform grid, both finite-difference summands of the output's
    second derivative are reported:

        phi''(t) (f(phi(t)) + f(-phi(t)) - 2 f(0))      curvature term,
        (phi'(t))^2 (f'(phi(t)) - f'(-phi(t)))          slope-gap term.

    Convexity of phi and f makes both non-negative up to discretization. f
    must be finite (else InfiniteSlope), and phi finite on the grid (else
    BadShape).
    """
    _finite_pwl(f)
    grid = np.asarray(grid, dtype=float)
    h = np.diff(grid)
    if grid.size < 3 or np.max(np.abs(h - h[0])) > 1e-12:
        raise BadShape("grid must be uniform with at least 3 points")
    h = float(h[0])
    p = phi.eval_many(grid)
    if not np.isfinite(p).all():
        raise BadShape("phi must be finite on the grid")
    pm, a, pp = p[:-2], p[1:-1], p[2:]
    ddphi = (pp - 2.0 * a + pm) / (h * h)
    dphi = (pp - pm) / (2.0 * h)
    fa, fb, f0 = np.split(f.eval_many(np.concatenate((a, -a, [0.0]))), [a.size, 2 * a.size])
    da, db = np.split(_slopes(f, np.concatenate((a, -a)), "right"), 2)  # f'(a), right slopes
    return PhiConvexityReport(grid=grid[1:-1], term_curvature=ddphi * (fa + fb - 2.0 * f0),
                              term_slopes=dphi * dphi * (da - db), tol=tol)


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

    def kernel_table(self, X, ys):
        """[[self(pwl_hinge(y), x) for y in ys] for x in X]: g(x) zeta(|y|) on
        |y| <= radius, g read once per x and zeta once per y."""
        y = np.asarray(ys, dtype=float)
        z = [self.zeta(abs(v)) if abs(v) <= self.support_radius else 0.0 for v in y.flat]
        g = np.array([self.g(x) for x in X.tolist()])[:, None]
        return g * (0.0 + np.array(z, dtype=float).reshape(y.shape))  # 0.0 + as in _total

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
