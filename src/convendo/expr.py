"""Convex functions on R^n as expression trees.

Leaves are affine functions, multiples of ||x||^2 and ||x||, closed-ball
indicators and one-dimensional piecewise-linear profiles composed with a
linear functional. Nodes are sums, maxima, non-negative scalings and
precompositions with invertible matrices. Every tree evaluates to a value in
(-inf, +inf] and represents a convex, lower semi-continuous function by
construction.

Every node evaluates one point (``_eval``, ``_ray_interval``) or a block of
points, one per row of a (k, n) array (``_eval_batch``,
``_ray_interval_batch``). The block methods repeat the arithmetic of the
point methods row by row, so both paths give the same values.
"""

import math

import numpy as np

from .errors import BadShape, DimensionMismatch, NegativeScale, ZeroVector
from .extreal import INF
from .pwl import PwlFunction

# Open interval of the real line; lo >= hi means empty.
FULL_LINE = (-INF, INF)

# Most rows one block call evaluates; callers that expand points into many
# tree points (orbit quadrature, atoms) size their blocks by it too, so
# transient memory does not grow with the number of points.
BLOCK = 8192


class ConvexExpr:
    """Base class; subclasses implement ``_eval``, ``_ray_interval`` and
    their block forms ``_eval_batch`` and ``_ray_interval_batch``."""

    dim = None  # ambient dimension, or None when any dimension fits

    def __call__(self, x):
        return expr_eval(self, x)

    def eval_many(self, X):
        return expr_eval_many(self, X)


class Affine(ConvexExpr):
    def __init__(self, a, b):
        self.a = np.array(a, dtype=float).reshape(-1)
        self.a.flags.writeable = False
        self.b = float(b)
        self.dim = self.a.size

    def _eval(self, x):
        return float(self.a @ x) + self.b

    def _eval_batch(self, X):
        return _rowdot(X, self.a) + self.b

    def _ray_interval(self, x):
        return FULL_LINE

    def _ray_interval_batch(self, X):
        return _full_lines(X)


class Quad(ConvexExpr):
    """x -> c * ||x||^2 with c >= 0."""

    def __init__(self, c):
        self.c = float(c)
        if self.c < 0:
            raise NegativeScale("quadratic coefficient must be >= 0")

    def _eval(self, x):
        return self.c * float(x @ x)

    def _eval_batch(self, X):
        return self.c * _sqnorms(X)

    def _ray_interval(self, x):
        return FULL_LINE

    def _ray_interval_batch(self, X):
        return _full_lines(X)


class Norm(ConvexExpr):
    """x -> c * ||x|| with c >= 0."""

    def __init__(self, c):
        self.c = float(c)
        if self.c < 0:
            raise NegativeScale("norm coefficient must be >= 0")

    def _eval(self, x):
        return self.c * math.sqrt(float(x @ x))

    def _eval_batch(self, X):
        return self.c * np.sqrt(_sqnorms(X))

    def _ray_interval(self, x):
        return FULL_LINE

    def _ray_interval_batch(self, X):
        return _full_lines(X)


class BallIndicator(ConvexExpr):
    """0 on the closed ball of radius r, +inf outside."""

    def __init__(self, r):
        self.r = float(r)
        if not self.r > 0:
            raise BadShape("ball radius must be positive")

    def _eval(self, x):
        return 0.0 if float(x @ x) <= self.r * self.r else INF

    def _eval_batch(self, X):
        return np.where(_sqnorms(X) <= self.r * self.r, 0.0, INF)

    def _ray_interval(self, x):
        nx = math.sqrt(float(x @ x))
        return (-self.r / nx, self.r / nx)

    def _ray_interval_batch(self, X):
        hi = self.r / np.sqrt(_sqnorms(X))
        return (-hi, hi)


class Pwl1D(ConvexExpr):
    """x -> p(<direction, x>) for a 1D convex profile p."""

    def __init__(self, p, direction):
        if not isinstance(p, PwlFunction):
            raise BadShape("profile must be a PwlFunction")
        self.p = p
        self.direction = np.array(direction, dtype=float).reshape(-1)
        self.direction.flags.writeable = False
        n = math.sqrt(float(self.direction @ self.direction))
        if n == 0.0:
            raise ZeroVector("direction must be nonzero")
        self.dim = self.direction.size

    def _eval(self, x):
        return self.p(float(self.direction @ x))

    def _eval_batch(self, X):
        return self.p.eval_many(_rowdot(X, self.direction))

    def _ray_interval(self, x):
        alpha = float(self.direction @ x)
        lo, hi = self.p.domain
        if alpha == 0.0:
            return FULL_LINE if self.p(0.0) < INF else (0.0, 0.0)
        if alpha > 0:
            return (lo / alpha, hi / alpha)
        return (hi / alpha, lo / alpha)

    def _ray_interval_batch(self, X):
        alpha = _rowdot(X, self.direction)
        lo, hi = self.p.domain
        zero = alpha == 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            a, b = lo / alpha, hi / alpha
        pos = alpha > 0
        out_lo, out_hi = np.where(pos, a, b), np.where(pos, b, a)
        at_zero = FULL_LINE if self.p(0.0) < INF else (0.0, 0.0)
        out_lo[zero], out_hi[zero] = at_zero
        return (out_lo, out_hi)


class RadialPwl(ConvexExpr):
    """x -> p(||x||) for an even convex 1D profile p.

    Evenness and convexity of p make the composition convex. Not part of
    the JSON schema; it exists for fast rotation-invariant inputs (a max of
    norm-plus-constant terms represents the same function but evaluates in
    linear time instead of logarithmic).
    """

    def __init__(self, p, check_points=17):
        if not isinstance(p, PwlFunction):
            raise BadShape("profile must be a PwlFunction")
        hi = p.domain[1]
        span = 2.0 if hi == INF else hi
        for t in np.linspace(0.0, span, check_points):
            a, b = p(t), p(-t)
            if a == INF and b == INF:
                continue
            if abs(a - b) > 1e-9 * max(1.0, abs(a)):
                raise BadShape("profile must be even")
        self.p = p

    def _eval(self, x):
        return self.p(math.sqrt(float(x @ x)))

    def _eval_batch(self, X):
        return self.p.eval_many(np.sqrt(_sqnorms(X)))

    def _ray_interval(self, x):
        hi = self.p.domain[1]
        if hi == INF:
            return FULL_LINE
        nx = math.sqrt(float(x @ x))
        return (-hi / nx, hi / nx)

    def _ray_interval_batch(self, X):
        hi = self.p.domain[1]
        if hi == INF:
            return _full_lines(X)
        hi = hi / np.sqrt(_sqnorms(X))
        return (-hi, hi)


class Sum(ConvexExpr):
    def __init__(self, terms):
        self.terms = list(terms)
        if not self.terms:
            raise BadShape("sum needs at least one term")
        self.dim = _consensus_dim(self.terms)

    def _eval(self, x):
        total = 0.0
        for t in self.terms:
            v = t._eval(x)
            if v == INF:
                return INF
            total += v
        return total

    def _eval_batch(self, X):
        # +inf absorbs every finite summand, so no mask is needed
        total = np.zeros(len(X))
        for t in self.terms:
            total += t._eval_batch(X)
        return total

    def _ray_interval(self, x):
        return _intersect(t._ray_interval(x) for t in self.terms)

    def _ray_interval_batch(self, X):
        return _intersect_batch(X, self.terms)


class Max(ConvexExpr):
    def __init__(self, terms):
        self.terms = list(terms)
        if not self.terms:
            raise BadShape("max needs at least one term")
        self.dim = _consensus_dim(self.terms)

    def _eval(self, x):
        return max(t._eval(x) for t in self.terms)

    def _eval_batch(self, X):
        out = self.terms[0]._eval_batch(X)
        for t in self.terms[1:]:
            np.maximum(out, t._eval_batch(X), out=out)
        return out

    def _ray_interval(self, x):
        return _intersect(t._ray_interval(x) for t in self.terms)

    def _ray_interval_batch(self, X):
        return _intersect_batch(X, self.terms)


class Scale(ConvexExpr):
    """lam * f with lam >= 0; the domain is kept when lam == 0."""

    def __init__(self, lam, term):
        self.lam = float(lam)
        if self.lam < 0:
            raise NegativeScale("scale factor must be >= 0")
        self.term = term
        self.dim = term.dim

    def _eval(self, x):
        v = self.term._eval(x)
        return INF if v == INF else self.lam * v

    def _eval_batch(self, X):
        v = self.term._eval_batch(X)
        v[v != INF] *= self.lam
        return v

    def _ray_interval(self, x):
        return self.term._ray_interval(x)

    def _ray_interval_batch(self, X):
        return self.term._ray_interval_batch(X)


class Precompose(ConvexExpr):
    """x -> f(M x) for invertible M; houses the linear group action."""

    def __init__(self, matrix, term):
        self.matrix = np.array(matrix, dtype=float)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise BadShape("matrix must be square")
        if abs(np.linalg.det(self.matrix)) < 1e-300:
            raise BadShape("matrix must be invertible")
        self.matrix.flags.writeable = False
        self.term = term
        n = self.matrix.shape[0]
        if term.dim is not None and term.dim != n:
            raise DimensionMismatch(f"matrix is {n}x{n} but term has dim {term.dim}")
        self.dim = n

    def _eval(self, x):
        return self.term._eval(self.matrix @ x)

    def _eval_batch(self, X):
        return self.term._eval_batch(self._apply(X))

    def _ray_interval(self, x):
        return self.term._ray_interval(self.matrix @ x)

    def _ray_interval_batch(self, X):
        return self.term._ray_interval_batch(self._apply(X))

    def _apply(self, X):
        """Rows M x, each computed as the point path's ``M @ x``."""
        return np.matmul(self.matrix, X[:, :, None])[:, :, 0]


def _consensus_dim(terms):
    dim = None
    for t in terms:
        if t.dim is not None:
            if dim is not None and dim != t.dim:
                raise DimensionMismatch("child dimensions disagree")
            dim = t.dim
    return dim


def _intersect(intervals):
    lo, hi = -INF, INF
    for a, b in intervals:
        lo, hi = max(lo, a), min(hi, b)
    return (lo, hi)


def _intersect_batch(X, terms):
    lo, hi = _full_lines(X)
    for t in terms:
        a, b = t._ray_interval_batch(X)
        np.maximum(lo, a, out=lo)
        np.minimum(hi, b, out=hi)
    return (lo, hi)


def _full_lines(X):
    k = len(X)
    return (np.full(k, -INF), np.full(k, INF))


def _rowdot(X, a):
    """<a, x> for every row x of X.

    A stack of 1 x n by n x 1 products runs the inner loop of a 1-D
    ``a @ x``, so each value equals the point path's bit for bit; ``X @ a``
    sums in another order and differs in the last bit on many rows.
    """
    return np.matmul(X[:, None, :], a)[:, 0]


def _sqnorms(X):
    """||x||^2 for every row x of X, bitwise equal to the point path's."""
    return np.matmul(X[:, None, :], X[:, :, None])[:, 0, 0]


def expr_eval(f, x):
    """Evaluate a ConvexExpr at a point; returns a float (possibly +inf)."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if f.dim is not None and f.dim != x.size:
        raise DimensionMismatch(f"function has dim {f.dim}, point has dim {x.size}")
    return f._eval(x)


def as_point_block(X, dim):
    """X as a float (k, n) array whose n is ``dim`` (any n when None)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise BadShape("points must form a (k, n) array")
    if dim is not None and dim != X.shape[1]:
        raise DimensionMismatch(f"expected dim {dim}, points have dim {X.shape[1]}")
    return X


def row_blocks(k, size=BLOCK):
    """Slices of at most ``size`` rows covering range(k)."""
    return [slice(i, min(i + size, k)) for i in range(0, k, size)]


def expr_eval_many(f, X):
    """Evaluate a ConvexExpr at every row of a (k, n) array; (k,) floats.

    Each value equals ``expr_eval(f, X[i])``, +inf included.
    """
    X = as_point_block(X, f.dim)
    out = np.empty(len(X))
    for rows in row_blocks(len(X)):
        out[rows] = f._eval_batch(X[rows])
    return out


def ray_domain_many(f, X):
    """``ray_domain`` at every row of a (k, n) array of nonzero points.

    Returns the arrays (lo, hi).
    """
    X = as_point_block(X, f.dim)
    if not X.any(axis=1).all():
        raise ZeroVector("ray directions must be nonzero")
    lo, hi = np.empty(len(X)), np.empty(len(X))
    for rows in row_blocks(len(X)):
        lo[rows], hi[rows] = f._ray_interval_batch(X[rows])
    return lo, hi


def ray_domain(f, x):
    """Interior of { s in R : f(s x) < inf } for nonzero x."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if not np.any(x):
        raise ZeroVector("ray direction must be nonzero")
    if f.dim is not None and f.dim != x.size:
        raise DimensionMismatch(f"function has dim {f.dim}, point has dim {x.size}")
    return f._ray_interval(x)


def as_expr(f, n):
    """The input of an operator on R^n as a ConvexExpr.

    A bare PwlFunction is the profile ``Pwl1D(f, [1.0])`` when n == 1 and is
    refused otherwise.
    """
    if not isinstance(f, PwlFunction):
        return f
    if n != 1:
        raise BadShape("a bare pwl function fits only 1-dimensional operators")
    return Pwl1D(f, [1.0])
