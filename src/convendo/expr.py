"""Convex functions on R^n as expression trees.

Leaves are affine functions, multiples of ||x||^2 and ||x||, closed-ball
indicators and one-dimensional piecewise-linear profiles composed with a
linear functional. Nodes are sums, maxima, non-negative scalings and
precompositions with invertible matrices. Every tree evaluates to a value in
(-inf, +inf] and represents a convex, lower semi-continuous function by
construction.

Every node evaluates a block of points, one per row of a (k, n) array
(``_eval_batch``, ``_ray_interval_batch``, and ``f.eval_many(X)`` on them);
this is the one evaluation path.
The one-point names ``f(x)``, ``expr_eval`` and ``ray_domain`` evaluate a
block of one row. The per-point reference the block path is tested against
lives in tests/test_batch.py. Coefficients must be finite.
"""

import math

import numpy as np

from .errors import BadShape, DimensionMismatch, NegativeScale, OriginNotInDomain, ZeroVector
from .extreal import INF
from .pwl import PwlFunction, is_even

# Most rows one block call evaluates; callers that expand points into many
# tree points (orbit quadrature, atoms) size their blocks by it too, so
# transient memory does not grow with the number of points.
BLOCK = 8192

# The least normal float: a smaller ||x||^2 has lost digits to underflow.
_TINY = np.finfo(float).tiny


class ConvexExpr:
    """Base class; subclasses implement ``_eval_batch`` on (k, n) blocks, and
    ``_ray_interval_batch`` unless they are finite on every line."""

    dim = None  # ambient dimension, or None when any dimension fits

    def __call__(self, x):
        return expr_eval(self, x)

    def eval_many(self, X):
        """The value at every row of a (k, n) array; (k,) floats.

        ``expr_eval(f, x)`` is the block of the one row x.
        """
        return self._eval_rows(as_point_block(X, self.dim))

    def _eval_rows(self, X):
        """``_eval_batch`` on checked rows, at most BLOCK at a time."""
        out = np.empty(len(X))
        for rows in row_blocks(len(X)):
            out[rows] = self._eval_batch(X[rows])
        return out

    def _ray_interval_batch(self, X):
        """The open interval (lo, hi) of { s in R : f(s x) < inf } at every
        row x, as two arrays (lo >= hi is empty): here the whole line."""
        k = len(X)
        return (np.full(k, -INF), np.full(k, INF))


class Affine(ConvexExpr):
    def __init__(self, a, b):
        self.a = _finite(a, "affine coefficients").reshape(-1)
        self.a.flags.writeable = False
        self._zeros = not self.a.all()
        self.b = float(_finite(b, "affine offset"))
        self.dim = self.a.size

    def _eval_batch(self, X):
        return _rowdot(X, self.a, self._zeros) + self.b


class Quad(ConvexExpr):
    """x -> c * ||x||^2 with c >= 0."""

    def __init__(self, c):
        self.c = float(_finite(c, "quadratic coefficient"))
        if self.c < 0:
            raise NegativeScale("quadratic coefficient must be >= 0")

    def _eval_batch(self, X):
        return self.c * sqnorms(X)


class Norm(ConvexExpr):
    """x -> c * ||x|| with c >= 0."""

    def __init__(self, c):
        self.c = float(_finite(c, "norm coefficient"))
        if self.c < 0:
            raise NegativeScale("norm coefficient must be >= 0")

    def _eval_batch(self, X):
        return self.c * norms(X)


class BallIndicator(ConvexExpr):
    """0 on the closed ball of radius r, +inf outside."""

    def __init__(self, r):
        self.r = float(r)
        if not self.r > 0:
            raise BadShape("ball radius must be positive")

    def _eval_batch(self, X):
        sq, r2 = sqnorms(X), self.r * self.r
        inside = sq <= r2
        # where ||x||^2 or r^2 is not a normal float, the norms decide
        odd = ~((sq >= _TINY) & (sq < INF)) | (not _TINY <= r2 < INF)
        if odd.any():
            inside[odd] = norms(X[odd]) <= self.r
        return np.where(inside, 0.0, INF)

    def _ray_interval_batch(self, X):
        hi = self.r / norms(X)
        return (-hi, hi)


class Pwl1D(ConvexExpr):
    """x -> p(<direction, x>) for a 1D convex profile p."""

    def __init__(self, p, direction):
        if not isinstance(p, PwlFunction):
            raise BadShape("profile must be a PwlFunction")
        self.p = p
        self.direction = _finite(direction, "direction").reshape(-1)
        self.direction.flags.writeable = False
        self._zeros = not self.direction.all()
        if not self.direction.any():
            raise ZeroVector("direction must be nonzero")
        self.dim = self.direction.size

    def _eval_batch(self, X):
        return self.p.eval_many(_rowdot(X, self.direction, self._zeros))

    def _ray_interval_batch(self, X):
        alpha = _rowdot(X, self.direction, self._zeros)
        lo, hi = self.p.domain
        zero = alpha == 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            a, b = lo / alpha, hi / alpha
        pos = alpha > 0
        out_lo, out_hi = np.where(pos, a, b), np.where(pos, b, a)
        at_zero = (-INF, INF) if self.p(0.0) < INF else (0.0, 0.0)
        out_lo[zero], out_hi[zero] = at_zero
        return (out_lo, out_hi)


class RadialPwl(ConvexExpr):
    """x -> p(||x||) for an even convex 1D profile p.

    Evenness and convexity of p make the composition convex. Not part of
    the JSON schema; it exists for fast rotation-invariant inputs (a max of
    norm-plus-constant terms represents the same function but evaluates in
    linear time instead of logarithmic).
    """

    def __init__(self, p):
        if not isinstance(p, PwlFunction):
            raise BadShape("profile must be a PwlFunction")
        if not is_even(p):
            raise BadShape("profile must be even")
        self.p = p

    def _eval_batch(self, X):
        return self.p.eval_many(norms(X))

    def _ray_interval_batch(self, X):
        hi = self.p.domain[1]
        if hi == INF:
            return super()._ray_interval_batch(X)
        hi = hi / norms(X)
        return (-hi, hi)


class _Terms(ConvexExpr):
    """A node over a non-empty list of terms of one dimension, finite on a
    ray where every term is; ``word`` names it in messages."""

    word = None

    def __init__(self, terms):
        self.terms = list(terms)
        if not self.terms:
            raise BadShape(f"{self.word} needs at least one term")
        dims = {t.dim for t in self.terms} - {None}
        if len(dims) > 1:
            raise DimensionMismatch("child dimensions disagree")
        self.dim = dims.pop() if dims else None

    def _ray_interval_batch(self, X):
        lo, hi = self.terms[0]._ray_interval_batch(X)
        for t in self.terms[1:]:
            a, b = t._ray_interval_batch(X)
            np.maximum(lo, a, out=lo)
            np.minimum(hi, b, out=hi)
        return (lo, hi)


class Sum(_Terms):
    word = "sum"

    def _eval_batch(self, X):
        # +inf absorbs every finite summand, so no mask is needed
        total = np.zeros(len(X))
        for t in self.terms:
            total += t._eval_batch(X)
        return total


class Max(_Terms):
    word = "max"

    def _eval_batch(self, X):
        out = self.terms[0]._eval_batch(X)
        for t in self.terms[1:]:
            np.maximum(out, t._eval_batch(X), out=out)
        return out


class Scale(ConvexExpr):
    """lam * f with lam >= 0; the domain is kept when lam == 0."""

    def __init__(self, lam, term):
        self.lam = float(_finite(lam, "scale factor"))
        if self.lam < 0:
            raise NegativeScale("scale factor must be >= 0")
        self.term = term
        self.dim = term.dim

    def _eval_batch(self, X):
        v = self.term._eval_batch(X)
        v[v != INF] *= self.lam
        return v

    def _ray_interval_batch(self, X):
        return self.term._ray_interval_batch(X)


class Precompose(ConvexExpr):
    """x -> f(M x) for invertible M; houses the linear group action."""

    def __init__(self, matrix, term):
        self.matrix = _finite(matrix, "matrix")
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise BadShape("matrix must be square")
        if np.linalg.slogdet(self.matrix)[0] == 0:  # a sign free of the scale of M
            raise BadShape("matrix must be invertible")
        self.matrix.flags.writeable = False
        self.term = term
        n = self.matrix.shape[0]
        if term.dim is not None and term.dim != n:
            raise DimensionMismatch(f"matrix is {n}x{n} but term has dim {term.dim}")
        self.dim = n

    def _eval_batch(self, X):
        return self.term._eval_batch(self._apply(X))

    def _ray_interval_batch(self, X):
        return self.term._ray_interval_batch(self._apply(X))

    def _apply(self, X):
        """Rows M x, each computed as a 2-D by 1-D ``M @ x``."""
        return np.matmul(self.matrix, X[:, :, None])[:, :, 0]


def _finite(value, what):
    """``value`` as a float array, refused unless every entry is finite."""
    v = np.array(value, dtype=float)
    if not np.isfinite(v).all():
        raise BadShape(f"{what} must be finite")
    return v


def _rowdot(X, a, zeros):
    """<a, x> for every row x of X; ``zeros`` says whether a has a zero entry.

    A stack of 1 x n by n x 1 products runs the inner loop of a 1-D
    ``a @ x``, so each value equals that dot product bit for bit; ``X @ a``
    sums in another order and differs in the last bit on many rows. A zero
    coefficient contributes 0 at an infinite coordinate (not 0 * inf): only
    rows where that made a nan are summed again with those terms dropped.
    """
    out = np.matmul(X[:, None, :], a)[:, 0]
    if zeros and math.isnan(np.dot(out, out)):  # a sum of squares is nan only through a nan
        nan = np.isnan(out)
        out[nan] = np.matmul(np.where(a != 0.0, X[nan], 0.0)[:, None, :], a)[:, 0]
    return out


def sqnorms(X):
    """||x||^2 for every row x of X, bitwise equal to a 1-D ``x @ x``."""
    return np.matmul(X[:, None, :], X[:, :, None])[:, 0, 0]


def norms(X):
    """||x|| for every row x of X: ``sqrt(sqnorms(X))`` where ||x||^2 is a
    normal float, and where it overflows or underflows, the norm of the row
    divided by its largest |coordinate|, times that coordinate."""
    sq = sqnorms(X)
    out = np.sqrt(sq)
    # the square of the zero block, which most operator calls read f at, is below _TINY too
    if sq.max(initial=0.0) == INF or (sq.min(initial=INF) < _TINY and X.any()):
        i = np.flatnonzero(~((sq >= _TINY) & (sq < INF)))
        m = np.abs(X[i]).max(axis=1, initial=0.0)
        ok = (m > 0.0) & (m < INF)  # a zero row and an infinite coordinate read right already
        i, m = i[ok], m[ok]
        out[i] = m * np.sqrt(sqnorms(X[i] / m[:, None]))
    return out


def expr_eval(f, x):
    """Evaluate a ConvexExpr at a point; returns a float (possibly +inf)."""
    return float(f.eval_many(np.reshape(x, (1, -1)))[0])


def as_point_block(X, dim):
    """X as a float (k, n) array whose n is ``dim`` (any n when None); a nan
    coordinate is refused, infinite ones are points at infinity."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise BadShape("points must form a (k, n) array")
    if dim is not None and dim != X.shape[1]:
        raise DimensionMismatch(f"expected dim {dim}, points have dim {X.shape[1]}")
    if np.isnan(X).any():
        raise BadShape("cannot evaluate at nan")
    return X


def row_blocks(k, size=BLOCK):
    """Slices of at most ``size`` rows covering range(k)."""
    return [slice(i, min(i + size, k)) for i in range(0, k, size)]


def ray_domain(f, x):
    """Interior of { s in R : f(s x) < inf } for nonzero x."""
    X = as_point_block(np.reshape(x, (1, -1)), f.dim)
    if not X.any():
        raise ZeroVector("ray directions must be nonzero")
    lo, hi = f._ray_interval_batch(X)
    return (float(lo[0]), float(hi[0]))


def operator_input(f, X, n):
    """(f, X, f(0)) for an operator on R^n needing f(0) finite: f and X checked once,
    by ``as_expr`` and ``as_point_block``, and f(0) read from an unchecked zero row."""
    f = as_expr(f, n)
    X = as_point_block(X, n)
    f0 = float(f._eval_batch(np.zeros((1, n)))[0])
    if f0 == INF:
        raise OriginNotInDomain("f(0) must be finite")
    return f, X, f0


def operator_output(out, X):
    """An operator's values ``out`` at the rows of X, refused if one is nan: no
    tree reads nan at a nan-free point, so a scaled copy of it left the float range."""
    if math.isnan(out.min(initial=0.0)):  # min carries a nan through
        raise BadShape(f"cannot evaluate at {X[np.isnan(out)][0].tolist()}: "
                       "a scaled point leaves the float range")
    return out


def as_expr(f, n):
    """The input of an operator on R^n as a ConvexExpr, checked once per call.

    A bare PwlFunction is the profile ``Pwl1D(f, [1.0])`` when n == 1 and is
    refused otherwise; a tree must have dimension n, or none.
    """
    if isinstance(f, PwlFunction):
        if n != 1:
            raise BadShape("a bare pwl function fits only 1-dimensional operators")
        return Pwl1D(f, [1.0])
    if f.dim is not None and f.dim != n:
        raise DimensionMismatch(f"expected dim {f.dim}, points have dim {n}")
    return f
