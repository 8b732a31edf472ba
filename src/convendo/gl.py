"""The linearly equivariant additive operator family and whole-space maps.

A :class:`GlEndo` is the pair (c, nu) of a real constant and a compactly
supported non-negative atomic measure on R with no mass at 0. It acts on a
convex function f that is finite near the origin by

    (c, nu) f [x] = c f(0) + sum_i w_i (f(s_i x) - f(0)) / s_i^2 .

The value is finite when the support [a, b] of nu scaled along the ray of x
stays inside the interior of the domain of f; it is +inf when the scaled
support leaves the closed domain; on the boundary the value is the radial
limit, approximated by evaluating at lambda * x for lambda -> 1 from below.

:class:`ScaleComposeMap` is f -> lam * f(mu x), defined for every convex f
with no finiteness restriction at the origin.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BadShape, OriginNotInDomain
from .extreal import EDGE_TOL, INF, RADIAL_LIMIT
from .expr import (Affine, Norm, Max, Sum, as_expr, as_point_block, expr_eval,
                   expr_eval_many, ray_domain, ray_domain_many, row_blocks)
from .measures import LineMeasure, moment_abs, moment_signed, support_bounds
from .pwl import PwlFunction

# Radial steps lambda = 1 - 2^-k, k = 1..BOUNDARY_STEPS, that
# gl_eval_detailed reports toward a boundary point; the last is RADIAL_LIMIT.
BOUNDARY_STEPS = 40


@dataclass(frozen=True)
class GlEndo:
    """Operator data (c, nu) acting in ambient dimension n.

    ``e(f, x)`` is the value at one point and ``e.eval_many(f, X)`` the values
    at the rows of a (k, n) array.
    """

    c: float
    nu: LineMeasure
    n: int

    def __post_init__(self):
        for s, w in self.nu.atoms:
            if s == 0.0 and w > 0:
                raise BadShape("nu must not charge 0")

    def __call__(self, f, x):
        """The value at x. A bare PwlFunction (n == 1) is summed atom by atom
        without the case split of ``gl_eval``: an atom outside the domain
        gives +inf and a point on its boundary takes the value there. That
        cheaper sum carries every psi evaluation of an extracted gl kernel."""
        if isinstance(f, PwlFunction) and self.n == 1:
            f0 = f(0.0)
            if f0 == INF:
                raise OriginNotInDomain("f(0) must be finite")
            return _atom_sum(self, f, x, f0)
        return gl_eval(self, as_expr(f, self.n), x)

    def eval_many(self, f, X):
        return gl_eval_many(self, as_expr(f, self.n), X)

    def as_endomap_1d(self):
        return self


def _atom_sum(e, f, x, f0):
    total = e.c * f0
    for s, w in e.nu.atoms:
        if w == 0.0:
            continue
        fv = f(s * x)
        if fv == INF:
            return INF
        total += w * (fv - f0) / (s * s)
    return total


def gl_eval(e, f, x):
    """Evaluate the operator; see module docstring for the case split."""
    value, _ = gl_eval_detailed(e, f, x)
    return value


def gl_eval_detailed(e, f, x):
    """Like gl_eval but also reports which case fired.

    The report is a dict with key ``case`` in {"origin", "interior",
    "exterior", "boundary"}; for the boundary case it carries the sampled
    radial values and whether their tail was monotone (the limit exists
    along the ray by convexity, so a non-monotone tail signals a numerical
    problem rather than a mathematical one).
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    f0 = expr_eval(f, np.zeros(x.size))
    if f0 == INF:
        raise OriginNotInDomain("f(0) must be finite")
    if not np.any(x):
        return e.c * f0, {"case": "origin"}
    if len(e.nu) == 0:
        return e.c * f0, {"case": "interior"}

    a, b = support_bounds(e.nu)
    lo, hi = ray_domain(f, x)
    if a > lo + EDGE_TOL and b < hi - EDGE_TOL:
        return _atom_sum(e, f, x, f0), {"case": "interior"}
    if a < lo - EDGE_TOL or b > hi + EDGE_TOL:
        return INF, {"case": "exterior"}

    # boundary: radial limit along lambda -> 1 from below
    vals = []
    for k in range(1, BOUNDARY_STEPS + 1):
        lam = 1.0 - 2.0 ** (-k)
        vals.append(_atom_sum(e, f, lam * x, f0))
    tail = vals[-6:]
    monotone = all(v2 >= v1 - 1e-9 for v1, v2 in zip(tail, tail[1:])) or \
        all(v2 <= v1 + 1e-9 for v1, v2 in zip(tail, tail[1:]))
    return vals[-1], {"case": "boundary", "radial_values": vals,
                      "tail_monotone": monotone}


def _atom_sum_many(e, f, X, f0):
    # +inf absorbs the finite terms, as the early return of _atom_sum does
    total = np.full(len(X), e.c * f0)
    for s, w in e.nu.atoms:
        total += w * (expr_eval_many(f, s * X) - f0) / (s * s)
    return total


def gl_eval_many(e, f, X):
    """``gl_eval`` at every row of a (k, n) array; returns (k,) floats.

    Points are classified a block at a time with the comparisons of
    ``gl_eval_detailed``, and each atom is summed over the whole block. A
    boundary point takes the value ``gl_eval`` returns, the last radial step
    lambda = RADIAL_LIMIT; the earlier steps only feed the detailed report.
    Every row repeats the arithmetic of the point path.
    """
    X = as_point_block(X, e.n)
    f0 = expr_eval(f, np.zeros(e.n))
    if f0 == INF:
        raise OriginNotInDomain("f(0) must be finite")
    out = np.full(len(X), e.c * f0)
    if len(e.nu) == 0:
        return out
    a, b = support_bounds(e.nu)
    for rows in row_blocks(len(X)):
        idx = rows.start + np.flatnonzero(X[rows].any(axis=1))
        lo, hi = ray_domain_many(f, X[idx])
        interior = (a > lo + EDGE_TOL) & (b < hi - EDGE_TOL)
        exterior = (a < lo - EDGE_TOL) | (b > hi + EDGE_TOL)
        boundary = ~(interior | exterior)
        out[idx[interior]] = _atom_sum_many(e, f, X[idx[interior]], f0)
        out[idx[exterior]] = INF
        out[idx[boundary]] = _atom_sum_many(e, f, RADIAL_LIMIT * X[idx[boundary]], f0)
    return out


def gl_is_monotone(e, tol=1e-12):
    """True iff the |s|^-2 moment of nu does not exceed c."""
    return moment_abs(e.nu, -2) <= e.c + tol


def gl_is_dually_translation_invariant(e, tol=1e-12):
    """True iff the signed s^-1 moment of nu vanishes."""
    return abs(moment_signed(e.nu, -1)) <= tol


@dataclass(frozen=True)
class ScaleComposeMap:
    """f -> lam * f(mu x); the only extensions to all convex functions."""

    lam: float
    mu_scalar: float
    n: int

    def __post_init__(self):
        if not self.lam > 0:
            raise BadShape("lam must be positive")
        if self.mu_scalar == 0.0:
            raise BadShape("mu must be nonzero")

    def __call__(self, f, x):
        return scale_compose_eval(self, as_expr(f, self.n), x)

    def eval_many(self, f, X):
        return scale_compose_eval_many(self, as_expr(f, self.n), X)


def scale_compose_eval(m, f, x):
    x = np.asarray(x, dtype=float).reshape(-1)
    v = expr_eval(f, m.mu_scalar * x)
    return INF if v == INF else m.lam * v


def scale_compose_eval_many(m, f, X):
    """``scale_compose_eval`` at every row of a (k, n) array."""
    X = as_point_block(X, m.n)
    return m.lam * expr_eval_many(f, m.mu_scalar * X)


def _shifted_norm(n):
    """f(y) = ||y|| - 1, the probe that separates mass near 0 from c."""
    return Sum([Norm(1.0), Affine(np.zeros(n), -1.0)])


def _hinge_norm(n):
    """g(y) = max(0, ||y|| - 1) >= f(y) = ||y|| - 1."""
    return Max([Affine(np.zeros(n), 0.0), _shifted_norm(n)])


def gl_empirical_monotone_search(e, trials=1000, seed=0, tol=1e-12):
    """Search for ordered inputs violating monotonicity.

    Returns None when no violation is found, else a dict with the witness
    pair (f <= g), the point, and both operator values. The deterministic
    family f(y) = ||y|| - 1 <= g(y) = (||y|| - 1)_+ evaluated at radius
    1 / min |s_i| exposes every operator whose mass moment exceeds c, so the
    random phase only corroborates the predicate.
    """
    n = e.n
    f = _shifted_norm(n)
    g = _hinge_norm(n)
    if len(e.nu) > 0:
        smin = min(abs(s) for s, w in e.nu.atoms if w > 0)
        radii = [1.0 / smin, 2.0 / smin, 4.0 / smin, 1.0, 2.0, 8.0]
    else:
        radii = [1.0, 2.0, 8.0]
    for r in radii:
        x = np.zeros(n)
        x[0] = r
        vf = gl_eval(e, f, x)
        vg = gl_eval(e, g, x)
        if vf > vg + tol:
            return {"f": f, "g": g, "x": x, "value_f": vf, "value_g": vg}

    from .rand import random_finite_expr, random_nonneg_expr
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        base = random_finite_expr(rng, n)
        ga = Sum([base, random_nonneg_expr(rng, n)])
        x = rng.uniform(-2.0, 2.0, size=n)
        vf = gl_eval(e, base, x)
        vg = gl_eval(e, ga, x)
        if vf > vg + 1e-9 * max(1.0, abs(vf), abs(vg)):
            return {"f": base, "g": ga, "x": x, "value_f": vf, "value_g": vg}
    return None
