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

Both evaluate trees only in blocks of points (``e.eval_many(f, X)``);
``gl_eval``, ``gl_eval_detailed`` and ``scale_compose_eval`` are blocks of
one row. The per-point reference the blocks are tested against lives in
tests/test_batch.py.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadShape
from .extreal import INF, RADIAL_LIMIT, edge_split
from .expr import (BLOCK, Affine, Norm, Max, Sum, as_expr, as_point_block, operator_input,
                   operator_output, row_blocks)
from .measures import LineMeasure, moment_abs, moment_signed, support_bounds
from .pwl import _quiet, hinge_values
from .rand import random_finite_expr, random_nonneg_expr

# Radial steps lambda = 1 - 2^-k, k = 1..40, that gl_eval_detailed reports
# toward a boundary point; the last is RADIAL_LIMIT.
BOUNDARY_STEPS = np.array([1.0 - 2.0 ** -k for k in range(1, 41)])

# The cases of a point, indexed by the codes below.
CASES = ("origin", "interior", "exterior", "boundary")
ORIGIN, INTERIOR, EXTERIOR, BOUNDARY = range(4)


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
        if not math.isfinite(self.c):
            raise BadShape("c must be finite")
        if 0.0 in self.nu.positions:
            raise BadShape("nu must not charge 0")

    def __call__(self, f, x):
        return gl_eval(self, f, x)

    @_quiet
    def eval_many(self, f, X):
        """The operator at every row of a (k, n) array; returns (k,) floats."""
        f, X, f0 = operator_input(f, X, self.n)
        out = np.empty(len(X))
        for rows in row_blocks(len(X), max(1, BLOCK // max(1, len(self.nu)))):
            out[rows] = _block_values(self, f, X[rows], f0)[1]
        return operator_output(out, X)

    def kernel_row(self, x, ys):
        """[self(pwl_hinge(y), x) for y in ys] (n == 1), atom by atom as
        ``_atom_sum_many``; the origin takes c f(0) alone."""
        y = _hinge_ys(self, ys)
        f0 = hinge_values(y, 0.0)
        total = self.c * f0
        if x == 0.0:
            return total
        for s, w in self.nu.atoms:  # weights are > 0
            total = total + w * (hinge_values(y, s * x) - f0) / (s * s)
        return total

    def as_endomap_1d(self):
        return self


def _hinge_ys(op, ys):
    """ys as an array; hinges, like any bare pwl input, fit only n == 1."""
    if op.n != 1:
        raise BadShape("a bare pwl function fits only 1-dimensional operators")
    return np.asarray(ys, dtype=float)


def gl_eval(e, f, x):
    """Evaluate the operator; see module docstring for the case split."""
    return float(e.eval_many(f, np.reshape(x, (1, -1)))[0])


@_quiet
def gl_eval_detailed(e, f, x):
    """Like gl_eval but also reports which case fired.

    The report is a dict with key ``case`` in CASES; for the boundary case it
    carries the radial values at all BOUNDARY_STEPS, the last of which is
    the value, and whether their tail was monotone (the limit exists along
    the ray by convexity, so a non-monotone tail signals a numerical problem
    rather than a mathematical one).
    """
    f, X, f0 = operator_input(f, np.reshape(x, (1, -1)), e.n)
    case, value = _block_values(e, f, X, f0)
    report = {"case": CASES[case[0]]}
    if case[0] == BOUNDARY:
        vals = _atom_sum_many(e, f, BOUNDARY_STEPS[:, None] * X, f0)
        t = vals[-6:]
        report.update(radial_values=vals.tolist(), tail_monotone=bool(
            (t[1:] >= t[:-1] - 1e-9).all() or (t[1:] <= t[:-1] + 1e-9).all()))
    return float(value[0]), report


def _block_values(e, f, X, f0):
    """Case codes and values at a block of at most BLOCK / len(nu) validated rows.

    Nonzero x is interior or exterior when the support [a, b] of nu lies
    inside, or leaves, the ray domain (lo, hi) of f along x by more than
    EDGE_TOL; a boundary point takes the last radial step, RADIAL_LIMIT.
    """
    case = np.where(X.any(axis=1), INTERIOR, ORIGIN)
    out = np.full(len(X), e.c * f0)
    rows = np.flatnonzero(case)
    if len(e.nu) == 0 or len(rows) == 0:
        return case, out
    a, b = support_bounds(e.nu)
    interior, exterior = edge_split(a, b, *f._ray_interval_batch(X[rows]))
    case[rows] = np.where(interior, INTERIOR, np.where(exterior, EXTERIOR, BOUNDARY))
    out[rows[exterior]] = INF
    rows, lam = rows[~exterior], np.where(interior, 1.0, RADIAL_LIMIT)[~exterior]
    if len(rows):
        out[rows] = _atom_sum_many(e, f, lam[:, None] * X[rows], f0)
    return case, out


def _atom_sum_many(e, f, X, f0):
    """The atom sum at every row x of X, with the tree evaluated once on the
    stacked rows s_i x; X has at most BLOCK / len(nu) rows."""
    s = np.array(e.nu.positions)
    V = f._eval_batch((s[:, None, None] * X).reshape(-1, X.shape[1]))
    total = np.full(len(X), e.c * f0)
    # +inf absorbs the finite terms
    for (s, w), v in zip(e.nu.atoms, V.reshape(len(s), len(X))):
        total += w * (v - f0) / (s * s)
    return total


def gl_is_monotone(e):
    """True iff the |s|^-2 moment of nu does not exceed c (within 1e-12)."""
    return moment_abs(e.nu, -2) <= e.c + 1e-12


def gl_is_dually_translation_invariant(e):
    """True iff the signed s^-1 moment of nu vanishes (within 1e-12)."""
    return abs(moment_signed(e.nu, -1)) <= 1e-12


@dataclass(frozen=True)
class ScaleComposeMap:
    """f -> lam * f(mu x); the only extensions to all convex functions."""

    lam: float
    mu_scalar: float
    n: int

    def __post_init__(self):
        if not (math.isfinite(self.lam) and math.isfinite(self.mu_scalar)):
            raise BadShape("lam and mu must be finite")
        if not self.lam > 0:
            raise BadShape("lam must be positive")
        if self.mu_scalar == 0.0:
            raise BadShape("mu must be nonzero")

    def __call__(self, f, x):
        return scale_compose_eval(self, f, x)

    @_quiet
    def eval_many(self, f, X):
        """lam * f(mu x) at every row x of a (k, n) array."""
        f = as_expr(f, self.n)
        X = as_point_block(X, self.n)
        return operator_output(self.lam * f._eval_rows(self.mu_scalar * X), X)

    def kernel_row(self, x, ys):
        """[self(pwl_hinge(y), x) for y in ys] for n == 1: lam (y - mu x)_+."""
        y = _hinge_ys(self, ys)
        return self.lam * hinge_values(y, self.mu_scalar * x)


def scale_compose_eval(m, f, x):
    return float(m.eval_many(f, np.reshape(x, (1, -1)))[0])


def gl_empirical_monotone_search(e, trials=1000, seed=0):
    """Search for ordered inputs violating monotonicity.

    Returns None when no violation is found, else a dict with the witness
    pair (f <= g), the point, and both operator values. The deterministic
    family f(y) = ||y|| - 1 <= g(y) = (||y|| - 1)_+ evaluated at radius
    1 / min |s_i| exposes every operator whose mass moment exceeds c, so the
    random phase only corroborates the predicate.
    """
    n = e.n
    f = Sum([Norm(1.0), Affine(np.zeros(n), -1.0)])  # separates mass near 0 from c
    g = Max([Affine(np.zeros(n), 0.0), f])
    if len(e.nu) > 0:
        smin = min(map(abs, e.nu.positions))
        radii = [1.0 / smin, 2.0 / smin, 4.0 / smin, 1.0, 2.0, 8.0]
    else:
        radii = [1.0, 2.0, 8.0]
    for r in radii:
        x = np.zeros(n)
        x[0] = r
        vf = gl_eval(e, f, x)
        vg = gl_eval(e, g, x)
        if vf > vg + 1e-12:
            return {"f": f, "g": g, "x": x, "value_f": vf, "value_g": vg}

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
