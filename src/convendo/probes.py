"""Diagnostics for convexity, epi-convergence and operator well-definedness.

The probes take functions by protocol, not by type: ``f(x)`` evaluates one
point and ``f.eval_many(X)`` a block of them, which exact piecewise-linear
functions and expression trees both provide. ``is_convex_block`` and
``gw_probe`` evaluate blocks; ``is_convex_sampled`` and
``epi_converges_probe`` call opaque evaluators one point at a time.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import BadShape, PerturbationNotConvex
from .expr import ConvexExpr, Sum
from .pwl import PwlFunction, pwl_add


def is_convex_block(F, grid, tol=1e-9):
    """Midpoint convexity certificate on a sampled grid, in two block calls.

    ``F`` maps a 1-D array of samples to the array of their values. Checks
    F((a+b)/2) <= (F(a)+F(b))/2 + tol for every grid pair whose endpoint
    values are finite. The tolerance is scaled by the magnitude of the finite
    values seen. Pairs with an infinite midpoint but finite endpoints count
    as violations. ``F`` sees the grid once and then each distinct midpoint
    once; midpoints are told apart by their bit pattern, so dropping the
    repeats changes no value.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.size < 3:
        raise BadShape("grid needs at least 3 points")
    vals = np.asarray(F(grid), dtype=float)
    finite = np.isfinite(vals)
    if finite.sum() == 0:
        return True
    eff = tol * max(1.0, float(np.abs(vals[finite]).max()))
    idx = np.nonzero(finite)[0]
    i, j = idx[np.array(np.triu_indices(len(idx), 1))]
    mids, inv = np.unique(((grid[i] + grid[j]) / 2.0).view(np.int64), return_inverse=True)
    fm = np.asarray(F(mids.view(float)), dtype=float)[inv]
    # an infinite midpoint lies above every finite chord
    return not np.any(fm > (vals[i] + vals[j]) / 2.0 + eff)


def is_convex_sampled(f, grid, tol=1e-9):
    """``is_convex_block`` for an opaque callable ``f`` of one sample."""
    return is_convex_block(lambda T: [f(t) for t in T], grid, tol)


@dataclass
class EpiReport:
    """Sup-distances per compact per index from epi_converges_probe."""

    indices: list
    compacts: list
    sup_dists: list = field(default_factory=list)  # one array per compact
    tol: float = 0.0

    @property
    def passed(self):
        return all(d[-1] <= self.tol for d in self.sup_dists)


def _box_grid(box):
    box = np.atleast_2d(np.asarray(box, dtype=float))
    mesh = np.meshgrid(*[np.linspace(lo, hi, 33) for lo, hi in box], indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def epi_converges_probe(seq, f, compacts, tol=1e-6, j_max=16):
    """Uniform-on-compacts convergence check for an indexed family.

    ``seq(j)`` must return an evaluator for index j = 1..j_max. Each compact
    is a box given as [(lo, hi), ...] per coordinate (a bare (lo, hi) pair is
    treated as one-dimensional). Only points where ``f`` is finite are
    sampled, so the boxes must avoid the boundary of the limit's domain.
    """
    indices = list(range(1, j_max + 1))
    report = EpiReport(indices=indices, compacts=list(compacts), tol=tol)
    for box in compacts:
        pts = [p if p.size > 1 else float(p[0]) for p in _box_grid(box)]
        fvals = np.array([f(p) for p in pts])
        mask = np.isfinite(fvals)
        dists = []
        for j in indices:
            fj = seq(j)
            fjvals = np.array([fj(p) for p, finite in zip(pts, mask) if finite])
            dists.append(float(np.max(np.abs(fjvals - fvals[mask]))))
        report.sup_dists.append(np.array(dists))
    return report


def combine(f, g):
    """Pointwise sum in whichever representation f and g share."""
    if isinstance(f, PwlFunction) and isinstance(g, PwlFunction):
        return pwl_add(f, g)
    if isinstance(f, ConvexExpr) and isinstance(g, ConvexExpr):
        return Sum([f, g])
    raise TypeError("cannot combine %r with %r" % (type(f), type(g)))


# the samples of the midpoint test in gw_probe, along each line
CHECK_GRID = np.linspace(-3.0, 3.0, 41)


def gw_probe(endo, x, phi_plus, phi_minus, base, tol=1e-9, lines=None):
    """Goodey-Weil value of an operator on a test perturbation.

    ``phi_plus - phi_minus`` is the perturbation phi; both parts must be
    convex and agree outside a bounded set. ``base`` is a pair (f1, f2) of
    distinct convex functions with f_i + phi convex; this is certified by a
    sampled midpoint test before evaluating, on the 41 points ``CHECK_GRID`` of
    [-3, 3] or, when ``lines`` lists (base point, direction) pairs, at those
    parameters along each of the lines.
    The functions are evaluated a block at a time by ``eval_many``: 1-D
    profiles take an array of samples, trees a (k, n) array of points. By
    additivity the probe value endo(f + phi)[x] - endo(f)[x] equals
    endo(f + phi_plus)[x] - endo(f + phi_minus)[x], which is what is
    computed, so only convex arguments are ever built.

    Returns ``(value, consistent)`` where ``consistent`` is True when the
    value computed from f2 agrees with the one from f1 within tol. Agreement
    is the well-definedness of the probe: the value must not depend on the
    base function.
    """
    f1, f2 = base
    if lines is None:
        places = [lambda T: T]
    else:
        places = [lambda T, b=np.asarray(b), d=np.asarray(d): b + T[:, None] * d
                  for b, d in lines]
    for f in (f1, f2):
        for at in places:
            def perturbed(T):
                X = at(T)
                return f.eval_many(X) + phi_plus.eval_many(X) - phi_minus.eval_many(X)
            if not is_convex_block(perturbed, CHECK_GRID, tol=1e-7):
                raise PerturbationNotConvex("base plus perturbation fails the midpoint test")

    def value(f):
        return endo(combine(f, phi_plus), x) - endo(combine(f, phi_minus), x)

    v1 = value(f1)
    v2 = value(f2)
    scale = max(1.0, abs(v1), abs(v2))
    return v1, abs(v1 - v2) <= tol * scale
