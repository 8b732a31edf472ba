"""Monotone operators equivariant under rotations and dilations.

A :class:`RadialEndo` is an orbit measure mu together with a quadrature
resolution. It acts on a convex function f finite near the origin by

    Psi(f)[x] = integral of f(||x|| R_x y) dmu(y),      x != 0,
    Psi(f)[0] = f(0) * mu(R^n),

where R_x is any rotation taking the reference axis e1 to x / ||x||. The
orbit invariance of mu makes the value independent of that choice; the
canonical rotation below pins one down deterministically.

Points are evaluated only in blocks (``e.eval_many(f, X)``, with one
rotation matrix per point); ``radial_eval`` and ``minkowski_restrict`` are
blocks of one and of 2 * len(directions) rows. The per-point reference the
blocks are tested against lives in tests/test_batch.py.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BadShape, NotHomogeneous, UnsupportedDimension, ZeroVector
from .expr import (BLOCK, Affine, Max, as_point_block, norms, operator_input,
                   operator_output, row_blocks)
from .measures import OrbitMeasure, orbit_center, orbit_quadrature, orbit_total_mass
from .pwl import _quiet


@_quiet
def canonical_rotation(x, n):
    """Special orthogonal matrix taking e1 to x / ||x||; see canonical_rotations."""
    return canonical_rotations(as_point_block(np.reshape(x, (1, -1)), n))[0]


def canonical_rotations(X):
    """The canonical rotation of every nonzero row x of a (k, n) block.

    Each is a product of two reflections (through u = x/||x|| and through
    the bisector of e1 and u), which rotates in the plane spanned by the two
    directions and fixes its orthogonal complement. When u[0] < 0 the
    product is taken for -u and composed with the rotation by pi in the
    (e1, e2) coordinate plane. Returns (k, n, n).
    """
    k, n = X.shape
    r = norms(X)
    if not r.all():
        raise ZeroVector("cannot orient the zero vector")
    U = X / r[:, None]
    flip = U[:, 0] < 0.0
    U[flip] = -U[flip]
    # the reflections through u and through u + e1, normalized together;
    # ||u + e1|| >= sqrt(2) on either side, so both are well conditioned, and
    # u == e1 collapses to the identity automatically
    V = np.concatenate([U, U + np.eye(n)[0]])
    V = V / norms(V)[:, None]
    H = np.eye(n) - 2.0 * (V[:, :, None] * V[:, None, :])
    R = np.matmul(H[:k], H[k:])
    if flip.any():
        pi_rot = np.diag([-1.0, -1.0] + [1.0] * (n - 2))
        R[flip] = np.matmul(R[flip], pi_rot)
    return R


@dataclass(frozen=True)
class RadialEndo:
    """Orbit measure mu and quadrature points per orbit.

    ``e(f, x)`` is the value at one point and ``e.eval_many(f, X)`` the values
    at the rows of a (k, n) array.
    """

    mu: OrbitMeasure
    M: int = 64

    def __post_init__(self):
        if not 1 <= self.M <= BLOCK:
            raise BadShape(f"M must be in [1, {BLOCK}]")
        if self.mu.n > 4:
            raise UnsupportedDimension("radial operators support n in {2, 3, 4}")

    @property
    def n(self):
        return self.mu.n

    @cached_property
    def quadrature(self):
        """Nodes (q, n) and weights (q,) of every orbit, in atom order.

        Built on first use and kept with the operator, so each orbit's
        quadrature is computed once however many points are evaluated.
        """
        pairs = [pw for atom in self.mu.atoms for pw in orbit_quadrature(atom, self.n, self.M)]
        nodes = np.array([p for p, _ in pairs]).reshape(-1, self.n)
        weights = np.array([w for _, w in pairs])
        nodes.flags.writeable = weights.flags.writeable = False
        return nodes, weights

    def __call__(self, f, x):
        return radial_eval(self, f, x)

    @_quiet
    def eval_many(self, f, X, rotations=None):
        """The operator at every row x of a (k, n) array, summing f(||x|| R_x p)
        over the quadrature nodes p; +inf where a sample is +inf.

        ``rotations`` (k, n, n) overrides the canonical R_x (each must still
        take e1 to x / ||x||); the value does not depend on the override beyond
        quadrature resolution, which is the orbit-invariance of the measure.
        """
        n = self.n
        f, X, f0 = operator_input(f, X, n)
        nodes, weights = self.quadrature  # every weight is positive
        out = np.full(len(X), f0 * orbit_total_mass(self.mu))
        idx = np.flatnonzero(X.any(axis=1))
        for rows in row_blocks(len(idx), max(1, BLOCK // max(1, len(weights)))):
            i = idx[rows]
            R = canonical_rotations(X[i]) if rotations is None else rotations[i]
            P = np.matmul(R[:, None], nodes[None, :, :, None])[..., 0]
            Y = norms(X[i])[:, None, None] * P
            V = f._eval_batch(Y.reshape(-1, n)).reshape(len(i), len(weights))
            # each row summed left to right from 0.0, a running total over the nodes
            out[i] = np.cumsum(np.column_stack([np.zeros(len(i)), V * weights]), axis=1)[:, -1]
        return operator_output(out, X)


def radial_eval(e, f, x, rotation=None):
    """Evaluate the operator at one point; see RadialEndo.eval_many."""
    R = None if rotation is None else np.asarray(rotation, dtype=float)[None]
    return float(e.eval_many(f, np.reshape(x, (1, -1)), R)[0])


def radial_is_dually_translation_invariant(e):
    """True iff the center of mass of mu vanishes (all components, within 1e-12)."""
    return bool(np.max(np.abs(orbit_center(e.mu)), initial=0.0) <= 1e-12)


def acts_as_scalar_on_radial(e):
    """True iff mu lives on the unit sphere, i.e. every orbit has t = 1
    (within 1e-12).

    In that case the operator multiplies every rotation-invariant input by
    the total mass of mu.
    """
    return all(abs(t - 1.0) <= 1e-12 for t, _, w in e.mu.atoms)


def minkowski_restrict(e, support_fn, directions):
    """Sample the support function of the image body of a polytope.

    ``support_fn`` must be a positively 1-homogeneous expression: a Max of
    linear Affine terms (b == 0), or a single such Affine. Radial
    equivariance keeps the output 1-homogeneous, hence a support function;
    degree-1 homogeneity is verified at each direction, to 1e-9. The restriction
    behaves like a translation-compatible body map only when the operator
    is dually translation-invariant, which is the caller's responsibility
    (the identity, whose orbit measure has nonzero center, is still a
    perfectly good restriction).
    """
    terms = support_fn.terms if isinstance(support_fn, Max) else [support_fn]
    for t in terms:
        if not isinstance(t, Affine) or t.b != 0.0:
            raise NotHomogeneous("support data must be a max of linear functions")
    U = np.asarray(directions, dtype=float)
    v1, v2 = np.split(e.eval_many(support_fn, np.concatenate([U, 2.0 * U])), 2)
    if (np.abs(v2 - 2.0 * v1) > 1e-9 * np.maximum(1.0, np.abs(v1))).any():
        raise NotHomogeneous("sampled image is not 1-homogeneous")
    return v1
