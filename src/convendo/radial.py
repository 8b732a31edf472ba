"""Monotone operators equivariant under rotations and dilations.

A :class:`RadialEndo` is an orbit measure mu together with a quadrature
resolution. It acts on a convex function f finite near the origin by

    Psi(f)[x] = integral of f(||x|| R_x y) dmu(y),      x != 0,
    Psi(f)[0] = f(0) * mu(R^n),

where R_x is any rotation taking the reference axis e1 to x / ||x||. The
orbit invariance of mu makes the value independent of that choice; the
canonical rotation below pins one down deterministically.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BadShape, NotHomogeneous, OriginNotInDomain, UnsupportedDimension, ZeroVector
from .extreal import INF
from .expr import (BLOCK, Affine, Max, as_expr, as_point_block, expr_eval,
                   expr_eval_many, row_blocks)
from .measures import OrbitMeasure, orbit_center, orbit_quadrature, orbit_total_mass


def canonical_rotation(x, n):
    """Special orthogonal matrix taking e1 to x / ||x||.

    Built as a product of two reflections (through x/||x|| and through the
    bisector of e1 and x/||x||), which rotates in the plane spanned by the
    two directions and fixes its orthogonal complement. The antipodal case
    uses the rotation by pi in the (e1, e2) coordinate plane.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != n:
        raise BadShape(f"point has dim {x.size}, expected {n}")
    nx = np.linalg.norm(x)
    if nx == 0.0:
        raise ZeroVector("cannot orient the zero vector")
    u = x / nx
    e1 = np.zeros(n)
    e1[0] = 1.0

    def reflect(v):
        v = v / np.linalg.norm(v)
        return np.eye(n) - 2.0 * np.outer(v, v)

    # ||u + e1|| >= sqrt(2) on the branch taken, so both reflections are
    # well conditioned; u == e1 collapses to the identity automatically and
    # u == -e1 to the pi-rotation in the (e1, e2) plane.
    if u[0] >= 0.0:
        return reflect(u) @ reflect(u + e1)
    pi_rot = np.eye(n)
    pi_rot[0, 0] = pi_rot[1, 1] = -1.0
    return reflect(-u) @ reflect(-u + e1) @ pi_rot


@dataclass(frozen=True)
class RadialEndo:
    """Orbit measure mu and quadrature points per orbit.

    ``e(f, x)`` is the value at one point and ``e.eval_many(f, X)`` the values
    at the rows of a (k, n) array.
    """

    mu: OrbitMeasure
    M: int = 64

    def __post_init__(self):
        if self.M < 1:
            raise BadShape("M must be >= 1")
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
        return radial_eval(self, as_expr(f, self.n), x)

    def eval_many(self, f, X):
        return radial_eval_many(self, as_expr(f, self.n), X)


def radial_eval(e, f, x, rotation=None):
    """Evaluate the operator; +inf as soon as a weighted sample is +inf.

    ``rotation`` overrides the canonical rotation (it must still take e1 to
    x / ||x||); the value does not depend on the override beyond quadrature
    resolution, which is the orbit-invariance of the measure at work.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    n = e.n
    f0 = expr_eval(f, np.zeros(n))
    if f0 == INF:
        raise OriginNotInDomain("f(0) must be finite")
    if not np.any(x):
        return f0 * orbit_total_mass(e.mu)
    R = canonical_rotation(x, n) if rotation is None else np.asarray(rotation, dtype=float)
    r = float(np.linalg.norm(x))
    total = 0.0
    for p, w in zip(*e.quadrature):
        if w == 0.0:
            continue
        v = expr_eval(f, r * (R @ p))
        if v == INF:
            return INF
        total += w * v
    return total


def radial_eval_many(e, f, X):
    """``radial_eval`` with the canonical rotation at every row of X.

    The rotation of each point is applied to the quadrature nodes as its
    two reflections, without forming a matrix per point, and the tree is
    evaluated once per block of points. Values agree with the point path up
    to rounding; +inf rows are the same.
    """
    n = e.n
    X = as_point_block(X, n)
    f0 = expr_eval(f, np.zeros(n))
    if f0 == INF:
        raise OriginNotInDomain("f(0) must be finite")
    nodes, weights = e.quadrature
    keep = weights != 0.0
    nodes, weights = nodes[keep], weights[keep]
    out = np.full(len(X), f0 * orbit_total_mass(e.mu))
    idx = np.flatnonzero(X.any(axis=1))
    for rows in row_blocks(len(idx), max(1, BLOCK // max(1, len(weights)))):
        i = idx[rows]
        Y = _rotated_nodes(X[i], nodes)
        V = expr_eval_many(f, Y.reshape(-1, n)).reshape(len(i), len(weights))
        out[i] = np.where(np.isinf(V).any(axis=1), INF, V @ weights)
    return out


def _rotated_nodes(X, nodes):
    """||x|| R_x p for every point x (rows of X) and node p; (k, q, n).

    R_x is ``canonical_rotation(x)``: H(u) H(u + e1) for u = x / ||x|| with
    u[0] >= 0, else H(u) H(e1 - u) composed with the pi-rotation in the
    (e1, e2) plane, where H(v) is the reflection through v.
    """
    r = np.linalg.norm(X, axis=1)
    u = X / r[:, None]
    flip = u[:, 0] < 0.0
    P = np.broadcast_to(nodes, (len(X),) + nodes.shape).copy()
    P[flip, :, :2] *= -1.0
    v = np.where(flip[:, None], -u, u)
    v[:, 0] += 1.0
    for w in (v, u):
        w = w / np.linalg.norm(w, axis=1)[:, None]
        P -= 2.0 * np.einsum("kqn,kn->kq", P, w)[:, :, None] * w[:, None, :]
    return r[:, None, None] * P


def radial_is_dually_translation_invariant(e, tol=1e-12):
    """True iff the center of mass of mu vanishes (all components)."""
    return bool(np.max(np.abs(orbit_center(e.mu)), initial=0.0) <= tol)


def acts_as_scalar_on_radial(e, tol=1e-12):
    """True iff mu lives on the unit sphere, i.e. every orbit has t = 1.

    In that case the operator multiplies every rotation-invariant input by
    the total mass of mu.
    """
    return all(abs(t - 1.0) <= tol for t, _, w in e.mu.atoms)


def minkowski_restrict(e, support_fn, directions, tol=1e-9):
    """Sample the support function of the image body of a polytope.

    ``support_fn`` must be a positively 1-homogeneous expression: a Max of
    linear Affine terms (b == 0), or a single such Affine. Radial
    equivariance keeps the output 1-homogeneous, hence a support function;
    degree-1 homogeneity is verified at each direction. The restriction
    behaves like a translation-compatible body map only when the operator
    is dually translation-invariant, which is the caller's responsibility
    (the identity, whose orbit measure has nonzero center, is still a
    perfectly good restriction).
    """
    terms = support_fn.terms if isinstance(support_fn, Max) else [support_fn]
    for t in terms:
        if not isinstance(t, Affine) or t.b != 0.0:
            raise NotHomogeneous("support data must be a max of linear functions")
    out = []
    for u in directions:
        u = np.asarray(u, dtype=float)
        v1 = radial_eval(e, support_fn, u)
        v2 = radial_eval(e, support_fn, 2.0 * u)
        if abs(v2 - 2.0 * v1) > tol * max(1.0, abs(v1)):
            raise NotHomogeneous("sampled image is not 1-homogeneous")
        out.append(v1)
    return np.array(out)
