"""Atomic measures on the line and rotation-orbit measures on R^n.

A LineMeasure is a finite list of weighted points on R with non-negative
weights; compact support is automatic. An OrbitMeasure is invariant under
the rotations fixing the first coordinate axis: each atom (t, theta, w) is
w times the uniform probability measure on the orbit

    { t (cos(theta) e1 + sin(theta) u) : u in S^(n-2) in e1-perp },

which degenerates to a single point for n = 2 and for theta in {0, pi}.
"""

import math

import numpy as np

from .errors import (AtomAtZero, BadShape, EmptyMeasure, UnsupportedDimension)
from .extreal import MERGE_TOL


class LineMeasure:
    """Finite non-negative atomic measure on R."""

    __slots__ = ("positions", "weights")

    def __init__(self, atoms):
        pos, wts = [], []
        for s, w in atoms:
            s, w = float(s), float(w)
            if not (math.isfinite(s) and math.isfinite(w)):
                raise BadShape("atom positions and weights must be finite")
            if w < 0:
                raise BadShape("weights must be >= 0")
            if w == 0.0:
                continue
            pos.append(s)
            wts.append(w)
        order = np.argsort(pos, kind="stable")
        self.positions = tuple(pos[i] for i in order)
        self.weights = tuple(wts[i] for i in order)

    @classmethod
    def _exact(cls, positions, weights):
        """Construction without checks, for tuples of strictly increasing
        finite positions and finite positive weights."""
        m = object.__new__(cls)
        m.positions, m.weights = positions, weights
        return m

    @property
    def atoms(self):
        return tuple(zip(self.positions, self.weights))

    def __len__(self):
        return len(self.positions)

    def __repr__(self):
        return f"LineMeasure({list(self.atoms)})"


def line_measure_add(m1, m2):
    """Measure sum: concatenate atoms, merging positions within MERGE_TOL."""
    atoms = sorted(list(m1.atoms) + list(m2.atoms))
    out = []
    for s, w in atoms:
        if out and s - out[-1][0] <= MERGE_TOL:
            out[-1][1] += w
        else:
            out.append([s, w])
    return LineMeasure([(s, w) for s, w in out])


def support_bounds(m):
    """(min atom position, max atom position); error on the empty measure."""
    if len(m) == 0:
        raise EmptyMeasure("measure has no atoms")
    return (m.positions[0], m.positions[-1])


def _moment(m, k, positions):
    """Sum of w * p^k over the atoms' weights w and the given positions p;
    k in {-2, -1, 0, 1}, and k < 0 needs no atom at 0."""
    if k not in (-2, -1, 0, 1):
        raise BadShape("k must be in {-2, -1, 0, 1}")
    if k < 0 and 0.0 in m.positions:
        raise AtomAtZero("negative moments need no mass at 0")
    return float(sum(w * p ** k for p, w in zip(positions, m.weights)))


def moment_abs(m, k):
    """Sum of w * |s|^k over atoms; k in {-2, -1, 0, 1}."""
    return _moment(m, k, map(abs, m.positions))


def moment_signed(m, k):
    """Sum of w * s^k over atoms; k in {-2, -1, 0, 1}."""
    return _moment(m, k, m.positions)


class OrbitMeasure:
    """Weighted rotation orbits around the first coordinate axis in R^n."""

    __slots__ = ("n", "atoms")

    def __init__(self, n, atoms):
        n = int(n)
        if n < 2:
            raise UnsupportedDimension("ambient dimension must be >= 2")
        checked = []
        for t, theta, w in atoms:
            t, theta, w = float(t), float(theta), float(w)
            if not (math.isfinite(t) and math.isfinite(theta) and math.isfinite(w)):
                raise BadShape("orbit radii, angles and weights must be finite")
            if t < 0:
                raise BadShape("orbit radius must be >= 0")
            if w < 0:
                raise BadShape("weights must be >= 0")
            if w == 0.0:
                continue
            if n == 2:
                if not -math.pi < theta <= math.pi + 1e-15:
                    raise BadShape("n = 2 expects theta in (-pi, pi]")
            else:
                if not -1e-15 <= theta <= math.pi + 1e-15:
                    raise BadShape("n >= 3 expects theta in [0, pi]")
            checked.append((t, theta, w))
        self.n = n
        self.atoms = tuple(checked)

    def __len__(self):
        return len(self.atoms)

    def __repr__(self):
        return f"OrbitMeasure(n={self.n}, atoms={list(self.atoms)})"


def orbit_total_mass(m):
    return float(sum(w for _, _, w in m.atoms))


def orbit_center(m):
    """Full center of mass vector; transverse parts vanish except for n = 2."""
    c = np.zeros(m.n)
    for t, theta, w in m.atoms:
        c[0] += w * t * math.cos(theta)
        if m.n == 2:
            c[1] += w * t * math.sin(theta)
    return c


def orbit_quadrature(atom, n, M=64):
    """Quadrature points and weights for one orbit atom.

    n = 2: the orbit is the single point t(cos theta, sin theta).
    n = 3: M equally spaced points on the orbit circle, weights w / M;
        exact for trigonometric polynomials of degree < M in the orbit angle.
    n = 4: Gauss-Legendre in the polar cosine times equispaced azimuth on the
        orbit 2-sphere, weights summing to w.
    """
    t, theta, w = (float(v) for v in atom)
    if n == 2:
        return [(np.array([t * math.cos(theta), t * math.sin(theta)]), w)]
    if n == 3:
        if M < 1:
            raise BadShape("M must be >= 1")
        ct, st = math.cos(theta), math.sin(theta)
        pts = []
        for k in range(M):
            phi = 2.0 * math.pi * k / M
            pts.append((np.array([t * ct,
                                  t * st * math.cos(phi),
                                  t * st * math.sin(phi)]), w / M))
        return pts
    if n == 4:
        m_polar = max(1, int(round(math.sqrt(M / 2.0))))
        m_azim = max(2, int(math.ceil(M / m_polar)))
        nodes, gw = np.polynomial.legendre.leggauss(m_polar)
        ct, st = math.cos(theta), math.sin(theta)
        pts = []
        for xi, om in zip(nodes, gw):
            sa = math.sqrt(max(0.0, 1.0 - xi * xi))
            for j in range(m_azim):
                beta = 2.0 * math.pi * j / m_azim
                u = np.array([0.0, xi, sa * math.cos(beta), sa * math.sin(beta)])
                p = np.array([t * ct, 0.0, 0.0, 0.0]) + t * st * u
                pts.append((p, w * (om / 2.0) / m_azim))
        return pts
    raise UnsupportedDimension("orbit quadrature supports n in {2, 3, 4}")
