"""Seeded perturbations and base functions for the Goodey-Weil probe.

The property suites and the acceptance tests draw the test perturbations
phi = phi_plus - phi_minus of ``probes.gw_probe`` and the base pairs it
compares from here.
"""

import numpy as np

from . import rand
from .expr import Affine, Max, Norm, Quad, Scale, Sum
from .pwl import PwlFunction, pwl_add, pwl_scale


def random_hat_parts_1d(rng):
    """phi_plus - phi_minus is a tent of random center, radius and height."""
    a = float(rng.uniform(-1.0, 1.0))
    r = float(rng.uniform(0.3, 0.8))
    h = float(rng.uniform(0.2, 1.0))
    c = h / r
    plus = pwl_add(PwlFunction([a - r], [0.0], 0.0, c),
                   PwlFunction([a + r], [0.0], 0.0, c))
    minus = PwlFunction([a], [0.0], 0.0, 2.0 * c)
    return plus, minus


def gw_bases_1d(rng, phi_minus):
    """Two distinct bases whose kinks absorb the tent's concave corner.

    Scaled copies of phi_minus dominate the downward kink of the
    perturbation, so base + perturbation stays convex; smooth bases cannot
    do that against a piecewise-linear tent.
    """
    f1 = pwl_add(pwl_scale(2.0, phi_minus), rand.random_finite_pwl(rng, max_breaks=3))
    f2 = pwl_add(pwl_scale(3.0, phi_minus), rand.random_finite_pwl(rng, max_breaks=3))
    return f1, f2


def radial_hat_parts(rng, n, center=None, radius=None):
    """Rotation-invariant tent in ||y||, as a difference of convex trees.

    Returns (phi_plus, phi_minus, hat) where hat evaluates
    h * tent(||y||; center, radius) for a random height h, supported on a
    compact annulus away from the origin.
    """
    a = float(rng.uniform(0.8, 1.6)) if center is None else center
    r = float(rng.uniform(0.3, min(0.7, a - 0.05))) if radius is None else radius
    h = float(rng.uniform(0.2, 1.0))
    c = h / r

    def norm_hinge(offset, slope):
        return Max([Affine(np.zeros(n), 0.0),
                    Sum([Norm(slope), Affine(np.zeros(n), -slope * offset)])])

    plus = Sum([norm_hinge(a - r, c), norm_hinge(a + r, c)])
    minus = Scale(2.0, norm_hinge(a, c))

    def hat(y):
        u = float(np.linalg.norm(np.asarray(y, dtype=float)))
        return h * max(0.0, 1.0 - abs(u - a) / r)

    return plus, minus, hat


def gw_bases_nd(rng, phi_minus, n):
    f1 = Sum([Scale(2.0, phi_minus), Quad(rng.uniform(0.2, 1.0))])
    f2 = Sum([Scale(3.0, phi_minus), Quad(rng.uniform(0.2, 1.0)),
              Affine(rng.normal(size=n), 0.0)])
    return f1, f2


def probe_lines(rng, n):
    """Three random (base point, unit direction) lines in R^n."""
    lines = []
    for _ in range(3):
        b = rng.uniform(-1.0, 1.0, size=n)
        d = rng.normal(size=n)
        d = d / np.linalg.norm(d)
        lines.append((b, d))
    return lines
