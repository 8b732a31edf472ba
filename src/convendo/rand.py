"""Seeded random generators for the property suites.

All randomness in the package flows through ``numpy.random.default_rng``
seeded with a caller-supplied 64-bit integer, so every suite run is
reproducible from its seed.
"""

import numpy as np

from .expr import Affine, Max, Norm, Pwl1D, Quad, Sum
from .extreal import INF
from .measures import LineMeasure
from .pwl import PwlFunction, _kept, pwl_add, pwl_linear, pwl_max


def rng_from_seed(seed):
    return np.random.default_rng(int(seed) & (2 ** 64 - 1))


def random_convex_pwl(rng, max_breaks=8, allow_tails=True):
    """Random convex PwlFunction with strictly increasing slopes.

    Slope gaps stay above 1e-3 so the conjugate never merges
    breakpoints; with ``allow_tails`` the domain is truncated on each side
    with probability 1/4.
    """
    k = int(rng.integers(1, max_breaks + 1))
    bps = np.sort(rng.uniform(-3.0, 3.0, size=k))
    keep = _kept(bps, bps[1:] - bps[:-1], 1e-2)
    bps = bps if keep is None else bps[keep]
    k = bps.size

    gaps = rng.uniform(1e-3, 1.5, size=k + 1)
    slopes = np.cumsum(gaps) + rng.uniform(-2.0, 0.0)
    sl, sr = slopes[0], slopes[-1]
    if allow_tails and rng.random() < 0.25:
        sl = -INF
    if allow_tails and rng.random() < 0.25:
        sr = INF

    steps = slopes[1:-1] * (bps[1:] - bps[:-1])
    vals = np.add.accumulate(np.concatenate(([rng.uniform(-2.0, 2.0)], steps)))
    return PwlFunction._from_op(bps, vals, sl, sr, slopes[1:-1])


def random_finite_pwl(rng, max_breaks=8):
    return random_convex_pwl(rng, max_breaks=max_breaks, allow_tails=False)


def random_nonneg_pwl(rng):
    """Random non-negative finite convex function, as max(f - c, 0)."""
    f = random_finite_pwl(rng, max_breaks=5)
    c = f(float(rng.uniform(-1.0, 1.0)))
    shifted = pwl_add(f, pwl_linear(0.0, -c))
    return pwl_max(shifted, pwl_linear(0.0, 0.0))


def random_smooth_expr(rng, n):
    """Sum of affine, quadratic and norm pieces; trig-exact under orbit
    quadrature, which the rotation-equivariance properties rely on."""
    return Sum([Quad(rng.uniform(0.05, 1.0)), Norm(rng.uniform(0.0, 1.0)),
                Affine(rng.normal(size=n), rng.normal())])


def random_finite_expr(rng, n, depth=2):
    """Random finite convex expression with max nodes and 1D profiles."""
    kind = rng.integers(0, 4)
    if depth <= 0 or kind == 0:
        return random_smooth_expr(rng, n)
    if kind == 1:
        d = rng.normal(size=n)
        d = d / np.linalg.norm(d)
        return Sum([Pwl1D(random_finite_pwl(rng, max_breaks=4), d),
                    Quad(rng.uniform(0.0, 0.5))])
    if kind == 2:
        return Max([random_finite_expr(rng, n, depth - 1),
                    Affine(rng.normal(size=n), rng.normal())])
    return Sum([random_finite_expr(rng, n, depth - 1),
                random_smooth_expr(rng, n)])


def random_nonneg_expr(rng, n):
    kind = rng.integers(0, 3)
    if kind == 0:
        return Quad(rng.uniform(0.0, 1.0))
    if kind == 1:
        return Norm(rng.uniform(0.0, 1.0))
    return Max([Affine(np.zeros(n), 0.0), Affine(rng.normal(size=n), rng.normal())])


def random_invertible(rng, n):
    while True:
        m = rng.normal(size=(n, n))
        if abs(np.linalg.det(m)) >= 0.2:
            return m


def random_rotation(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_rotation_fixing_axis(rng, n):
    """Rotation with first row/column (1, 0, ..., 0)."""
    out = np.eye(n)
    out[1:, 1:] = random_rotation(rng, n - 1)
    return out


def random_line_measure(rng, balanced=None):
    """Random atomic measure of one to four atoms away from 0.

    ``balanced=True`` pairs every atom with its mirror image so the signed
    1/s moment cancels exactly; ``balanced=False`` retries until that moment
    is bounded away from zero.
    """
    while True:
        k = int(rng.integers(1, 5))
        atoms = []
        for _ in range(k):
            s = rng.uniform(0.3, 2.5) * (1 if rng.random() < 0.5 else -1)
            w = rng.uniform(0.1, 2.0)
            atoms.append((s, w))
        if balanced is True:
            atoms = [a for s, w in atoms for a in ((s, w), (-s, w))]
        m = LineMeasure(atoms)
        if balanced is False:
            if abs(sum(w / s for s, w in m.atoms)) < 0.1:
                continue
        return m
