"""Tour of the exact one-dimensional convex calculus.

Every function here is a PwlFunction: breakpoints, values and two tail
slopes, with -inf / +inf tail slopes encoding truncated domains. All the
algebra below is exact up to float rounding; nothing is discretized.
"""

import numpy as np

from convendo import (PwlFunction, inf_convolve, legendre, moreau_envelope,
                      pwl_abs, pwl_add, pwl_indicator, pwl_max, pwl_scale,
                      epi_converges_probe)

# ------------------------------------------------------------------ basics
# |x| has one breakpoint and tail slopes -1, +1.
f = pwl_abs()
print("f = |x|:", f)
print("f(0.3) =", f(0.3), "  f(-2) =", f(-2.0))

# The indicator of [-1, 1]: zero inside, +inf outside.
box = pwl_indicator(-1.0, 1.0)
print("\nindicator domain:", box.domain, " box(2) =", box(2.0))

# Sums merge breakpoints and intersect domains exactly.
s = pwl_add(f, PwlFunction([1.0], [0.0], -1.0, 1.0))
print("\n|x| + |x-1|:", s)
clipped = pwl_add(box, f)
print("|x| restricted to [-1,1]:", clipped)

# Max inserts breakpoints at crossings, scale rescales values and slopes.
flat = pwl_max(f, PwlFunction([0.0], [1.0], 0.0, 0.0))
print("\nmax(|x|, 1):", flat)
print("2|x|:", pwl_scale(2.0, f))

# --------------------------------------------------- conjugates and sums
# The Legendre transform swaps breakpoints and slopes: the conjugate of
# |x| is the indicator of [-1, 1], and conjugating twice gives |x| back.
dual = legendre(f)
print("\nlegendre(|x|):", dual)
print("legendre twice:", legendre(dual))

# Inf-convolution is computed through the conjugates; on indicators it is
# the Minkowski sum of the underlying intervals.
print("\nbox [-1,1] inf-conv box [-1,1]:",
      inf_convolve(box, box))

# --------------------------------------------------------- Moreau envelopes
# The envelope is evaluation-only and exact per query. For |x| it is the
# Huber function: quadratic inside [-t, t], affine outside.
env = moreau_envelope(f, 1.0)
print("\nHuber values:", [round(env(x), 6) for x in (-2.0, -0.5, 0.0, 0.5, 2.0)])

# Envelopes increase toward f as t shrinks and converge uniformly on
# compacts; the probe reports the sup-distance per index.
report = epi_converges_probe(lambda j: moreau_envelope(f, 1.0 / j), f,
                             [(-1.0, 1.0)], tol=0.1, j_max=8)
print("sup distances on [-1,1]:", np.round(report.sup_dists[0], 6))
print("probe passed:", report.passed)
