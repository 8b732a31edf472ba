"""The full one-dimensional kernel calculus.

Every continuous additive operator on finite convex functions of one
variable is described by a continuous kernel psi(x, y), unique up to terms
affine in y. This demo extracts kernels by applying operators to hinges,
decomposes them into tail coefficients plus a compactly supported
residual, rebuilds the operator from kink data, and checks the
monotonicity criterion.
"""

import numpy as np

from convendo import (GlEndo, Kernel1D, LineMeasure, MaEndo, PhiEndo,
                      PwlFunction, hat_weight, kernel_decompose,
                      kernel_endo_eval, kernel_extract, kernel_extract_live,
                      kernel_is_monotone, monge_ampere, pwl_abs)

# ------------------------------------------------- second-derivative data
# For piecewise-linear f the distributional second derivative is a sum of
# point masses at the kinks, weighted by the slope jumps.
f = PwlFunction([-1.0, 1.0], [0.0, 0.0], -1.0, 1.0)
print("kinks of max(0, x-1, -x-1):", monge_ampere(f).atoms)
print("kinks of |x|:", monge_ampere(pwl_abs()).atoms)

# ------------------------------------------------------- kernel extraction
# Applying an operator to the hinges s -> (y - s)_+ sweeps out its kernel.
# For "evaluate minus value at origin" the kernel is (y - x)_+ - y_+.
eval_minus = GlEndo(0.0, LineMeasure([(1.0, 1.0)]), 1)
k = kernel_extract(eval_minus, np.linspace(-1, 1, 5), np.linspace(-2, 2, 5))
print("\nextracted kernel values (rows x, cols y):")
print(np.round(k.grid[2], 3))

# ------------------------------------------------------ tail decomposition
# Beyond a radius R the kernel is affine in y; solving the tails at +-R and
# +-(R+1) yields four coefficients, and subtracting the matching hinge
# multiples leaves a residual supported in [-R, R]. The operator is then
#     (c1+c3)(x) f(0) + (c2+c4)(x) f(-1) + sum residual(x, kink) * jump.
hinge_kernel = Kernel1D(lambda x, y: max(y - x, 0.0) - max(y, 0.0),
                        (-1, 1, -4, 4))
d = kernel_decompose(hinge_kernel, (-1, 1), 2.0)
print("\ntail coefficients at x = 0.5:",
      [round(c, 12) for c in d.tails(0.5)])
parab = PwlFunction(np.linspace(-3, 3, 1201), np.linspace(-3, 3, 1201) ** 2,
                    -6.0, 6.0)
print("rebuilt value:", round(kernel_endo_eval(d, parab, 0.5), 9),
      " direct f(x) - f(0):", round(parab(0.5) - parab(0.0), 9))

# ------------------------------------------------------------- round trips
# Extract -> decompose -> re-evaluate reproduces each operator family.
phi = PhiEndo(PwlFunction([0.0], [1.0], -1.0, 1.0))
live = kernel_extract_live(phi, (-1.2, 1.2, -8.0, 8.0))
dphi = kernel_decompose(live, (-1.0, 1.0), 4.0)
print("\nprofile-integral operator round trip at x = 0.37:",
      round(kernel_endo_eval(dphi, parab, 0.37), 9), "vs",
      round(phi(parab, 0.37), 9))

span = np.linspace(-3, 3, 49)
ma = MaEndo(PwlFunction(span, span ** 2, -6.0, 6.0), hat_weight(1.0), 1.0)
livem = kernel_extract_live(ma, (-1.2, 1.2, -8.0, 8.0))
dma = kernel_decompose(livem, (-1.0, 1.0), 2.0)
print("jump-weight operator round trip at x = 0.7:",
      round(kernel_endo_eval(dma, pwl_abs(), 0.7), 9), "vs",
      round(ma(pwl_abs(), 0.7), 9))

# -------------------------------------------------- monotonicity criterion
# An operator is monotone exactly when its kernel is convex in y. The
# hinge kernel (y - x)_+ - y_+ has a negative jump at 0, so "evaluate
# minus origin" is not monotone; the pure hinge (y - x)_+ (plain
# evaluation) is.
xs, ys = np.linspace(-1, 1, 9), np.linspace(-3, 3, 61)
print("\nmonotone(evaluate - origin):",
      kernel_is_monotone(hinge_kernel, xs, ys))
print("monotone(evaluate):",
      kernel_is_monotone(Kernel1D(lambda x, y: max(y - x, 0.0),
                                  (-1, 1, -4, 4)), xs, ys))

# ------------------------------------------ closed-form kernel of PhiEndo
# For the profile phi(t) = 1 + |t| the extracted kernel matches
# (s + phi(t))^2 / 2 - 2 phi(t) s_+ inside |s| < phi(t), zero outside.
t, s = 0.5, 0.8
a = 1.0 + abs(t)
closed = (s + a) ** 2 / 2.0 - 2.0 * a * max(s, 0.0)
print("\nclosed form at (0.5, 0.8):", round(closed, 9),
      " extracted:", round(live(t, s), 9))
