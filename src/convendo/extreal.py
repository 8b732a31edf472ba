"""Extended reals and the boundary rule shared by the operator families.

Values live in (-inf, +inf]: +inf is a legal function value, -inf never is.
Plain Python floats already give total comparisons with +inf maximal.
"""

import math

INF = math.inf

# Breakpoints and atom positions closer than this merge into one.
MERGE_TOL = 1e-12

# Interval endpoint ties within this tolerance resolve to the boundary case.
EDGE_TOL = 1e-10

# A value on the boundary of a domain is the radial limit lambda -> 1 from
# below, taken at this lambda: the last of the steps 1 - 2^-k, k = 1..40.
RADIAL_LIMIT = 1.0 - 2.0 ** -40


def edge_split(a, b, lo, hi):
    """(interior, exterior) of [a, b] against (lo, hi), on floats or arrays:
    inside by more than EDGE_TOL at both ends, or out by more than EDGE_TOL
    at either. Neither is the boundary case, which a nan end falls into."""
    return (a > lo + EDGE_TOL) & (b < hi - EDGE_TOL), (a < lo - EDGE_TOL) | (b > hi + EDGE_TOL)
