"""convendo: exact convex calculus and additive operators on convex functions.

The package has three layers:

* exact one-dimensional piecewise-linear convex functions with their
  algebra, Legendre transform, inf-convolution and Moreau envelopes, plus
  convex expression trees on R^n (``pwl``, ``expr``);
* atomic measures on the line and rotation-orbit measures on R^n
  (``measures``);
* the operator families built from those measures: the linearly
  equivariant family, the scale-compose maps, the rotation/dilation
  equivariant monotone family, and the full one-dimensional kernel
  calculus (``gl``, ``radial``, ``kernel1d``), together with probes that
  certify their defining properties (``probes``, ``suites``).
"""

from .errors import (AtomAtZero, BadShape, ConvendoError, DimensionMismatch,
                     EmptyDomain, EmptyMeasure, InfiniteSlope, KernelNotConvex,
                     NegativeScale, NonConvex, NotHomogeneous, OriginNotInDomain,
                     OutsideA, PerturbationNotConvex, PhiNegative, PhiNotEven,
                     TailNotAffine, UnsupportedDimension, XSliceNotAffine,
                     ZeroVector)
from .extreal import INF
from .pwl import (PwlFunction, inf_convolve, legendre, moreau_envelope,
                  pwl_abs, pwl_add, pwl_hinge, pwl_indicator, pwl_linear,
                  pwl_max, pwl_scale)
from .expr import (Affine, BallIndicator, ConvexExpr, Max, Norm, Precompose,
                   Pwl1D, Quad, RadialPwl, Scale, Sum, expr_eval, ray_domain)
from .probes import (EpiReport, epi_converges_probe, gw_probe, is_convex_block,
                     is_convex_sampled)
from .measures import (LineMeasure, OrbitMeasure, line_measure_add,
                       moment_abs, moment_signed, orbit_center,
                       orbit_quadrature, orbit_total_mass, support_bounds)
from .gl import (GlEndo, ScaleComposeMap, gl_empirical_monotone_search,
                 gl_eval, gl_eval_detailed, gl_is_dually_translation_invariant,
                 gl_is_monotone, scale_compose_eval)
from .radial import (RadialEndo, acts_as_scalar_on_radial, canonical_rotation,
                     minkowski_restrict, radial_eval,
                     radial_is_dually_translation_invariant)
from .kernel1d import (Kernel1D, KernelDecomposition, MaEndo, PhiEndo,
                       detect_tail_radius, example_phi_convexity_certificate, hat_weight,
                       kernel_decompose, kernel_endo_eval, kernel_extract,
                       kernel_extract_live, kernel_is_monotone, monge_ampere,
                       pwl_integral)

__version__ = "0.1.0"
