"""Exception types raised by the library."""


class ConvendoError(Exception):
    """Base class for all library errors."""


class BadShape(ConvendoError):
    """Mismatched or malformed construction data."""


class NonConvex(ConvendoError):
    """Slope or value data violates convexity."""


class EmptyDomain(ConvendoError):
    """Operands have no common domain with non-empty interior."""


class NegativeScale(ConvendoError):
    """Scaling factor must be non-negative."""


class DimensionMismatch(ConvendoError):
    """Evaluation point dimension disagrees with the function."""


class PerturbationNotConvex(ConvendoError):
    """A probe base plus perturbation failed the convexity check."""


class AtomAtZero(ConvendoError):
    """Negative moments are undefined for measures charging the origin."""


class EmptyMeasure(ConvendoError):
    """Operation requires at least one atom."""


class UnsupportedDimension(ConvendoError):
    """Ambient dimension outside the supported range."""


class OriginNotInDomain(ConvendoError):
    """Operator input must be finite at the origin."""


class ZeroVector(ConvendoError):
    """A nonzero direction vector is required."""


class NotHomogeneous(ConvendoError):
    """Input is not positively 1-homogeneous."""


class InfiniteSlope(ConvendoError):
    """Operation requires finite tail slopes."""


class TailNotAffine(ConvendoError):
    """Kernel slice is not affine beyond the declared radius."""


class XSliceNotAffine(ConvendoError):
    """Kernel is not affine in its first argument where required."""


class KernelNotConvex(BadShape):
    """Tabulated kernel psi(., y) is not convex in x."""


class OutsideA(ConvendoError):
    """Evaluation point lies outside the decomposition interval."""


class PhiNotEven(ConvendoError):
    """Profile function must be even."""


class PhiNegative(ConvendoError):
    """Profile function must be non-negative."""
