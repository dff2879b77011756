"""Exception types shared across the package."""


class McflowError(Exception):
    """Base class for all package errors."""


class InvalidImmersion(McflowError):
    """Connectivity or dimension invariants of a discrete immersion are broken."""


class DegenerateElement(McflowError):
    """An element's measure collapsed below the degeneracy tolerance."""


class NeighborhoodRankDeficient(McflowError):
    """Neighborhood point cloud has rank below the intrinsic dimension."""


class FitUnderdetermined(McflowError):
    """Fewer neighborhood samples than fit coefficients."""


class FitIllConditioned(McflowError):
    """Normal equations of a local fit exceed the conditioning threshold."""


class UnsupportedDimension(McflowError):
    """Operation not defined for this intrinsic dimension."""


class StepRejected(McflowError):
    """A flow step produced a degenerate or non-finite immersion."""


class SolverFailure(McflowError):
    """The implicit linear solve failed (broken mass/stiffness assembly)."""


class MaxStepsExceeded(McflowError):
    """Safety cap on accepted steps was hit before any stop condition."""


class PastSingularity(McflowError):
    """Requested time at or beyond the collapse time of a closed-form solution."""


class NegativeTestFunction(McflowError):
    """A test function required to be nonnegative takes negative values."""


class WindowNotCovered(McflowError):
    """A flow trace does not cover the requested time window."""


class ZeroMeanCurvature(McflowError):
    """Mean curvature vanishes where a positive lower bound is required."""


class NonFiniteValue(McflowError):
    """A number bound for a JSON artifact is NaN or infinite, which JSON cannot hold."""


class ParseError(McflowError):
    """A configuration or mesh file does not parse (not JSON, not a numeric table)."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class ValidationError(McflowError):
    """Configuration value is structurally valid JSON but semantically wrong."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class UnknownQuantity(ValidationError):
    """Requested a trace column that does not exist."""
