"""Exception types shared across the package."""


class MagflowError(Exception):
    """Base class for all package-specific failures."""


class ResolutionError(MagflowError):
    """Quadrature grid refinement hit its cap before the error tolerance."""


class IntegrationFailure(MagflowError):
    """Adaptive step control gave up (step underflow, non-finite error
    estimate or work budget); carries the last good time."""

    def __init__(self, message, last_time=None):
        super().__init__(message)
        self.last_time = last_time


class InsufficientDataError(MagflowError):
    """The data does not cover the request: too few samples for a spline, a
    read past a profile's window or the double range, a window too short
    for the slope schedule, or unconverged slopes for the invariance check."""


class InvalidProfileError(MagflowError, ValueError):
    """An abstract curvature profile has a non-finite sample or falls below
    its declared bound."""


class ConjugatePointError(MagflowError):
    """A boundary-value solve is singular because of a conjugate point."""

    def __init__(self, message, conjugate_time=None):
        super().__init__(message)
        self.conjugate_time = conjugate_time


class NumericalInconsistencyError(MagflowError):
    """Two independent computations of the same quantity disagree."""


class ConfigError(MagflowError):
    """A run configuration failed validation; names the offending key."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key
