"""Exception types shared across the package."""


class WarpcurveError(Exception):
    """Base class for all package errors."""


class DomainError(WarpcurveError, ValueError):
    """Argument outside the mathematically valid domain."""


class ConfigError(WarpcurveError, ValueError):
    """Invalid problem configuration."""


class GeometryError(WarpcurveError):
    """Induced metric not finite or not positive definite, raised only by the
    pencil oracle geometry.pencil_eigensystem: a graph's curvature record
    factors nothing."""


class ConeExitError(WarpcurveError):
    """Principal curvatures left the admissible cone at some node."""

    def __init__(self, message, node=None, lam=None):
        super().__init__(message)
        self.node = node
        self.lam = None if lam is None else tuple(float(x) for x in lam)


class HypothesisError(WarpcurveError):
    """A structural hypothesis on the coefficients failed."""

    def __init__(self, message, name=None, offender=None):
        super().__init__(message)
        self.name = name
        self.offender = offender


class NonConvergenceError(WarpcurveError):
    """Newton iteration did not reach tolerance."""


class StepFailureError(WarpcurveError):
    """A damped Newton step could not be accepted."""


class ContinuationError(WarpcurveError):
    """The solve did not reach t = 1 on its grid: the homotopy step size
    underflowed, or a finer grid level's Newton solve failed.  last_state
    is the last accepted state, on the configured grid."""

    def __init__(self, message, last_state=None):
        super().__init__(message)
        self.last_state = last_state
