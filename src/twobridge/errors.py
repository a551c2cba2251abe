"""Exception types shared across the package."""


class TwoBridgeError(Exception):
    """Base class for all package-specific errors."""


class SlopeError(TwoBridgeError, ValueError):
    """Malformed slope or slope outside the domain of an operation."""


class NonHyperbolicError(TwoBridgeError, ValueError):
    """Raised by analytic operations when q = +-1 mod p."""

    def __init__(self, slope):
        self.slope = slope
        super().__init__(
            "slope %s is not hyperbolic: numerator is +-1 mod denominator" % (slope,)
        )


class DomainError(TwoBridgeError, ValueError):
    """Argument outside the mathematical domain of a function."""


class EllipticTraceError(DomainError):
    """Trace lies on the real interval (-2, 2): the isometry is elliptic."""


class RootFindingError(TwoBridgeError, RuntimeError):
    """Root finder failed to converge; carries the partial results."""

    def __init__(self, message, partial_roots=()):
        self.partial_roots = list(partial_roots)
        super().__init__(message)


class GeometricRootError(TwoBridgeError, RuntimeError):
    """Geometric-root selection failed; carries the selection report, which
    says why each root class was rejected."""

    def __init__(self, message, report=None):
        self.report = report
        super().__init__(message)


class NoGeometricRootError(GeometricRootError):
    """No trace-polynomial root survived the geometricity filters."""


class AmbiguousGeometricRootError(GeometricRootError):
    """More than one root class survived the geometricity filters."""


class NotGeometricEvaluationError(TwoBridgeError, RuntimeError):
    """A real trace in (-2, 2) was met while summing: the root is not geometric."""

    def __init__(self, slope, value, note=None):
        self.slope = slope
        self.value = value
        super().__init__(note or "elliptic trace %r at slope %s" % (value, slope))


class GluingMismatchError(TwoBridgeError, RuntimeError):
    """Adjacent cusp zigzag lines disagree on their shared vertices."""


class InternalError(TwoBridgeError, RuntimeError):
    """An internal invariant failed; indicates a bug, not bad input."""
