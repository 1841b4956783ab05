"""Exception and warning types shared across the package."""


class CurveError(Exception):
    """Base class for all polyvar errors; exit_code is the CLI's exit status."""

    exit_code: int


class ValidationError(CurveError):
    """The input is invalid for the requested operation."""

    exit_code = 2


class DegeneracyError(CurveError):
    """The input is valid but numerically degenerate for the operation."""

    exit_code = 3


class TooFewVertices(ValidationError):
    pass


class ZeroEdge(ValidationError):
    def __init__(self, k):
        super().__init__(f"edge {k} has zero length")
        self.k = k


class InvalidWinding(ValidationError):
    pass


class OpenCurve(ValidationError):
    pass


class CuspPresent(DegeneracyError):
    pass


class CuspVertex(CuspPresent):
    def __init__(self, k):
        super().__init__(f"vertex {k} is a cusp (turning angle = pi)")
        self.k = k


class CuspAdjacent(DegeneracyError):
    def __init__(self, k):
        super().__init__(f"edge {k} has a cusp endpoint")
        self.k = k


class NonIntegerTurning(DegeneracyError):
    pass


class SchemeInapplicable(ValidationError):
    pass


class KappaZero(ValidationError):
    pass


class MeanNotZero(ValidationError):
    pass


class NotEquilibrium(DegeneracyError):
    pass


class InternalInconsistency(DegeneracyError):
    pass


class EdgeCollapse(DegeneracyError):
    def __init__(self, k):
        super().__init__(f"offset collapses edge {k}")
        self.k = k


class CornerOverlap(DegeneracyError):
    def __init__(self, k, variant):
        super().__init__(f"corner {k} turns toward the offset; the {variant} length formula does not hold")
        self.k = k


class ZeroVolumeGradient(DegeneracyError):
    pass


class CuspWarning(UserWarning):
    """Emitted when a turning angle equals +/-pi within tolerance."""
