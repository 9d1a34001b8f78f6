"""Exception types. CLI maps InvalidInputError -> exit 2, SolverError -> exit 3."""


class IonTrapError(Exception):
    """Base class for all toolkit errors."""


class InvalidInputError(IonTrapError):
    """Malformed or out-of-contract user input (geometry, params, files)."""


class InvalidGeometryError(InvalidInputError):
    """Geometry violates a construction invariant (overlap, bad dims, ...)."""


class SolverError(IonTrapError):
    """BEM solve failed (ill-conditioned system, degenerate mesh, ...)."""


class NullNotFoundError(IonTrapError):
    """No pseudopotential minimum in the search region interior."""


class NullAmbiguityError(IonTrapError):
    """More than one candidate minimum in the search region."""

    def __init__(self, message, candidates):
        super().__init__(message)
        self.candidates = candidates


class FitError(IonTrapError):
    """Harmonicity fit could not be performed: an axis potential that its
    Chebyshev interpolant does not resolve, or a non-finite sample."""


class DepthError(IonTrapError):
    """Trap depth search failed or is ill-posed for the given region."""
