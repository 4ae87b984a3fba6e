"""Exception types shared across the package."""

__all__ = [
    "ParameterError",
    "NumericalFailureError",
    "TruncationOverflowError",
    "UnsupportedElementError",
    "UnsupportedCaseError",
    "BoundaryAmbiguityError",
    "NoBoundStateError",
]


class ParameterError(ValueError):
    """A value outside the domain of the API parameters ``names``, rejected
    where it enters: a public constructor or entry point names the
    parameters that together put the value out of range."""

    def __init__(self, names, message: str):
        super().__init__(message)
        self.names = tuple(names)


class NumericalFailureError(RuntimeError):
    """A numerical procedure (quadrature, eigensolve, series) did not converge."""


class TruncationOverflowError(RuntimeError):
    """Amplitudes leaked into the truncation tail; retry with a larger cutoff."""

    def __init__(self, message: str, advised_n: int | None = None):
        super().__init__(message)
        self.advised_n = advised_n


class UnsupportedElementError(ValueError):
    """Group element outside the unitarily implementable subgroup."""


class UnsupportedCaseError(ValueError):
    """Operation undefined for this spectral class (e.g. continuous spectrum)."""


class BoundaryAmbiguityError(ValueError):
    """Parameters sit exactly on a boundary between two branch assignments.

    Carries both adjacent candidate assignments in ``candidates``; callers may
    select one by continuity.
    """

    def __init__(self, message: str, candidates: tuple):
        super().__init__(message)
        self.candidates = candidates


class NoBoundStateError(ValueError):
    """Requested a bound state where the spectrum has none."""
