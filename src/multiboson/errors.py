"""Exception types shared across the package."""

__all__ = [
    "ParameterError",
    "NumericalFailureError",
    "TruncationOverflowError",
    "UnsupportedElementError",
    "UnsupportedCaseError",
    "NoBoundStateError",
]


class ParameterError(ValueError):
    """A value outside the domain of the API parameters ``names``, rejected
    where it enters: a public constructor or entry point names the
    parameters that together put the value out of range.  ``row`` is the
    position of the first refused entry of an array parameter (a time grid),
    None otherwise."""

    def __init__(self, names, message: str, row: int | None = None):
        super().__init__(message)
        self.names = tuple(names)
        self.row = row


class NumericalFailureError(RuntimeError):
    """A numerical procedure (quadrature, eigensolve, series) did not converge."""


class TruncationOverflowError(RuntimeError):
    """Amplitudes leaked into the truncation tail; retry with a larger cutoff."""


class UnsupportedElementError(ValueError):
    """Group element outside the unitarily implementable subgroup."""


class UnsupportedCaseError(ValueError):
    """Operation undefined for this spectral class (e.g. continuous spectrum)."""


class NoBoundStateError(ValueError):
    """Requested a bound state where the spectrum has none."""
