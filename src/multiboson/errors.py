"""Exception types shared across the package: one per meaning.

- ``ParameterError``: a request outside the domain, refused where it
  enters, naming the parameters that together put it out of range: a value
  (NaN, an infinity, a bound), a request the object cannot serve (a group
  element no unitary implements, eigenvectors past a chain's atoms), or a
  result the double range cannot hold at those parameters.
- ``NumericalFailureError``: a numerical procedure (quadrature, eigensolve,
  series) did not converge on a request inside the domain.
- ``TruncationOverflowError``: amplitudes leaked into the truncation tail.
"""

__all__ = [
    "ParameterError",
    "NumericalFailureError",
    "TruncationOverflowError",
]


class ParameterError(ValueError):
    """A request outside the domain of the API parameters ``names``,
    rejected where it enters: a public constructor or entry point names the
    parameters that together put the request out of range."""

    def __init__(self, names, message: str):
        super().__init__(message)
        self.names = tuple(names)


class NumericalFailureError(RuntimeError):
    """A numerical procedure (quadrature, eigensolve, series) did not converge."""


class TruncationOverflowError(RuntimeError):
    """Amplitudes leaked into the truncation tail; retry with a larger cutoff."""
