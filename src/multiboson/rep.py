"""Multiboson ladder representations of sl(2) on truncated Fock space.

A cluster size l and l positive constants alpha0(r) determine operators

    A0 = alpha0(n),   A- = alpha_minus(n) a^l,   A+ = (a*)^l alpha_minus(n)

with [A-, A+] = A0 and [A0, A+-] = +-2 A+-.  The Fock space splits into l
sectors H_r spanned by |k l + r>, on which the triple acts as a weighted
shift with coefficients depending only on k and alpha0(r).

A state is a plain 1-d numpy array of amplitudes over a truncated sector
basis (or the flattened product basis of two sectors); the evolution entry
points check it against their model's window where it enters.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .orthopoly import pochhammer

__all__ = [
    "MultibosonRep",
    "OneModeSector",
    "alpha0",
    "alpha_minus",
    "sector_coeffs",
    "apply_lowering",
    "sector_matrices",
    "generator_weights",
    "build_generators_full",
    "casimir_value",
]


@dataclass(frozen=True)
class MultibosonRep:
    """Cluster size l and the free positive finite constants alpha0(r),
    r = 0..l-1."""

    l: int
    alpha0_init: tuple[float, ...]

    def __post_init__(self):
        if not (self.l >= 1 and float(self.l).is_integer()):
            raise ParameterError(("l",), f"cluster size must be an integer >= 1, got {self.l}")
        object.__setattr__(self, "alpha0_init", tuple(float(a) for a in self.alpha0_init))
        if len(self.alpha0_init) != self.l:
            raise ParameterError(("l", "alpha0_init"), f"need {self.l} alpha0 constants")
        if not all(math.isfinite(a) and a > 0 for a in self.alpha0_init):
            raise ParameterError(("alpha0_init",), f"{self.alpha0_init} not positive, finite")


def alpha0(rep: MultibosonRep, n):
    """A0 eigenvalue on Fock level n: 2 floor(n/l) + alpha0(n mod l),
    elementwise over an integer array n."""
    return 2.0 * (n // rep.l) + np.take(rep.alpha0_init, n % rep.l)


def alpha_minus(rep: MultibosonRep, n):
    """Shift coefficient sqrt((floor(n/l) + alpha0(n mod l)) (floor(n/l) + 1) / (n+1)_l),
    elementwise over an integer array n.

    Positive by construction; solves the defining difference equations."""
    m = n // rep.l
    a = np.take(rep.alpha0_init, n % rep.l)
    return np.sqrt((m + a) * (m + 1.0) / pochhammer(n + 1.0, rep.l))


@dataclass(frozen=True)
class OneModeSector:
    """Sector H_r of a representation, truncated to n_levels cluster states."""

    rep: MultibosonRep
    r: int
    n_levels: int

    def __post_init__(self):
        if not (0 <= self.r < self.rep.l and float(self.r).is_integer()):
            raise ParameterError(("r",), f"need an integer sector index in [0, {self.rep.l}), "
                                         f"got {self.r}")
        if not (self.n_levels >= 2 and float(self.n_levels).is_integer()):
            raise ParameterError(("n_levels",),
                                 f"need an integer n_levels >= 2, got {self.n_levels}")

    @property
    def alpha0(self) -> float:
        return self.rep.alpha0_init[self.r]


def sector_coeffs(sector: OneModeSector):
    """(diagonal, lowering, raising) coefficient streams on sector basis |k>_r,
    each a function of a float k-array (or a scalar k):

        A0 |k> = (2k + a) |k>,  A- |k> = sqrt(k (k + a - 1)) |k-1>,
        A+ |k> = sqrt((k + a)(k + 1)) |k+1>,   a = alpha0(r).
    """
    a = sector.alpha0
    diag = lambda k: 2.0 * k + a
    lowering = lambda k: np.sqrt(k * (k + a - 1.0))
    raising = lambda k: np.sqrt((k + a) * (k + 1.0))
    return diag, lowering, raising


def apply_lowering(sector: OneModeSector, psi: np.ndarray) -> np.ndarray:
    """A- psi for amplitudes psi over the sector's n_levels basis states, as
    the weighted shift (A- psi)_k = sqrt((k + 1)(k + a)) psi_{k+1}; the top
    entry is 0, its partner lying outside the window."""
    _, lowering, _ = sector_coeffs(sector)
    out = np.zeros_like(psi)
    out[:-1] = lowering(np.arange(1.0, sector.n_levels)) * psi[1:]
    return out


def sector_matrices(sector: OneModeSector):
    """Dense (A0, A-, A+) on the truncated sector basis."""
    n = sector.n_levels
    diag, lowering, _ = sector_coeffs(sector)
    k = np.arange(n, dtype=float)
    a0 = np.diag(diag(k))
    am = np.diag(lowering(k[1:]), 1)
    return a0, am, am.T.copy()


def generator_weights(rep: MultibosonRep, n: int):
    """(diagonal, upper) weights of the generators on Fock levels 0..n-1:
    A0 = diag(diagonal), A- carries upper[m] = alpha_minus(m) sqrt((m+1)_l) at
    (m, m + l) for m < n - l, and A+ is its transpose."""
    if n <= rep.l:
        raise ParameterError(("n",), f"need n > l = {rep.l}, got {n}")
    m = np.arange(n - rep.l)
    return alpha0(rep, np.arange(n)), alpha_minus(rep, m) * np.sqrt(pochhammer(m + 1.0, rep.l))


def build_generators_full(rep: MultibosonRep, n: int):
    """Dense (A0, A-, A+) on Fock levels 0..n-1 from ``generator_weights``.
    A+ is the transpose of A-.
    """
    diagonal, upper = generator_weights(rep, n)
    am = np.diag(upper, rep.l)
    return np.diag(diagonal), am, am.T.copy()


def casimir_value(rep: MultibosonRep, r: int) -> float:
    """Scalar of (1/2) A0^2 - A- A+ - A+ A- on the sector H_r."""
    a = rep.alpha0_init[r]
    return 0.5 * a * (a - 2.0)
