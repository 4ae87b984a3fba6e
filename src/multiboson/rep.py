"""Multiboson ladder representations of sl(2) on truncated Fock space.

A cluster size l and l positive constants alpha0(r) determine operators

    A0 = alpha0(n),   A- = alpha_minus(n) a^l,   A+ = (a*)^l alpha_minus(n)

with [A-, A+] = A0 and [A0, A+-] = +-2 A+-.  The Fock space splits into l
sectors H_r spanned by |k l + r>, on which the triple acts as a weighted
shift with coefficients depending only on k and alpha0(r).
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import ParameterError
from .orthopoly import pochhammer

__all__ = [
    "MultibosonRep",
    "OneModeSector",
    "StateVector",
    "residue",
    "alpha0",
    "alpha_minus",
    "sector_coeffs",
    "sector_matrices",
    "build_generators_full",
    "casimir_value",
    "series_class",
]

DENSE_LIMIT = 512


def residue(n: int, l: int) -> int:
    """n mod l: the sector label of Fock level n."""
    if l < 1:
        raise ValueError(f"cluster size must be >= 1, got {l}")
    return n % l


@dataclass(frozen=True)
class MultibosonRep:
    """Cluster size l and the free positive finite constants alpha0(r),
    r = 0..l-1."""

    l: int
    alpha0_init: tuple[float, ...]

    def __post_init__(self):
        if self.l < 1:
            raise ParameterError(("l",), f"cluster size must be >= 1, got {self.l}")
        object.__setattr__(self, "alpha0_init", tuple(float(a) for a in self.alpha0_init))
        if len(self.alpha0_init) != self.l:
            raise ParameterError(("l", "alpha0_init"), f"need {self.l} alpha0 constants")
        if not all(math.isfinite(a) and a > 0 for a in self.alpha0_init):
            raise ParameterError(("alpha0_init",), f"{self.alpha0_init} not positive, finite")


def alpha0(rep: MultibosonRep, n: int) -> float:
    """A0 eigenvalue on Fock level n: 2 floor(n/l) + alpha0(n mod l)."""
    return 2.0 * (n // rep.l) + rep.alpha0_init[n % rep.l]


def alpha_minus(rep: MultibosonRep, n: int) -> float:
    """Shift coefficient sqrt((floor(n/l) + alpha0(n mod l)) (floor(n/l) + 1) / (n+1)_l).

    Positive by construction; solves the defining difference equations."""
    m = n // rep.l
    a = rep.alpha0_init[n % rep.l]
    return math.sqrt((m + a) * (m + 1.0) / pochhammer(n + 1.0, rep.l))


@dataclass(frozen=True)
class OneModeSector:
    """Sector H_r of a representation, truncated to n_levels cluster states."""

    rep: MultibosonRep
    r: int
    n_levels: int

    def __post_init__(self):
        if not 0 <= self.r < self.rep.l:
            raise ParameterError(("r",), f"sector index {self.r} outside [0, {self.rep.l})")
        if self.n_levels < 2:
            raise ParameterError(("n_levels",), f"need n_levels >= 2, got {self.n_levels}")

    @property
    def alpha0(self) -> float:
        return self.rep.alpha0_init[self.r]

    def occupation(self, k: int) -> int:
        """Physical Fock level of sector basis state |k>_r."""
        return k * self.rep.l + self.r


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


def sector_matrices(sector: OneModeSector):
    """Dense (A0, A-, A+) on the truncated sector basis."""
    n = sector.n_levels
    diag, lowering, _ = sector_coeffs(sector)
    k = np.arange(n, dtype=float)
    a0 = np.diag(diag(k))
    am = np.diag(lowering(k[1:]), 1)
    return a0, am, am.T.copy()


def build_generators_full(rep: MultibosonRep, n: int):
    """(A0, A-, A+) on Fock levels 0..n-1 from the global coefficient functions.

    Dense ndarrays up to DENSE_LIMIT levels, banded sparse above; both paths
    fill in bit-identical coefficient values.  A+ is the transpose of A-.
    """
    if n <= rep.l:
        raise ValueError(f"need n > l = {rep.l}, got {n}")
    d = np.array([alpha0(rep, m) for m in range(n)])
    upper = np.array(
        [alpha_minus(rep, m) * math.sqrt(pochhammer(m + 1.0, rep.l))
         for m in range(n - rep.l)]
    )
    if n <= DENSE_LIMIT:
        a0 = np.diag(d)
        am = np.diag(upper, rep.l)
        return a0, am, am.T.copy()
    a0 = sp.diags_array([d], offsets=[0], format="dia")
    am = sp.diags_array([upper], offsets=[rep.l], format="dia")
    return a0, am, am.T


def casimir_value(rep: MultibosonRep, r: int) -> float:
    """Scalar of (1/2) A0^2 - A- A+ - A+ A- on the sector H_r."""
    a = rep.alpha0_init[r]
    return 0.5 * a * (a - 2.0)


def series_class(rep: MultibosonRep, r: int) -> str:
    """Unitary-series label of the sector: complementary, discrete, or other."""
    a = rep.alpha0_init[r]
    if 0 < a < 2:
        return "complementary"
    if a >= 2 and float(a).is_integer():
        return "discrete"
    return "other"


@dataclass
class StateVector:
    """Complex amplitudes over a truncated basis.

    ``sector`` is free-form metadata (a OneModeSector, a block record, ...).
    """

    amplitudes: np.ndarray
    sector: object = None

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.ndim != 1 or self.amplitudes.size == 0:
            raise ValueError("amplitudes must be a nonempty 1-d array")
        if not np.isfinite(self.amplitudes).all():
            raise ValueError("amplitudes must be finite")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "StateVector":
        nrm = self.norm()
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.amplitudes / nrm, self.sector)

    def inner(self, other: "StateVector") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))
