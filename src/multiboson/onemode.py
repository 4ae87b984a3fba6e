"""One-mode Hamiltonians H = (mu+nu)/2 A0 + (mu-nu)/2 (A- + A+).

On a sector the Hamiltonian is the Jacobi operator

    a_k = (mu+nu)/2 (2k + alpha0),  b_k = (mu-nu)/2 sqrt((k+alpha0)(k+1)),

and the sign pattern of (mu, nu) selects one of nine spectral classes.  The
first quadrant off the diagonal is Meixner-type (discrete spectrum bounded
below), the third its mirror, the axes are Laguerre-type (half-line
continuum), the even quadrants Meixner-Pollaczek-type (full-line
continuum), and the diagonal is already diagonal in the sector basis.

Case index -> conditions, family, linear map (x_phys = scale * x_family):

    1  nu = 0, mu != 0   Laguerre(alpha0 - 1),            scale mu/2
    2  mu = 0, nu != 0   Laguerre(alpha0 - 1),            scale nu/2
    3  mu > 0 > nu       MeixnerPollaczek(alpha0/2, phi), scale 2 sqrt(-mu nu)
    4  mu < 0 < nu       MeixnerPollaczek(alpha0/2, phi), scale -2 sqrt(-mu nu)
    5  mu > nu > 0       Meixner(alpha0, c),              scale sqrt(mu nu)
    6  mu < nu < 0       Meixner(alpha0, c'),             scale -sqrt(mu nu)
    7  nu > mu > 0       Meixner(alpha0, c),              scale sqrt(mu nu)
    8  nu < mu < 0       Meixner(alpha0, c'),             scale -sqrt(mu nu)
    9  mu = nu != 0      diagonal,                        scale mu

with phi = arccos(-(mu+nu)/(mu-nu)), c = (mu+nu-2 sqrt(mu nu))/(mu+nu+2 sqrt(mu nu))
and c' the same with +-2 sqrt(mu nu) swapped.  Case boundaries are exact
sign tests; callers pass exact zeros when they mean the axes.

``evolve`` maps an amplitude array to amplitude arrays, one row per time,
and checks no truncation tail: the package has one tail monitor, the
per-mode check of ``evolution.run_series`` and ``evolve_full`` against
the ``FullModel``'s tolerance.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import TruncationOverflowError, UnsupportedCaseError
from .jacobi import (JacobiOperator, atom_eigenvector, oracle_eigh, spectral_apply,
                     spectral_coeffs)
from .orthopoly import (Laguerre, Meixner, MeixnerPollaczek, PolyFamily,
                        SpectralMeasure)
from .rep import OneModeSector, StateVector

__all__ = [
    "OneModeHamiltonian",
    "CaseLabel",
    "jacobi",
    "classify",
    "spectrum",
    "eigenvalue_discrete",
    "eigenvectors_discrete",
    "evolve",
    "default_n_levels",
]


@dataclass(frozen=True)
class OneModeHamiltonian:
    mu: float
    nu: float
    sector: OneModeSector

    def __post_init__(self):
        if self.mu == 0 and self.nu == 0:
            raise ValueError("label pair (0, 0) is excluded")


@dataclass(frozen=True)
class CaseLabel:
    """Spectral class: index 1..9, attached family (None for the diagonal
    case), and the linear map x_phys = scale * x_family."""

    index: int
    family: PolyFamily | None
    scale: float

    @property
    def discrete(self) -> bool:
        return self.index >= 5


def jacobi(h: OneModeHamiltonian) -> JacobiOperator:
    """Jacobi coefficients of H on the sector basis."""
    mu, nu, a = h.mu, h.nu, h.sector.alpha0
    ca = 0.5 * (mu + nu)
    cb = 0.5 * (mu - nu)
    return JacobiOperator(
        diag=lambda k: ca * (2.0 * k + a),
        offdiag=lambda k: cb * np.sqrt((k + a) * (k + 1.0)),
        size=h.sector.n_levels,
    )


def classify(mu: float, nu: float, alpha0: float) -> CaseLabel:
    if mu == 0 and nu == 0:
        raise ValueError("label pair (0, 0) is excluded")
    if mu == nu:
        return CaseLabel(9, None, mu)
    if nu == 0:
        return CaseLabel(1, Laguerre(alpha0 - 1.0), mu / 2.0)
    if mu == 0:
        return CaseLabel(2, Laguerre(alpha0 - 1.0), nu / 2.0)
    if mu * nu < 0:
        phi = math.acos(-(mu + nu) / (mu - nu))
        s = 2.0 * math.sqrt(-mu * nu)
        if mu > 0:
            return CaseLabel(3, MeixnerPollaczek(alpha0 / 2.0, phi), s)
        return CaseLabel(4, MeixnerPollaczek(alpha0 / 2.0, phi), -s)
    root = 2.0 * math.sqrt(mu * nu)
    if mu > 0:
        c = (mu + nu - root) / (mu + nu + root)
        idx = 5 if mu > nu else 7
        return CaseLabel(idx, Meixner(alpha0, c), math.sqrt(mu * nu))
    c = (mu + nu + root) / (mu + nu - root)
    idx = 6 if mu < nu else 8
    return CaseLabel(idx, Meixner(alpha0, c), -math.sqrt(mu * nu))


def spectrum(h: OneModeHamiltonian, n_atoms: int | None = None) -> SpectralMeasure:
    """Spectral measure of H with atom locations at the H-eigenvalues.

    The diagonal case has no distinguished cyclic vector; its atoms carry
    unit counting weights.
    """
    label = classify(h.mu, h.nu, h.sector.alpha0)
    if label.index == 9:
        count = h.sector.n_levels if n_atoms is None else n_atoms
        a = h.sector.alpha0
        atoms = tuple((h.mu * (2.0 * k + a), 1.0) for k in range(count))
        return SpectralMeasure(atoms=atoms, shift=0.0, scale=h.mu)
    fam = label.family
    meas = fam.measure(n_atoms=n_atoms) if isinstance(fam, Meixner) else fam.measure()
    return meas.mapped(scale=label.scale)


def eigenvalue_discrete(h: OneModeHamiltonian, n: int) -> float:
    """Closed-form nth eigenvalue for the discrete cases 5..9."""
    label = classify(h.mu, h.nu, h.sector.alpha0)
    if not label.discrete:
        raise UnsupportedCaseError(f"case {label.index} has continuous spectrum")
    return label.scale * (2.0 * n + h.sector.alpha0)


def eigenvectors_discrete(h: OneModeHamiltonian, n: int,
                          n_levels: int | None = None) -> StateVector:
    """Normalized eigenvector of H at the closed-form nth eigenvalue.

    Components are column n of the attached Meixner family's kernel
    ``atom_eigenvector`` (orthonormal Meixner functions at the atom n),
    times (-1)^k where the off-diagonal of H and the family's have opposite
    signs (cases 7 and 8), normalized over the truncation.
    """
    label = classify(h.mu, h.nu, h.sector.alpha0)
    if not label.discrete:
        raise UnsupportedCaseError(
            f"case {label.index} has continuous spectrum; evaluate the family "
            "polynomials at spectral points instead"
        )
    size = h.sector.n_levels if n_levels is None else n_levels
    if label.index == 9:
        if n >= size:
            raise ValueError(f"level {n} outside truncation {size}")
        amp = np.zeros(size, dtype=complex)
        amp[n] = 1.0
        return StateVector(amp, sector=h.sector)
    vec = _discrete_block(h, label, size, n + 1)[:, n]
    return StateVector(vec / np.linalg.norm(vec), sector=h.sector)


def default_n_levels(h: OneModeHamiltonian) -> int:
    """N = max(100, 20 ceil(|spectral scale|))."""
    label = classify(h.mu, h.nu, h.sector.alpha0)
    return max(100, 20 * int(math.ceil(abs(label.scale))))


def _discrete_block(h: OneModeHamiltonian, label: CaseLabel, n_rows: int,
                    n_cols: int) -> np.ndarray:
    """Rows k < n_rows of the first n_cols eigenvectors of H in cases 5-8:
    the family's Meixner kernel block, row k times (-1)^k where
    (mu - nu) scale < 0, since H = scale * J_family up to that sign."""
    u = atom_eigenvector(label.family, n_rows, n_cols)
    if (h.mu - h.nu) * label.scale < 0:
        u[1::2] *= -1.0
    return u


def _expand_discrete(h: OneModeHamiltonian, label: CaseLabel, psi: np.ndarray):
    """Eigenvectors, coefficients and energies of the leading closed-form
    eigenpairs whose coefficients leave a directly summed tail of at most
    1e-15 of |psi|^2, out of the first 4N."""
    size = psi.size
    nz = np.flatnonzero(psi)
    rows = int(nz[-1]) + 1 if nz.size else 1
    cap = 4 * size
    coeffs = spectral_coeffs(_discrete_block(h, label, rows, cap), psi[:rows])
    tail = np.cumsum(np.abs(coeffs[::-1]) ** 2)[::-1]
    total = float(np.vdot(psi, psi).real)
    done = np.flatnonzero(tail <= 1e-15 * total)
    if done.size == 0:
        raise TruncationOverflowError(
            f"eigen-expansion tail {tail[-1] / total:.2e} after {cap} terms; "
            f"state reaches the truncation edge", advised_n=2 * size,
        )
    m = int(done[0])
    energies = label.scale * (2.0 * np.arange(m) + h.sector.alpha0)
    return _discrete_block(h, label, size, m), coeffs[:m], energies


def evolve(h: OneModeHamiltonian, psi, t) -> np.ndarray:
    """Apply exp(i t H) to the amplitude array psi at a time t, or at every
    time of a 1-d array t: shape (N,) at a scalar t, (n_times, N) with one
    row per time of an array t.

    The spectral data is taken once per call, whatever the number of times:
    one closed-form eigen-expansion of psi in the discrete cases 5-8, one
    (LAPACK) eigendecomposition of the truncated Jacobi operator in the
    continuous cases 1-4, one set of diagonal phases in case 9.  Cases 1-8
    project psi and apply the phases in real arithmetic against the real
    eigenvectors (``jacobi.spectral_coeffs`` and ``spectral_apply`` at -t),
    so no complex copy of an eigenvector matrix is made.  The closed-form
    expansion raises TruncationOverflowError when 4N terms do not hold psi;
    the truncation tail of the evolved state is left to
    ``evolution.run_series`` and ``evolve_full``.
    """
    psi = np.asarray(psi, dtype=complex)
    size = psi.size
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ValueError("t must be a scalar or a 1-d array of times")
    ts = np.atleast_1d(times)
    label = classify(h.mu, h.nu, h.sector.alpha0)
    if label.index == 9:
        a = h.sector.alpha0
        out = np.exp(1j * ts[:, None] * (h.mu * (2.0 * np.arange(size) + a))) * psi
    else:
        if label.discrete:
            vecs, coeffs, energies = _expand_discrete(h, label, psi)
        else:
            energies, vecs = oracle_eigh(jacobi(h), n=size)
            coeffs = spectral_coeffs(vecs, psi)
        out = spectral_apply(vecs, energies, coeffs, -ts)
    return out[0] if times.ndim == 0 else out
