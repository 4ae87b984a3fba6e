"""One-mode Hamiltonians H = (mu+nu)/2 A0 + (mu-nu)/2 (A- + A+).

On a sector the Hamiltonian is the Jacobi operator

    a_k = (mu+nu)/2 (2k + alpha0),  b_k = (mu-nu)/2 sqrt((k+alpha0)(k+1)),

and the sign pattern of (mu, nu) selects one of nine spectral classes.  The
first quadrant off the diagonal is Meixner-type (discrete spectrum bounded
below), the third its mirror, the axes are Laguerre-type (half-line
continuum), the even quadrants Meixner-Pollaczek-type (full-line
continuum), and the diagonal is already diagonal in the sector basis.

``classify`` returns the class as a ``jacobi.Chain``: H = scale * J_family
with b_k times offdiag_sign, and atoms at scale (2n + alpha0) in 5-9.

    class  conditions        family                           scale           sign
    1      nu = 0, mu != 0   Laguerre(alpha0 - 1)             mu/2            +1
    2      mu = 0, nu != 0   Laguerre(alpha0 - 1)             nu/2            -1
    3      mu > 0 > nu       MeixnerPollaczek(alpha0/2, phi)  2 sqrt(-mu nu)  +1
    4      mu < 0 < nu       MeixnerPollaczek(alpha0/2, phi)  -2 sqrt(-mu nu) +1
    5      mu > nu > 0       Meixner(alpha0, c)               sqrt(mu nu)     +1
    6      mu < nu < 0       Meixner(alpha0, c')              -sqrt(mu nu)    +1
    7      nu > mu > 0       Meixner(alpha0, c)               sqrt(mu nu)     -1
    8      nu < mu < 0       Meixner(alpha0, c')              -sqrt(mu nu)    -1
    9      mu = nu != 0      None (diagonal)                  mu              +1

with phi = arccos(-(mu+nu)/(mu-nu)), c = (mu+nu-2 sqrt(mu nu))/(mu+nu+2 sqrt(mu nu))
and c' the same with +-2 sqrt(mu nu) swapped.  Case boundaries are exact
sign tests; callers pass exact zeros when they mean the axes.  A negative
scale turns the spectrum over: classes 6, 8 and 9 with mu < 0 are bounded
above, and their atoms pair with the top of a truncation (``Chain.pairs_top``).

``evolve`` applies exp(-i t H) (the phases of ``jacobi.spectral_apply``),
one row per time, and checks no truncation tail: the package has one tail
monitor, the per-mode check of ``evolution.run_series`` and ``evolve_full``
against the ``FullModel``'s tolerance.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, TruncationOverflowError
from .jacobi import Chain, JacobiOperator, oracle_eigh, spectral_apply, spectral_coeffs
from .orthopoly import Laguerre, Meixner, MeixnerPollaczek
from .rep import OneModeSector, sector_coeffs

__all__ = [
    "OneModeHamiltonian",
    "jacobi",
    "classify",
    "evolve",
]


@dataclass(frozen=True)
class OneModeHamiltonian:
    """H on a truncated sector; ParameterError as for ``classify``, or when
    |a_k| + 2 |b_k| of the last level overflows."""

    mu: float
    nu: float
    sector: OneModeSector

    def __post_init__(self):
        classify(self.mu, self.nu, self.sector.alpha0)
        op, k = jacobi(self), self.sector.n_levels - 1.0
        with np.errstate(over="ignore", invalid="ignore"):    # inf or nan fails below
            bound = abs(op.diag(k)) + 2.0 * abs(op.offdiag(k))
        if not bound < math.inf:
            raise ParameterError(("mu", "nu", "alpha0", "n_levels"), "the Jacobi "
                                 "coefficients overflow float64 at the truncation")


def jacobi(h: OneModeHamiltonian) -> JacobiOperator:
    """Jacobi coefficients of H on the sector basis: (mu + nu)/2 times the
    A0 stream and (mu - nu)/2 times the A+ stream of ``rep.sector_coeffs``."""
    diag, _, raising = sector_coeffs(h.sector)
    ca = 0.5 * (h.mu + h.nu)
    cb = 0.5 * (h.mu - h.nu)
    return JacobiOperator(
        diag=lambda k: ca * diag(k),
        offdiag=lambda k: cb * raising(k),
        size=h.sector.n_levels,
    )


def classify(mu: float, nu: float, alpha0: float) -> Chain:
    """The class of (mu, nu) as its chain record (module docstring).
    ParameterError names alpha0 unless it is finite with alpha0 - 1 above
    -1 in floats, and mu and nu when they are not finite, are (0, 0), or
    round their family out of its domain (mu nu past the double range,
    Meixner c to 1, phi to 0 or pi)."""
    if not (math.isfinite(mu) and math.isfinite(nu)) or mu == 0 and nu == 0:
        raise ParameterError(("mu", "nu"), f"labels ({mu}, {nu}) not finite or both 0")
    if not (math.isfinite(alpha0) and alpha0 - 1.0 > -1.0):
        raise ParameterError(("alpha0",), f"alpha0 {alpha0} not finite or rounds to 0")
    if mu == nu:
        return _discrete(None, mu, 1.0, alpha0, 9)
    if nu == 0:
        return Chain(Laguerre(alpha0 - 1.0), mu / 2.0, index=1)
    if mu == 0:
        return Chain(Laguerre(alpha0 - 1.0), nu / 2.0, offdiag_sign=-1.0, index=2)
    if (mu > 0) != (nu > 0):
        phi = math.acos(-(mu + nu) / (mu - nu))
        s = 2.0 * math.sqrt(-mu * nu)
        if not (0 < phi < math.pi and 0 < s < math.inf):
            raise ParameterError(("mu", "nu"), f"labels ({mu}, {nu}) round phi or the scale")
        if mu > 0:
            return Chain(MeixnerPollaczek(alpha0 / 2.0, phi), s, index=3)
        return Chain(MeixnerPollaczek(alpha0 / 2.0, phi), -s, index=4)
    root = 2.0 * math.sqrt(mu * nu)
    if mu > 0:
        c = (mu + nu - root) / (mu + nu + root)
        sign, idx = (1.0, 5) if mu > nu else (-1.0, 7)
    else:
        c = (mu + nu + root) / (mu + nu - root)
        sign, idx = (1.0, 6) if mu < nu else (-1.0, 8)
    if not 0 < c < 1:
        raise ParameterError(("mu", "nu"), f"labels ({mu}, {nu}) round Meixner c to {c}")
    scale = math.sqrt(mu * nu)
    return _discrete(Meixner(alpha0, c), scale if mu > 0 else -scale, sign, alpha0, idx)


def _discrete(family, scale: float, sign: float, alpha0: float, index: int) -> Chain:
    """A discrete class, with atoms at scale (2n + alpha0)."""
    return Chain(family, scale, offdiag_sign=sign, index=index,
                 atom_stream=lambda n: scale * (2.0 * n + alpha0))


def _expand_discrete(h: OneModeHamiltonian, chain: Chain, psi: np.ndarray):
    """Eigenvectors, energies and coefficients of the leading closed-form
    eigenpairs whose coefficients leave a directly summed tail of at most
    eps^2 |psi|^2 (eps the float64 epsilon): the dropped coefficients are
    below eps |psi| together, so the expansion returns psi at t = 0 to
    roundoff.  The first 4N columns are tried, then twice as many while no
    such tail is left or while they hold less than (1 - sqrt(eps)) |psi|^2 of
    the |psi|^2 all coefficients hold (Parseval: the kernel's columns are
    complete and orthonormal over the untruncated chain), as long as N rows
    of them stay within max(4 N^2, 2^22) kernel entries (32 MiB).
    TruncationOverflowError past that bound: the state spreads past them."""
    size = psi.size
    nz = np.flatnonzero(psi)
    rows = int(nz[-1]) + 1 if nz.size else 1
    op = jacobi(h)
    total = float(np.vdot(psi, psi).real)
    eps = np.finfo(float).eps
    cap = 4 * size
    while size * cap <= max(4 * size * size, 2 ** 22):
        coeffs = spectral_coeffs(chain.eigenvectors(op, rows, cap), psi[:rows])
        tail = np.cumsum(np.abs(coeffs[::-1]) ** 2)[::-1]
        done = np.flatnonzero(tail <= eps ** 2 * total)
        if total - tail[0] <= math.sqrt(eps) * total and done.size:
            m = int(done[0])
            return chain.eigenvectors(op, size, m), chain.atoms(m), coeffs[:m]
        cap *= 2
    raise TruncationOverflowError(
        f"the first {cap // 2} eigen-expansion coefficients hold {tail[0] / total:.2e} "
        "of |psi|^2 or leave a tail above eps^2; the state spreads past them")


def evolve(h: OneModeHamiltonian, psi, t) -> np.ndarray:
    """Apply exp(-i t H) to the amplitude array psi at a time t, or at every
    time of a 1-d array t: shape (N,) at a scalar t, (n_times, N) with one
    row per time of an array t.

    The spectral data is taken once per call, whatever the number of times:
    one closed-form eigen-expansion of psi in the discrete cases 5-8, one
    (LAPACK) eigendecomposition of the truncated Jacobi operator in the
    continuous cases 1-4, the diagonal energies in case 9.  So the cases
    evolve different models: 1-4 the truncated window, unitarily, and 5-8
    the untruncated chain, whose eigenvectors the closed form gives, read on
    the window's levels, so the result's norm falls as the state leaves the
    window (case 9 is diagonal, and the two agree).  Every case
    applies its phases through ``jacobi.spectral_apply``; cases 1-8 project
    psi and apply them in real arithmetic against the real eigenvectors
    (``jacobi.spectral_coeffs``), so no complex copy of an eigenvector
    matrix is made.  The closed-form expansion keeps every eigenpair until
    the coefficient tail is below eps^2 |psi|^2, so it returns psi at t = 0
    to roundoff, and raises TruncationOverflowError when no affordable
    number of terms holds psi (``_expand_discrete``); the truncation tail of
    the evolved state is left to ``evolution.run_series`` and
    ``evolve_full``.  ParameterError unless psi is 1-d with one amplitude
    per level of the sector's window, and naming t (with the row) at the
    first time whose phases are not finite (``jacobi.spectral_apply``).
    """
    psi = np.asarray(psi, dtype=complex)
    size = h.sector.n_levels
    if psi.shape != (size,):
        raise ParameterError(("psi",), f"need a 1-d state of {size} amplitudes for "
                             f"the sector's window, got shape {psi.shape}")
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ParameterError(("t",), "t must be a scalar or a 1-d array of times")
    chain = classify(h.mu, h.nu, h.sector.alpha0)
    if chain.family is None:
        vecs, energies, coeffs = None, chain.atoms(size), psi
    elif chain.atom_stream is not None:
        vecs, energies, coeffs = _expand_discrete(h, chain, psi)
    else:
        energies, vecs = oracle_eigh(jacobi(h))
        coeffs = spectral_coeffs(vecs, psi)
    out = spectral_apply(vecs, energies, coeffs, np.atleast_1d(times))
    return out[0] if times.ndim == 0 else out
