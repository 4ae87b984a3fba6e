"""Two-mode cluster Hamiltonians built from a pair of ladder triples.

The interaction is H = (1/2)(C_D - C_A - C_B) where C_D is the Casimir of
the diagonal subalgebra twisted by two group elements (a, sigma), (b, tau).
Expanded in products of the mode triples:

    H =  (a^2+b^2)/(4ab) A0 B0
       - sigma tau (a-b)^2/(4ab) (A+ B+ + A- B-)
       - sigma (a^2-b^2)/(4ab) (A+ B0 + A- B0)
       + tau  (a^2-b^2)/(4ab) (A0 B- + A0 B+)
       - sigma tau (a+b)^2/(4ab) (A+ B- + A- B+).

The conserved combination D0 = A0 +- B0 splits each sector into blocks:

* D-form (``canonical_matrix('D')``, group elements (1,-1), (1,+1)):
  (1/2) A0 B0 + A+ B- + A- B+ on finite blocks |k, K-k>, k = 0..K.  Note the
  middle interaction: it is the combination that commutes with A0 + B0 and
  whose matrix elements match the block coefficients below; the pair
  A+ B+ + A- B- does not commute with A0 + B0.
* C-form (``canonical_matrix('C')``, group elements (1,-1), (-1,+1)):
  -[(1/2) A0 B0 + A+ B+ + A- B-] on semi-infinite blocks |K+k, k> (K >= 0)
  or |k, k-K> (K < 0).

D-block coefficients (operator-derived convention, the default):

    a_k = (1/2)(2k + alpha0)(2(K-k) + beta0),
    b_k = sqrt((k+1)(k+alpha0)(K-k)(K-k+beta0-1)).

A variant with (K-k+beta0) in the last factor circulates in derivations
of these block coefficients; it does not reproduce the closed-form
spectrum E_n = n(n + alpha0 + beta0 - 1) + alpha0 beta0 / 2 and is kept
behind ``convention='printed'`` purely as a pinned regression.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse as sp

from .errors import BoundaryAmbiguityError, NoBoundStateError
from .jacobi import (JacobiOperator, block_eigenvectors, forward_eigenvector,
                     oracle_eigs)
from .orthopoly import ContinuousDualHahn, DualHahn, SpectralMeasure, pochhammer
from .rep import MultibosonRep, OneModeSector, StateVector, sector_matrices
from .bogoliubov import GroupElement

__all__ = [
    "TwoModeRep",
    "TwoModeHamiltonian",
    "DBlock",
    "CBlock",
    "UVWParams",
    "build_h_matrix",
    "canonical_matrix",
    "manley_rowe_blocks",
    "hd_block_jacobi",
    "hd_spectrum",
    "hd_eigenvectors",
    "hd_family",
    "hc_block_jacobi",
    "hc_family",
    "uvw_params",
    "continuum_shift",
    "hc_spectrum",
    "hc_eigenvectors_discrete",
    "hc_truncation_check",
    "coupling_functions",
]


@dataclass(frozen=True)
class TwoModeRep:
    rep0: MultibosonRep
    rep1: MultibosonRep


@dataclass(frozen=True)
class TwoModeHamiltonian:
    reps: TwoModeRep
    g: GroupElement
    h: GroupElement
    sector: tuple[int, int]

    def __post_init__(self):
        r0, r1 = self.sector
        if not 0 <= r0 < self.reps.rep0.l or not 0 <= r1 < self.reps.rep1.l:
            raise ValueError(f"sector {self.sector} outside representation")

    def alpha0(self) -> float:
        return self.reps.rep0.alpha0_init[self.sector[0]]

    def beta0(self) -> float:
        return self.reps.rep1.alpha0_init[self.sector[1]]


def _mode_matrices(reps: TwoModeRep, sector: tuple[int, int], n: int):
    s0 = OneModeSector(reps.rep0, sector[0], n)
    s1 = OneModeSector(reps.rep1, sector[1], n)
    return sector_matrices(s0), sector_matrices(s1)


def build_h_matrix(h: TwoModeHamiltonian, n_per_mode: int) -> np.ndarray:
    """Truncated interaction matrix on the (r0, r1) product basis
    |k0, k1>, flattened as k0 * n_per_mode + k1.

    Assembled as a sum of sparse Kronecker terms and densified once, so the
    peak memory is one dense n_per_mode^2 x n_per_mode^2 result."""
    (a0, am, ap), (b0, bm, bp) = _mode_matrices(h.reps, h.sector, n_per_mode)
    a, s = h.g.a, h.g.sigma
    b, t = h.h.a, h.h.sigma
    c_00 = (a * a + b * b) / (4 * a * b)
    c_pp = -s * t * (a - b) ** 2 / (4 * a * b)
    c_p0 = -s * (a * a - b * b) / (4 * a * b)
    c_0p = t * (a * a - b * b) / (4 * a * b)
    c_pm = -s * t * (a + b) ** 2 / (4 * a * b)
    k = partial(sp.kron, format="csr")
    return (c_00 * k(a0, b0)
            + c_pp * (k(ap, bp) + k(am, bm))
            + c_p0 * (k(ap, b0) + k(am, b0))
            + c_0p * (k(a0, bm) + k(a0, bp))
            + c_pm * (k(ap, bm) + k(am, bp))).toarray()


def canonical_matrix(kind: str, reps: TwoModeRep, sector: tuple[int, int],
                     n_per_mode: int) -> np.ndarray:
    """Canonical D-form or C-form interaction on the product basis.

    Assembled as a sum of sparse Kronecker terms and densified once, so the
    peak memory is one dense n_per_mode^2 x n_per_mode^2 result."""
    (a0, am, ap), (b0, bm, bp) = _mode_matrices(reps, sector, n_per_mode)
    k = partial(sp.kron, format="csr")
    if kind == "D":
        return (0.5 * k(a0, b0) + k(ap, bm) + k(am, bp)).toarray()
    if kind == "C":
        return (-(0.5 * k(a0, b0) + k(ap, bp) + k(am, bm))).toarray()
    raise ValueError(f"kind must be 'D' or 'C', got {kind!r}")


@dataclass(frozen=True)
class DBlock:
    """Finite invariant block of the D-form: K+1 states |k, K-k>."""

    K: int
    alpha0: float
    beta0: float

    def __post_init__(self):
        if self.K < 0:
            raise ValueError(f"D-blocks need K >= 0, got {self.K}")
        if self.alpha0 <= 0 or self.beta0 <= 0:
            raise ValueError("alpha0 and beta0 must be positive")

    def basis(self) -> list[tuple[int, int]]:
        return [(k, self.K - k) for k in range(self.K + 1)]


@dataclass(frozen=True)
class CBlock:
    """Semi-infinite invariant block of the C-form, truncated to n_levels."""

    K: int
    alpha0: float
    beta0: float
    n_levels: int = 4000

    def __post_init__(self):
        if self.alpha0 <= 0 or self.beta0 <= 0:
            raise ValueError("alpha0 and beta0 must be positive")
        if self.n_levels < 2:
            raise ValueError(f"need n_levels >= 2, got {self.n_levels}")

    def basis(self) -> list[tuple[int, int]]:
        if self.K >= 0:
            return [(self.K + k, k) for k in range(self.n_levels)]
        return [(k, k - self.K) for k in range(self.n_levels)]


def manley_rowe_blocks(kind: str, k_values, alpha0: float, beta0: float,
                       n_levels: int = 4000):
    """Blocks of the conserved D0 = A0 + B0 (D) or A0 - B0 (C) labelled by K."""
    if kind == "D":
        return [DBlock(K, alpha0, beta0) for K in k_values]
    if kind == "C":
        return [CBlock(K, alpha0, beta0, n_levels) for K in k_values]
    raise ValueError(f"kind must be 'D' or 'C', got {kind!r}")


def hd_block_jacobi(block: DBlock, convention: str = "operator-derived") -> JacobiOperator:
    a0, b0, K = block.alpha0, block.beta0, block.K
    if convention == "operator-derived":
        shift = b0 - 1.0
    elif convention == "printed":
        shift = b0
    else:
        raise ValueError(f"unknown convention {convention!r}")
    def diag(k):
        return 0.5 * (2.0 * k + a0) * (2.0 * (K - k) + b0)
    def offdiag(k):
        return np.sqrt((k + 1.0) * (k + a0) * (K - k) * (K - k + shift))
    return JacobiOperator(diag, offdiag, K + 1)


def hd_spectrum(block: DBlock) -> np.ndarray:
    """Closed-form D-block eigenvalues n(n + alpha0 + beta0 - 1) + alpha0 beta0 / 2."""
    n = np.arange(block.K + 1, dtype=float)
    return n * (n + block.alpha0 + block.beta0 - 1.0) + 0.5 * block.alpha0 * block.beta0


def hd_family(block: DBlock) -> DualHahn:
    return DualHahn(block.alpha0 - 1.0, block.beta0 - 1.0, block.K)


def hd_eigenvectors(block: DBlock, n: int) -> StateVector:
    """Normalized eigenvector of the D-block at the nth closed-form eigenvalue:
    column n of the whole block's inverse-iteration eigenvectors
    (``jacobi.block_eigenvectors``), so vectors of different n are orthogonal
    to roundoff; component 0 positive."""
    if not 0 <= n <= block.K:
        raise ValueError(f"n must be in [0, {block.K}], got {n}")
    vecs = block_eigenvectors(hd_block_jacobi(block), hd_spectrum(block))
    return StateVector(vecs[:, n].astype(complex), sector=block)


def hc_block_jacobi(block: CBlock) -> JacobiOperator:
    a0, b0, K = block.alpha0, block.beta0, block.K
    if K >= 0:
        def diag(k):
            return -0.5 * (2.0 * (K + k) + a0) * (2.0 * k + b0)
        def offdiag(k):
            return -np.sqrt((K + k + a0) * (K + k + 1.0) * (k + b0) * (k + 1.0))
    else:
        def diag(k):
            return -0.5 * (2.0 * k + a0) * (2.0 * (k - K) + b0)
        def offdiag(k):
            return -np.sqrt((k + a0) * (k + 1.0) * (k - K + b0) * (k - K + 1.0))
    return JacobiOperator(diag, offdiag, block.n_levels)


@dataclass(frozen=True)
class UVWParams:
    """Branch-selected family parameters of a C-block."""

    u: float
    v: float
    w: float
    branch: str

    def __post_init__(self):
        if self.v <= 0 or self.w <= 0 or self.u + self.v <= 0 or self.u + self.w <= 0:
            raise ValueError(
                f"inadmissible parameters u={self.u}, v={self.v}, w={self.w}"
            )


def uvw_params(K: int, alpha0: float, beta0: float) -> UVWParams:
    """Family parameters of the C-block with label K.

    The assignment is piecewise in d = beta0 - alpha0 over open intervals;
    an exact boundary hit raises BoundaryAmbiguityError carrying both
    adjacent triples.
    """
    d = beta0 - alpha0
    half_sum = 0.5 * (alpha0 + beta0 - 1.0)
    if K >= 0:
        lo_t = (0.5 * (d + 1.0), K + 0.5 * (1.0 - d), half_sum)
        mid_t = (half_sum, 0.5 * (d + 1.0), K + 0.5 * (1.0 - d))
        hi_t = (K + 0.5 * (1.0 - d), half_sum, 0.5 * (d + 1.0))
        edges = (-1.0, 2.0 * K + 1.0)
    else:
        lo_t = (-K + 0.5 * (d + 1.0), 0.5 * (1.0 - d), half_sum)
        mid_t = (half_sum, -K + 0.5 * (d + 1.0), 0.5 * (1.0 - d))
        hi_t = (0.5 * (1.0 - d), half_sum, -K + 0.5 * (d + 1.0))
        edges = (2.0 * K - 1.0, 1.0)
    # candidates at an exact boundary are degenerate (a parameter hits 0),
    # so they are carried as raw triples, not validated records
    if d == edges[0]:
        raise BoundaryAmbiguityError(
            f"beta0 - alpha0 = {d} sits on a branch boundary",
            candidates=({"u": lo_t[0], "v": lo_t[1], "w": lo_t[2], "branch": "low"},
                        {"u": mid_t[0], "v": mid_t[1], "w": mid_t[2],
                         "branch": "middle"}))
    if d == edges[1]:
        raise BoundaryAmbiguityError(
            f"beta0 - alpha0 = {d} sits on a branch boundary",
            candidates=({"u": mid_t[0], "v": mid_t[1], "w": mid_t[2],
                         "branch": "middle"},
                        {"u": hi_t[0], "v": hi_t[1], "w": hi_t[2], "branch": "high"}))
    if d < edges[0]:
        return UVWParams(*lo_t, "low")
    if d < edges[1]:
        return UVWParams(*mid_t, "middle")
    return UVWParams(*hi_t, "high")


def continuum_shift(alpha0: float, beta0: float) -> float:
    """s with spectrum(C-block) = (-inf, -s) plus atoms (u+n)^2 - s."""
    return 0.25 * ((alpha0 - 1.0) ** 2 + (beta0 - 1.0) ** 2 - 1.0)


def hc_family(block: CBlock) -> ContinuousDualHahn:
    p = uvw_params(block.K, block.alpha0, block.beta0)
    return ContinuousDualHahn(p.u, p.v, p.w)


def hc_spectrum(block: CBlock, normalize: bool = False) -> SpectralMeasure:
    """Spectral measure of the C-block: continuum on (-inf, -s) plus
    ceil(-u) atoms at (u+n)^2 - s when u < 0."""
    fam = hc_family(block)
    s = continuum_shift(block.alpha0, block.beta0)
    return fam.measure(normalize=normalize).mapped(shift=-s)


def hc_eigenvectors_discrete(block: CBlock, n: int) -> StateVector:
    """Truncated normalized bound-state vector number n (requires u + n < 0).

    Components decay only algebraically, so the truncated vector converges
    slowly in n_levels.  The plain forward sweep
    ``jacobi.forward_eigenvector`` (p_0 = 1) needs no stabilizing: the
    solution dichotomy is polynomial, not exponential.
    """
    p = uvw_params(block.K, block.alpha0, block.beta0)
    if p.u + n >= 0:
        raise NoBoundStateError(
            f"u + n = {p.u + n} >= 0: no bound state with index {n}")
    s = continuum_shift(block.alpha0, block.beta0)
    e = (p.u + n) ** 2 - s
    vec = forward_eigenvector(hc_block_jacobi(block), e)
    return StateVector(vec.astype(complex), sector=block, tail_tol=1.0)


@dataclass(frozen=True)
class TruncationCheck:
    """Richardson-accelerated bound-state estimates from three truncations.

    ``agreement`` compares the bound-state eigenvalues of the full and half
    truncations only; the continuum cluster below them drifts with the
    cutoff by construction and is excluded.
    """

    top_full: np.ndarray      # largest eigenvalues at n_levels
    top_half: np.ndarray      # same at n_levels / 2
    extrapolated: np.ndarray  # empirical-order Richardson estimate
    n_bound: int              # closed-form bound-state count
    agreement: float          # max |full - half| over the bound states
    converged: bool           # agreement <= 1e-3


def hc_truncation_check(block: CBlock, count: int | None = None) -> TruncationCheck:
    """Bound-state oracle: top eigenvalues of three nested truncations with
    empirical-order Richardson extrapolation.

    Only the highest ``count`` eigenvalues (default: the bound states plus
    the continuum edge) of the truncations at n_levels, n_levels // 2 and
    n_levels // 4 are computed; bisection costs O(n_levels) per step for each
    of them, not for the whole spectrum.  Raises ``ValueError`` when the
    quarter truncation has fewer than ``count`` levels.

    Convergence in n_levels is slow (the bound-state tails are polynomial),
    so the raw top eigenvalues are reported together with the extrapolated
    values; ``converged`` requires the full and half truncations to agree
    on every bound state within 1e-3.
    """
    n_bound = hc_family(block).n_atoms()
    if count is None:
        count = n_bound + 1
    n = block.n_levels
    if n // 4 < count:
        raise ValueError(f"n_levels // 4 = {n // 4} is below count = {count}: "
                         "the quarter truncation cannot hold the window")
    op = hc_block_jacobi(block)
    full, half, quarter = (oracle_eigs(op, count=count, n=m, top=True)
                           for m in (n, n // 2, n // 4))
    num = half - quarter
    den = full - half
    extrap = np.empty(count)
    for i in range(count):
        if den[i] != 0 and num[i] / den[i] > 1.0:
            rate = num[i] / den[i]
            extrap[i] = full[i] + den[i] / (rate - 1.0)
        else:
            extrap[i] = full[i]
    k = min(n_bound, count)
    agreement = float(np.abs(den[count - k:]).max()) if k else 0.0
    return TruncationCheck(full, half, extrap, n_bound, agreement,
                           agreement <= 1e-3)


def _ladder_up(n: int, l: int) -> float:
    """<n + l| (a*)^l |n> = sqrt((n+1)...(n+l))."""
    return math.sqrt(pochhammer(n + 1.0, l))


def coupling_functions(h: TwoModeHamiltonian, grid, n_per_mode: int | None = None):
    """Intensity-dependent coupling samples read off the interaction matrix.

    The interaction has the normal form

        g00(n0, n1) + gpm(n0, n1) (a0*)^l0 a1^l1 + gm0(n0, n1) a0^l0
        + g0m(n0, n1) a1^l1 + gmm(n0, n1) a0^l0 a1^l1 + h.c.

    with every coefficient a function of the number operators standing to
    the left of the ladder monomial.  Samples are returned at the bra
    occupation: e.g. gmm[(n0, n1)] multiplies the transition
    |n0 + l0, n1 + l1> -> |n0, n1>.  Grid points are physical occupation
    pairs compatible with the sector.
    """
    l0, l1 = h.reps.rep0.l, h.reps.rep1.l
    r0, r1 = h.sector
    pts = list(grid)
    for n0, n1 in pts:
        if n0 % l0 != r0 or n1 % l1 != r1:
            raise ValueError(f"grid point ({n0}, {n1}) not in sector {h.sector}")
    if n_per_mode is None:
        n_per_mode = max(max(n0 // l0, n1 // l1) for n0, n1 in pts) + 3
    m = build_h_matrix(h, n_per_mode)
    def idx(n0, n1):
        return (n0 // l0) * n_per_mode + (n1 // l1)
    out = {"g00": {}, "gpm": {}, "gm0": {}, "g0m": {}, "gmm": {}}
    for n0, n1 in pts:
        i = idx(n0, n1)
        out["g00"][(n0, n1)] = m[i, i]
        if n1 // l1 + 1 < n_per_mode and n0 >= l0:
            out["gpm"][(n0, n1)] = (m[i, idx(n0 - l0, n1 + l1)]
                                    / (_ladder_up(n0 - l0, l0) * _ladder_up(n1, l1)))
        if n0 // l0 + 1 < n_per_mode:
            out["gm0"][(n0, n1)] = m[i, idx(n0 + l0, n1)] / _ladder_up(n0, l0)
        if n1 // l1 + 1 < n_per_mode:
            out["g0m"][(n0, n1)] = m[i, idx(n0, n1 + l1)] / _ladder_up(n1, l1)
        if n0 // l0 + 1 < n_per_mode and n1 // l1 + 1 < n_per_mode:
            out["gmm"][(n0, n1)] = (m[i, idx(n0 + l0, n1 + l1)]
                                    / (_ladder_up(n0, l0) * _ladder_up(n1, l1)))
    return out
