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

* D-form (``canonical_matrix('D')``, H at ``CANONICAL_TWISTS['D']``):
  (1/2) A0 B0 + A+ B- + A- B+ on finite blocks |k, K-k>, k = 0..K.  Note the
  middle interaction: it is the combination that commutes with A0 + B0 and
  whose matrix elements match the block coefficients below; the pair
  A+ B+ + A- B- does not commute with A0 + B0.
* C-form (``canonical_matrix('C')``, H at ``CANONICAL_TWISTS['C']``):
  -[(1/2) A0 B0 + A+ B+ + A- B-] on semi-infinite blocks |s0 + k, s1 + k>,
  k >= 0, with offsets (s0, s1) = (max(K, 0), max(-K, 0)): the one rule
  behind ``window_block``, ``hc_block_jacobi`` and ``uvw_params``.

The window rule: in an n x n window flattened as k0 n + k1, ``charges``
labels a position k0 + k1 (D) or k0 - k1 (C), and ``window_block`` gives the
charge-q block's positions, ascending in k0, and its Jacobi operator viewed
from the block level where the window's part starts: q - n + 1 for a D-block
the window cuts (q >= n), else 0.  The corner blocks hold one state (D:
q = 0 and 2n - 2; C: |q| = n - 1).

D-block coefficients, derived from the operator:

    a_k = (1/2)(2k + alpha0)(2(K-k) + beta0),
    b_k = sqrt((k+1)(k+alpha0)(K-k)(K-k+beta0-1)).

Its eigenvectors are dual Hahn functions, terminating 3F2 sums (Koekoek,
Lesky & Swarttouw, 2010, section 9.6); ``hd_chain(block).eigenvectors``
takes the LAPACK oracle's columns, which ``validate`` holds to that closed
form, sign included.  A C-block is one continuous dual Hahn family
(``uvw_params``), its parameters rotated so that a nonpositive one comes
first, which makes an exact branch edge u = 0 with no atom; its bound states
are the columns of ``hc_chain(block).eigenvectors``.

Erratum: a variant with (K-k+beta0) in the last factor circulates in
derivations of these block coefficients; it does not reproduce the
closed-form spectrum E_n = n(n + alpha0 + beta0 - 1) + alpha0 beta0 / 2.
Its miss is pinned by the ``twomode.hd.regression_pin_gap`` check of
``validation.run_all``, which builds that variant itself.
"""

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .errors import ParameterError
from .jacobi import Chain, JacobiOperator, oracle_eigs
from .orthopoly import ContinuousDualHahn, DualHahn
from .rep import MultibosonRep, OneModeSector, sector_matrices
from .bogoliubov import GroupElement

__all__ = [
    "CANONICAL_TWISTS",
    "TwoModeRep",
    "TwoModeHamiltonian",
    "DBlock",
    "CBlock",
    "build_h_matrix",
    "canonical_matrix",
    "hd_block_jacobi",
    "hd_chain",
    "hc_block_jacobi",
    "charges",
    "window_block",
    "hc_chain",
    "uvw_params",
    "continuum_shift",
    "hc_truncation_check",
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
            raise ParameterError(("sector",), f"sector {self.sector} outside representation")


def _entries(h: TwoModeHamiltonian, n_per_mode: int):
    """The nonzero entries of the truncated interaction on the (r0, r1)
    product basis |k0, k1>, flattened as k0 * n_per_mode + k1, as one
    (rows, cols, values) triplet per Kronecker term x (x) y of the expansion
    in the module docstring.  Each mode operator is one diagonal of its
    sector matrix (A0 on the main diagonal, A- above, A+ = (A-)^T below), so
    each entry of coefficient c is written once as c * (x_ij * y_kl), and
    every term whose coefficient is zero is skipped.  The terms step
    (k0, k1) by distinct (dk0, dk1), so no two write the same position and
    nothing is summed."""
    n = n_per_mode
    k = np.arange(n)

    def mode(rep, r):
        # each operator as (its row levels, the step to its column level,
        # values), the values read off the diagonals of the sector matrices
        a0, am, _ = sector_matrices(OneModeSector(rep, r, n))
        e = np.diagonal(am, 1)
        return {"0": (k, 0, np.diagonal(a0)), "-": (k[:-1], 1, e), "+": (k[1:], -1, e)}

    x, y = (mode(rep, r) for rep, r in zip((h.reps.rep0, h.reps.rep1), h.sector))
    s, t = h.g.sigma, h.h.sigma
    # ratios of degree-2 forms: an exact power of two near max(|a|, |b|)
    # keeps them in range, and squares as products (not libm pow) move no bit
    unit = 2.0 ** round(math.log2(max(abs(h.g.a), abs(h.h.a))))
    a, b = h.g.a / unit, h.h.a / unit
    ab4, dif, tot = 4 * a * b, a - b, a + b
    try:
        terms = (((a * a + b * b) / ab4, ["00"]),
                 (-s * t * (dif * dif) / ab4, ["++", "--"]),
                 (-s * (a * a - b * b) / ab4, ["+0", "-0"]),
                 (t * (a * a - b * b) / ab4, ["0-", "0+"]),
                 (-s * t * (tot * tot) / ab4, ["+-", "-+"]))
    except ZeroDivisionError:
        terms = None
    if terms is None or not all(math.isfinite(c) for c, _ in terms):
        raise ParameterError(("g", "h"), f"group elements a = {h.g.a!r} and b = {h.h.a!r} give "
                             "a Kronecker expansion coefficient past the double range")
    for c, pairs in terms:
        if c == 0:
            continue
        for p, q in pairs:
            (rx, dx, vx), (ry, dy, vy) = x[p], y[q]
            rows = np.add.outer(rx * n, ry).ravel()
            yield rows, rows + (dx * n + dy), (c * np.multiply.outer(vx, vy)).ravel()


def _kron_sum(h: TwoModeHamiltonian, n_per_mode: int) -> sp.csr_matrix:
    """Truncated interaction on the (r0, r1) product basis |k0, k1>,
    flattened as k0 * n_per_mode + k1, as CSR: the entries of ``_entries``
    stored once each, in one ``csr_matrix`` build."""
    rows, cols, values = (np.concatenate(z) for z in zip(*_entries(h, n_per_mode)))
    size = n_per_mode * n_per_mode
    return sp.csr_matrix((values, (rows, cols)), shape=(size, size))


def build_h_matrix(h: TwoModeHamiltonian, n_per_mode: int) -> np.ndarray:
    """Truncated interaction matrix on the (r0, r1) product basis |k0, k1>,
    flattened as k0 * n_per_mode + k1: the nonzero entries of the Kronecker
    expansion (``_entries``) written into one zero dense n_per_mode^2 x
    n_per_mode^2 array, which is the peak memory."""
    size = n_per_mode * n_per_mode
    out = np.zeros((size, size))
    for rows, cols, values in _entries(h, n_per_mode):
        out[rows, cols] = values
    return out


# the canonical forms as twists (g, h) of the diagonal Casimir
CANONICAL_TWISTS = {
    "D": (GroupElement(1.0, -1), GroupElement(1.0, 1)),
    "C": (GroupElement(1.0, -1), GroupElement(-1.0, 1)),
}


def _kind(kind: str) -> str:
    """``kind`` if it names a canonical form, "D" or "C"; else
    ParameterError naming it."""
    if kind not in CANONICAL_TWISTS:
        raise ParameterError(("kind",), f"kind must be 'D' or 'C', got {kind!r}")
    return kind


def canonical_matrix(kind: str, reps: TwoModeRep, sector: tuple[int, int],
                     n_per_mode: int) -> np.ndarray:
    """Canonical D-form or C-form interaction on the product basis: H at
    the twists ``CANONICAL_TWISTS[kind]``, by ``build_h_matrix``."""
    h = TwoModeHamiltonian(reps, *CANONICAL_TWISTS[_kind(kind)], sector)
    return build_h_matrix(h, n_per_mode)


def _check_labels(alpha0: float, beta0: float, levels: int, names: tuple):
    """ParameterError unless alpha0 and beta0 are finite with alpha0 - 1 and
    beta0 - 1 above -1 in floats, and the coefficients to level ``levels``
    (set also by ``names``) bounded by 2 (2 levels + alpha0 + beta0)^2."""
    for name, x in (("alpha0", alpha0), ("beta0", beta0)):
        if not (math.isfinite(x) and x - 1.0 > -1.0):
            raise ParameterError((name,), f"{name} {x} not finite or rounds to 0")
    top = 2.0 * levels + alpha0 + beta0    # top * top: no OverflowError
    if not 2.0 * top * top < math.inf:
        raise ParameterError(("alpha0", "beta0") + names, "block coefficients overflow")


@dataclass(frozen=True)
class DBlock:
    """Finite invariant block of the D-form: K+1 states |k, K-k>."""

    K: int
    alpha0: float
    beta0: float

    def __post_init__(self):
        if self.K < 0:
            raise ParameterError(("K",), f"D-blocks need K >= 0, got {self.K}")
        _check_labels(self.alpha0, self.beta0, self.K, ("K",))


@dataclass(frozen=True)
class CBlock:
    """Semi-infinite invariant block of the C-form, truncated to n_levels."""

    K: int
    alpha0: float
    beta0: float
    n_levels: int = 4000

    def __post_init__(self):
        if self.n_levels < 2:
            raise ParameterError(("n_levels",), f"need n_levels >= 2, got {self.n_levels}")
        _check_labels(self.alpha0, self.beta0, abs(self.K) + self.n_levels,
                      ("n_levels", "K"))


def _offsets(K: int) -> tuple[int, int]:
    """(s0, s1) of the C-block of label K, whose states are |s0 + k, s1 + k>."""
    return max(K, 0), max(-K, 0)


def hd_block_jacobi(block: DBlock) -> JacobiOperator:
    a0, b0, K = block.alpha0, block.beta0, block.K
    shift = b0 - 1.0
    def diag(k):
        return 0.5 * (2.0 * k + a0) * (2.0 * (K - k) + b0)
    def offdiag(k):
        return np.sqrt((k + 1.0) * (k + a0) * (K - k) * (K - k + shift))
    return JacobiOperator(diag, offdiag, K + 1)


def hd_chain(block: DBlock) -> Chain:
    """The D-block as DualHahn(alpha0 - 1, beta0 - 1, K) shifted by
    alpha0 beta0 / 2, with atoms E_n = n(n + alpha0 + beta0 - 1) + alpha0 beta0 / 2."""
    a0, b0 = block.alpha0, block.beta0
    return Chain(DualHahn(a0 - 1.0, b0 - 1.0, block.K), 1.0, 0.5 * a0 * b0,
                 atom_stream=lambda n: n * (n + a0 + b0 - 1.0) + 0.5 * a0 * b0)


def hc_block_jacobi(block: CBlock) -> JacobiOperator:
    a0, b0 = block.alpha0, block.beta0
    s0, s1 = _offsets(block.K)
    def diag(k):
        return -0.5 * (2.0 * (s0 + k) + a0) * (2.0 * (s1 + k) + b0)
    def offdiag(k):
        return -np.sqrt((s0 + k + a0) * (s0 + k + 1.0) * (s1 + k + b0) * (s1 + k + 1.0))
    return JacobiOperator(diag, offdiag, block.n_levels)


def charges(kind: str, n: int, positions: np.ndarray) -> np.ndarray:
    """Manley-Rowe charge k0 + k1 (D-form) or k0 - k1 (C-form) of each
    flattened position k0 n + k1 of an n x n window."""
    k0, k1 = np.divmod(positions, n)
    return k0 + k1 if _kind(kind) == "D" else k0 - k1


def window_block(kind: str, q: int, alpha0: float, beta0: float,
                 n: int) -> tuple[np.ndarray, JacobiOperator]:
    """Flattened positions and Jacobi operator of the charge-q block of the
    D- or C-form in an n x n window, by the window rule (module docstring);
    ParameterError names q and n for a charge outside the window (D:
    0 <= q <= 2n - 2, C: |q| <= n - 1)."""
    if not (0 <= q <= 2 * n - 2 if _kind(kind) == "D" else abs(q) <= n - 1):
        raise ParameterError(("q", "n"), f"no {kind}-block of charge {q} in a {n} x {n} window")
    if kind == "D":
        base, full = max(0, q - n + 1), hd_block_jacobi(DBlock(q, alpha0, beta0))
        k0 = np.arange(base, min(q, n - 1) + 1)
        k1 = q - k0
    else:
        base, full = 0, hc_block_jacobi(CBlock(q, alpha0, beta0))
        s0, s1 = _offsets(q)
        k = np.arange(n - s0 - s1)
        k0, k1 = s0 + k, s1 + k
    op = JacobiOperator(lambda j: full.diag(base + j), lambda j: full.offdiag(base + j),
                        k0.size)
    return k0 * n + k1, op


def uvw_params(K: int, alpha0: float, beta0: float) -> tuple[ContinuousDualHahn, str]:
    """The C-block with label K as ContinuousDualHahn(u, v, w), and its branch.

    The parameters are h = (alpha0 + beta0 - 1)/2, p = s1 + (d + 1)/2 and
    q = s0 + (1 - d)/2 in the cyclic order (h, p, q), with d = beta0 - alpha0
    and (s0, s1) the block's offsets.  The family's recurrence and density
    are symmetric in (u, v, w) (Koekoek, Lesky & Swarttouw, 2010, section
    9.3), and only a negative parameter, put first,
    gives atoms, so the branch only says which comes first: p when p <= 0
    ("low"), q when q <= 0 ("high"), else h ("middle").  At an exact edge,
    where p or q is 0, that parameter is u = 0 and the block has no atom, the
    continuous limit: the atom's share of the mass vanishes as u -> 0-.
    Raises ParameterError naming (u, v, w) where the family refuses the
    triple.
    """
    d = beta0 - alpha0
    s0, s1 = _offsets(K)
    h, p, q = 0.5 * (alpha0 + beta0 - 1.0), s1 + 0.5 * (d + 1.0), s0 + 0.5 * (1.0 - d)
    branch, uvw = (("low", (p, q, h)) if p <= 0 else ("high", (q, h, p)) if q <= 0
                   else ("middle", (h, p, q)))
    return ContinuousDualHahn(*uvw), branch


def continuum_shift(alpha0: float, beta0: float) -> float:
    """s with spectrum(C-block) = (-inf, -s) plus atoms (u+n)^2 - s."""
    return 0.25 * ((alpha0 - 1.0) ** 2 + (beta0 - 1.0) ** 2 - 1.0)


def hc_chain(block: CBlock) -> Chain:
    """The C-block as its ``uvw_params`` family, shifted by -s
    (``continuum_shift``) with the off-diagonal negated: continuum (-inf, -s)
    plus ceil(-u) atoms (u+n)^2 - s when u < 0."""
    fam, _ = uvw_params(block.K, block.alpha0, block.beta0)
    s = continuum_shift(block.alpha0, block.beta0)
    # libm pow, as the family's measure squares its atoms
    return Chain(fam, 1.0, -s, offdiag_sign=-1.0,
                 atom_stream=lambda n: np.float_power(fam.u + n, 2.0) - s)


@dataclass(frozen=True)
class TruncationCheck:
    """Richardson-accelerated bound-state estimates from three truncations.

    ``agreement`` compares the bound-state eigenvalues of the full and half
    truncations only; the continuum cluster below them drifts with the
    cutoff by construction and is excluded.  The half and quarter windows
    enter only through ``extrapolated`` and ``agreement``.  The bound-state
    count is ``hc_chain(block).family.n_atoms()``; ``validate`` owns the
    tolerance.
    """

    top_full: np.ndarray      # largest eigenvalues at n_levels
    extrapolated: np.ndarray  # empirical-order Richardson estimate
    agreement: float          # max |full - half| over the bound states


def hc_truncation_check(block: CBlock) -> TruncationCheck:
    """Bound-state oracle: top eigenvalues of three nested truncations with
    empirical-order Richardson extrapolation.

    Only the highest ``count`` eigenvalues, the bound states plus the
    continuum edge, of the truncations at n_levels, n_levels // 2 and
    n_levels // 4 are computed; bisection costs O(n_levels) per step for each
    of them, not for the whole spectrum.  Raises ``ParameterError`` naming
    n_levels and the block labels when the quarter truncation has fewer than
    ``count`` levels.

    Convergence in n_levels is slow (the bound-state tails are polynomial),
    so the raw top eigenvalues are reported together with the extrapolated
    values and the full-versus-half ``agreement``.
    """
    chain = hc_chain(block)
    n_bound = chain.family.n_atoms()
    count = n_bound + 1
    n = block.n_levels
    if n // 4 < count:
        raise ParameterError(("n_levels", "K", "alpha0", "beta0"), f"n_levels // 4 = "
                             f"{n // 4} is below count = {count}, the block's bound "
                             "states and edge: the quarter truncation cannot hold them")
    op = hc_block_jacobi(block)
    full, half, quarter = (oracle_eigs(replace(op, size=m), count=count, top=chain.pairs_top)
                           for m in (n, n // 2, n // 4))
    den = full - half
    rate = np.divide(half - quarter, den, out=np.zeros(count), where=den != 0)
    fast = rate > 1.0
    extrap = full.copy()
    extrap[fast] += den[fast] / (rate[fast] - 1.0)
    agreement = float(np.abs(chain.pair(den, n_bound)).max(initial=0.0))
    return TruncationCheck(full, extrap, agreement)

