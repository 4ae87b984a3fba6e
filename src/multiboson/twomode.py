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
  -[(1/2) A0 B0 + A+ B+ + A- B-] on semi-infinite blocks |K+k, k> (K >= 0)
  or |k, k-K> (K < 0).

D-block coefficients, derived from the operator:

    a_k = (1/2)(2k + alpha0)(2(K-k) + beta0),
    b_k = sqrt((k+1)(k+alpha0)(K-k)(K-k+beta0-1)).

Erratum: a variant with (K-k+beta0) in the last factor circulates in
derivations of these block coefficients; it does not reproduce the
closed-form spectrum E_n = n(n + alpha0 + beta0 - 1) + alpha0 beta0 / 2.
Its miss is pinned by the ``twomode.hd.regression_pin_gap`` check of
``validation.run_all``, which builds that variant itself.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import BoundaryAmbiguityError, NoBoundStateError, ParameterError
from .jacobi import Chain, JacobiOperator, oracle_eigs
from .orthopoly import ContinuousDualHahn, DualHahn, pochhammer
from .rep import MultibosonRep, OneModeSector, StateVector, sector_matrices
from .bogoliubov import GroupElement

__all__ = [
    "CANONICAL_TWISTS",
    "TwoModeRep",
    "TwoModeHamiltonian",
    "DBlock",
    "CBlock",
    "UVWParams",
    "build_h_matrix",
    "canonical_matrix",
    "hd_block_jacobi",
    "hd_chain",
    "hd_eigenvectors",
    "hc_block_jacobi",
    "hc_chain",
    "uvw_params",
    "continuum_shift",
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
    a, s = h.g.a, h.g.sigma
    b, t = h.h.a, h.h.sigma
    ab4 = 4 * a * b
    terms = (((a * a + b * b) / ab4, ["00"]),
             (-s * t * (a - b) ** 2 / ab4, ["++", "--"]),
             (-s * (a * a - b * b) / ab4, ["+0", "-0"]),
             (t * (a * a - b * b) / ab4, ["0-", "0+"]),
             (-s * t * (a + b) ** 2 / ab4, ["+-", "-+"]))
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


def canonical_matrix(kind: str, reps: TwoModeRep, sector: tuple[int, int],
                     n_per_mode: int) -> np.ndarray:
    """Canonical D-form or C-form interaction on the product basis: H at
    the twists ``CANONICAL_TWISTS[kind]``, by ``build_h_matrix``."""
    if kind not in CANONICAL_TWISTS:
        raise ValueError(f"kind must be 'D' or 'C', got {kind!r}")
    h = TwoModeHamiltonian(reps, *CANONICAL_TWISTS[kind], sector)
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
        if self.n_levels < 2:
            raise ParameterError(("n_levels",), f"need n_levels >= 2, got {self.n_levels}")
        _check_labels(self.alpha0, self.beta0, abs(self.K) + self.n_levels,
                      ("n_levels", "K"))

    def basis(self) -> list[tuple[int, int]]:
        if self.K >= 0:
            return [(self.K + k, k) for k in range(self.n_levels)]
        return [(k, k - self.K) for k in range(self.n_levels)]


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


def hd_eigenvectors(block: DBlock, n: int) -> StateVector:
    """Normalized eigenvector of the D-block at the nth closed-form eigenvalue:
    column n of the whole block's inverse-iteration eigenvectors
    (``Chain.eigenvectors``), orthogonal to roundoff; component 0 positive,
    except where its exact value is below roundoff (seen at K 300): there
    the sign is noise, and the column is right only up to sign."""
    if not 0 <= n <= block.K:
        raise ValueError(f"n must be in [0, {block.K}], got {n}")
    vecs = hd_chain(block).eigenvectors(hd_block_jacobi(block), block.K + 1, n + 1)
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
        if not (self.v > 0 and self.w > 0 and self.u + self.v > 0 and self.u + self.w > 0):
            raise ParameterError(("u", "v", "w"), f"inadmissible parameters "
                                 f"u={self.u}, v={self.v}, w={self.w}")


def uvw_params(K: int, alpha0: float, beta0: float) -> UVWParams:
    """Family parameters of the C-block with label K.

    The assignment is piecewise in d = beta0 - alpha0 over open intervals;
    an exact boundary hit raises BoundaryAmbiguityError carrying both
    adjacent triples.
    """
    d = beta0 - alpha0
    half_sum = 0.5 * (alpha0 + beta0 - 1.0)
    if K >= 0:
        p, q, edges = 0.5 * (d + 1.0), K + 0.5 * (1.0 - d), (-1.0, 2.0 * K + 1.0)
    else:
        p, q, edges = -K + 0.5 * (d + 1.0), 0.5 * (1.0 - d), (2.0 * K - 1.0, 1.0)
    triples = {"low": (p, q, half_sum), "middle": (half_sum, p, q),
               "high": (q, half_sum, p)}
    # candidates at an exact boundary are degenerate (a parameter hits 0),
    # so they are carried as raw triples, not validated records
    for edge, pair in zip(edges, (("low", "middle"), ("middle", "high"))):
        if d == edge:
            raise BoundaryAmbiguityError(
                f"beta0 - alpha0 = {d} sits on a branch boundary",
                candidates=tuple(dict(zip("uvw", triples[b]), branch=b) for b in pair))
    branch = "low" if d < edges[0] else "middle" if d < edges[1] else "high"
    return UVWParams(*triples[branch], branch)


def continuum_shift(alpha0: float, beta0: float) -> float:
    """s with spectrum(C-block) = (-inf, -s) plus atoms (u+n)^2 - s."""
    return 0.25 * ((alpha0 - 1.0) ** 2 + (beta0 - 1.0) ** 2 - 1.0)


def hc_chain(block: CBlock) -> Chain:
    """The C-block as ContinuousDualHahn(u, v, w) of its ``uvw_params``
    branch, shifted by -s (``continuum_shift``) with the off-diagonal
    negated: continuum (-inf, -s) plus ceil(-u) atoms (u+n)^2 - s when u < 0.
    Raises BoundaryAmbiguityError on a branch boundary."""
    p = uvw_params(block.K, block.alpha0, block.beta0)
    s = continuum_shift(block.alpha0, block.beta0)
    # libm pow, as the family's measure squares its atoms
    return Chain(ContinuousDualHahn(p.u, p.v, p.w), 1.0, -s, offdiag_sign=-1.0,
                 atom_stream=lambda n: np.float_power(p.u + n, 2.0) - s)


def hc_eigenvectors_discrete(block: CBlock, n: int) -> StateVector:
    """Truncated normalized bound-state vector number n (requires u + n < 0),
    from the forward sweep of ``Chain.eigenvectors``, stable as the solution
    dichotomy is polynomial, not exponential; the components decay only
    algebraically, so the vector converges slowly in n_levels."""
    chain = hc_chain(block)
    if chain.family.u + n >= 0:
        raise NoBoundStateError(
            f"u + n = {chain.family.u + n} >= 0: no bound state with index {n}")
    op = hc_block_jacobi(block)
    vec = chain.eigenvectors(op, op.size, n + 1)[:, n]
    return StateVector((vec / np.linalg.norm(vec)).astype(complex), sector=block)


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
    values; ``converged`` requires the full and half truncations to agree
    on every bound state within 1e-3.
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
    full, half, quarter = (oracle_eigs(op, count=count, n=m, top=chain.pairs_top)
                           for m in (n, n // 2, n // 4))
    den = full - half
    rate = np.divide(half - quarter, den, out=np.zeros(count), where=den != 0)
    fast = rate > 1.0
    extrap = full.copy()
    extrap[fast] += den[fast] / (rate[fast] - 1.0)
    agreement = float(np.abs(chain.pair(den, n_bound)).max(initial=0.0))
    return TruncationCheck(full, half, extrap, n_bound, agreement,
                           agreement <= 1e-3)


def _ladder_up(n: int, l: int) -> float:
    """<n + l| (a*)^l |n> = sqrt((n+1)...(n+l)), 1 at l = 0."""
    return math.sqrt(pochhammer(n + 1.0, l))


def coupling_functions(h: TwoModeHamiltonian, grid, n_per_mode: int | None = None):
    """Intensity-dependent coupling samples read off the entries of the
    sparse interaction matrix (no dense n_per_mode^2 x n_per_mode^2 array).

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
    m = _kron_sum(h, n_per_mode)
    # the level steps (dk0, dk1) from the bra to the ket of each term
    steps = {"g00": (0, 0), "gpm": (-1, 1), "gm0": (1, 0), "g0m": (0, 1), "gmm": (1, 1)}
    out = {key: {} for key in steps}
    for n0, n1 in pts:
        k0, k1 = n0 // l0, n1 // l1
        for key, (d0, d1) in steps.items():
            if 0 <= k0 + d0 < n_per_mode and 0 <= k1 + d1 < n_per_mode:
                ladder = (_ladder_up(min(n0, n0 + d0 * l0), abs(d0) * l0)
                          * _ladder_up(min(n1, n1 + d1 * l1), abs(d1) * l1))
                out[key][(n0, n1)] = (m[k0 * n_per_mode + k1,
                                        (k0 + d0) * n_per_mode + k1 + d1] / ladder)
    return out
