"""Symmetric tridiagonal (Jacobi) operators and their eigen-machinery.

The truncated matrix built from coefficient streams is the workhorse for
every Hamiltonian here.  A coefficient stream is a function of a float
k-array: ``diag(k)`` and ``offdiag(k)`` return the coefficients at every
index of ``k`` in one numpy expression (a scalar ``k`` is the 0-d case), so
building a truncation is one vectorized call and never a Python loop.

This is the one module that calls LAPACK.  Two routes to eigenpairs
coexist, one per job: ``oracle_eigs`` / ``oracle_eigh`` call its
tridiagonal solvers (the verification
oracle, which also gives the eigenvectors of a finite dual Hahn block,
where forward recurrence at the closed-form eigenvalues is unstable:
Gautschi, SIAM Rev. 9, 1967); and the Meixner kernel ``atom_eigenvector``
builds the exact block sqrt(w_j) P_k(x_j) of orthonormal Meixner functions,
the eigenvectors of an untruncated Meixner chain at its atoms, from a
forward sweep and the family's self-duality.  Atoms whose tail decays only
algebraically take the plain forward sweep ``orthopoly.poly_table`` over
``JacobiOperator.recurrence``.  A ``Chain`` reads an operator as an affine
image of an ``orthopoly`` family and picks its route; it also holds the one
rule, ``Chain.pairs_top``, for which end of a truncated spectrum
closed-form atoms pair with.  ``dense_eigh`` (``dsyevd``) is the oracle's
dense form, for the one matrix with no tridiagonal form: a generic
two-mode interaction's.

The Meixner kernel is the one place that tracks binary exponents.  Its
entries span far more than the double range (row 0 falls like c^(j/2)), so
every column carries its own power of two.  The sweep rescales once per
block of rows, not once per row: a block ends before a growth bound on the
recurrence, summed over the block, could carry a rescaled value past the
top of the double range, and a row whose bound alone passes it is a block
of one row.  Rescaling by an exact power of two adds no rounding, so the
entries do not depend on where the blocks end.

``oracle_eigs`` computes only an index window of the spectrum: the lowest
``count`` eigenvalues, or the highest ``count`` with ``top=True``.  It uses
Sturm-sequence bisection, which costs O(n) per step for each eigenvalue in
the window, so a caller should ask for exactly the eigenvalues it reads.
Every bisection is one LAPACK ``dstebz`` call (``_bisect``), ``oracle_eigh``
one ``dstevd``.  A count-limited window first tries a certified leading
block.  Where an O(n) diagonal-dominance product over the coefficient
arrays proves the window's eigenvectors negligible past row
m <= n/4 (one-mode classes 5-8 at the end their atoms pair with), the same
index window is bisected twice on m rows: on the leading block T_m, and on
T_m with its last diagonal entry moved toward the window by a Schur-
complement bound tau.  The two enclose the whole matrix's window (Haynsworth
inertia additivity and Cauchy interlacing: ``_certified_windows``), so
T_m's window is returned when they agree within the whole matrix's
bisection tolerance.  Every other request makes the one index-window call:
the full range, windows of count >= n // 4 (all below 8 levels), C-blocks
(their bound states decay only algebraically), D-blocks and the far end of
a one-mode chain (localized at the last rows), diagonal chains, and any
failed certificate.  No closed form enters the oracle.

Every evolution goes through one real-arithmetic spectral apply: the
eigenvectors V are real, so ``spectral_coeffs`` (c = V^T psi) and
``spectral_apply`` (V e^{-iEt} c) are real products against V, one per
part; a complex product would first copy V to complex, twice its memory.
``spectral_apply`` owns the time convention: it alone forms the phases
e^{-iEt} of every route (V None: a diagonal operator) and refuses a time
whose phases overflow.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dstebz, dstevd, dsyevd, dsyevd_lwork

from .errors import (NoBoundStateError, NumericalFailureError, ParameterError,
                     UnsupportedCaseError)
from .orthopoly import (ContinuousDualHahn, DualHahn, Meixner, PolyFamily,
                        SpectralMeasure, poly_table)

__all__ = ["JacobiOperator", "Chain", "oracle_eigs", "oracle_eigh", "dense_eigh",
           "atom_eigenvector", "spectral_coeffs", "spectral_apply"]


@dataclass(frozen=True)
class JacobiOperator:
    """Coefficient streams a_k (diagonal) and b_k (off-diagonal) with a cutoff.

    ``diag`` and ``offdiag`` take a float k-array and return the
    coefficients at every index in it, elementwise in numpy (a scalar k is
    the 0-d case); a stream that returns a scalar is constant and is
    broadcast.  b_k couples levels k and k+1 and may carry either sign; the
    spectrum only sees |b_k| but eigenvector component signs follow the
    stream as given.  Arrays and the dense matrix are taken at ``size``;
    a smaller truncation is ``dataclasses.replace(op, size=m)``.
    """

    diag: Callable[[np.ndarray], np.ndarray]
    offdiag: Callable[[np.ndarray], np.ndarray]
    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"size must be >= 1, got {self.size}")

    def diag_array(self) -> np.ndarray:
        """[a_0, ..., a_{size-1}] in one vectorized call."""
        return _stream(self.diag, np.arange(self.size, dtype=float))

    def offdiag_array(self) -> np.ndarray:
        """[b_0, ..., b_{size-2}] in one vectorized call."""
        return _stream(self.offdiag, np.arange(self.size - 1, dtype=float))

    def recurrence(self, k: np.ndarray):
        """(a_k, b_k) at every index of the float k-array, broadcast to its
        shape: the three-term recurrence that ``orthopoly.poly_table``
        sweeps."""
        return _stream(self.diag, k), _stream(self.offdiag, k)

    def dense(self) -> np.ndarray:
        m = np.diag(self.diag_array())
        e = self.offdiag_array()
        m += np.diag(e, 1) + np.diag(e, -1)
        return m


def _stream(coeff: Callable[[np.ndarray], np.ndarray], k: np.ndarray) -> np.ndarray:
    """Fresh float array of coeff at every index of the float k-array;
    constants are broadcast."""
    out = np.empty(k.shape)
    out[...] = coeff(k)
    return out


_EPS = np.finfo(float).eps


def _arrays(op: JacobiOperator) -> tuple[np.ndarray, np.ndarray]:
    """(d, e) of the operator at its size; ParameterError naming the first
    entry that is not finite, before any solve reads them."""
    d, e = op.diag_array(), op.offdiag_array()
    for name, a in (("diag", d), ("offdiag", e)):
        if not np.isfinite(a).all():
            k = int(np.flatnonzero(~np.isfinite(a))[0])
            raise ParameterError(("diag", "offdiag"),
                                 f"{name} coefficient {k} is {a[k]}, not finite")
    return d, e


def oracle_eigs(op: JacobiOperator, count: int | None = None,
                top: bool = False) -> np.ndarray:
    """Index window of the operator's eigenvalues at its size, ascending.

    The window is the lowest ``count`` eigenvalues, or the highest ``count``
    when ``top`` is true; ``count=None`` (or ``count >= op.size``) asks for
    the whole spectrum.  A smaller truncation is ``dataclasses.replace(op,
    size=m)``.  Bisection costs O(n) per step for each eigenvalue in
    the window, so a few extremal eigenvalues of a large truncation are
    cheap and the full spectrum is not.  The window first tries
    ``_certified_windows``.  ParameterError names the first coefficient that
    is not finite.  No closed form enters: a straight LAPACK solve.
    """
    n = op.size
    if count is None:
        count = n
    elif count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    count = min(count, n)
    d, e = _arrays(op)
    if n == 1:
        return d
    w = _certified_windows(d, e, count, top)
    if w is None:
        w = _bisect(d, e, n - count if top else 0, count, 0.0)
    if w is None:
        raise NumericalFailureError(f"tridiagonal bisection failed on {count} of {n} levels")
    return w


def _bisect(d: np.ndarray, e: np.ndarray, lo: int, count: int,
            abstol: float) -> np.ndarray | None:
    """Eigenvalues lo, ..., lo + count - 1 (from 0, ascending) of (d, e) by
    ``dstebz`` with RANGE='I' to ``abstol`` (0: LAPACK's default); None where
    LAPACK reports a failure or finds fewer."""
    found, w, _, _, info = dstebz(d, e, 2, 0.0, 0.0, lo + 1, lo + count, abstol, "E")
    return w[:count] if info == 0 and found == count else None


def _certified_windows(d: np.ndarray, e: np.ndarray, count: int,
                       top: bool) -> np.ndarray | None:
    """The index window of ``oracle_eigs`` from a leading block of m <= n/4
    rows, or None where no block is found or the certificate fails.

    Read T as t = -T for a top window, so the window is a bottom one.  U,
    the Gershgorin bound of the leading ``count`` rows, bounds every window
    eigenvalue (Cauchy interlacing).  Past the last row K where t - U is not
    strictly diagonally dominant, an eigenvector with eigenvalue at most U
    shrinks by |e_{j-1}| / (t_j - U - |e_j|) < 1 or more a row; m is the
    first row where the product of these factors falls below eps.  None, in
    O(1): count >= n // 4 (rows below count are never dominant), a diagonal
    chain (class 9), or last two rows not dominant
    (C-blocks, whose bound states decay only algebraically; D-blocks and the
    far end of a one-mode chain).  None, in O(n): decay that starts or ends
    past n/4, or a zero off-diagonal where it runs.

    The enclosure.  For x <= U the rows t_R from m on are strictly dominant,
    so t_R - x is positive definite, its backward pivots stay above
    t_j - x - |e_j|, and its (0, 0) inverse entry is at most 1/(t_m - U -
    |e_m|).  The Schur complement of t_R - x in t - x is t_m - x - g E, E
    the last diagonal unit, 0 < g <= tau = e_{m-1}^2 / (t_m - U - |e_m|).
    Haynsworth inertia additivity (Linear Algebra Appl. 1, 1968) at
    x = lambda_i(t) <= U, and Cauchy interlacing (Parlett, The Symmetric
    Eigenvalue Problem, SIAM 1998), give for every window index i

        lambda_i(t_m - tau E) <= lambda_i(t) <= lambda_i(t_m).

    LAPACK bisection (``dstebz``, RANGE='I') finds the window of both m x m
    matrices with the whole matrix's ABSTOL, eps ||T||_inf, and t_m's window
    is returned when the two agree within ABSTOL at every index: each result
    is then within ABSTOL plus one bisection error of the whole matrix's."""
    n = d.size
    stop = n // 4
    if count >= stop or not e[0]:       # O(1)
        return None
    sign = -1.0 if top else 1.0
    # U over the leading rows, then O(1): the last two rows must be dominant
    head, off = d[:count].tolist(), [0.0, *np.abs(e[:count]).tolist()]
    upper = max(sign * a + b + c for a, b, c in zip(head, off, off[1:]))
    (a0, a1), (b0, b1) = d[-2:].tolist(), np.abs(e[-2:]).tolist()
    if min(sign * a0 - b0 - b1, sign * a1 - b1) <= upper:
        return None
    t = sign * d
    ae = np.abs(e)
    side = np.zeros(n)          # |e_{k-1}| + |e_k|
    side[:-1] += ae
    side[1:] += ae
    margin = t - upper - side
    # rows below count are never dominant, since upper covers them
    k = int(np.flatnonzero(margin <= 0.0)[-1])
    if k + 2 > stop or not ae[k:stop - 1].all():
        return None
    decay = ae[k:stop - 1] / (margin[k + 1:stop] + ae[k:stop - 1])
    small = np.flatnonzero(np.cumsum(np.log(decay)) < math.log(_EPS))
    if not small.size:
        return None
    m = k + 1 + int(small[0])
    moved = d[:m].copy()
    moved[-1] -= sign * e[m - 1] ** 2 / (t[m] - upper - ae[m])
    abstol = _EPS * (np.abs(d) + side).max()
    lo = m - count if top else 0
    w, w_moved = (_bisect(dm, e[:m - 1], lo, count, abstol) for dm in (d[:m], moved))
    if w is None or w_moved is None or np.abs(w - w_moved).max() > abstol:
        return None
    return w


def oracle_eigh(op: JacobiOperator):
    """Full eigendecomposition (w, V) of the operator at its size (``dstevd``);
    ParameterError names the first coefficient that is not finite."""
    d, e = _arrays(op)
    if op.size == 1:
        return d, np.ones((1, 1))
    w, v, info = dstevd(d, e)
    if info != 0:
        raise NumericalFailureError(f"tridiagonal eigensolve failed: dstevd info {info}")
    return w, v


def dense_eigh(m: np.ndarray):
    """Full eigendecomposition (w, V) of an exactly symmetric C-ordered float64
    matrix m: one ``dsyevd`` call on the lower triangle of its Fortran view
    m.T, in place, so V takes m's own buffer and m is overwritten."""
    work, iwork, _ = dsyevd_lwork(m.shape[0], compute_v=1, lower=1)
    w, v, info = dsyevd(m.T, compute_v=1, lower=1, lwork=int(work), liwork=int(iwork),
                        overwrite_a=1)
    if info != 0:
        raise NumericalFailureError(f"dense symmetric eigensolve failed: dsyevd info {info}")
    return w, v


# Largest binary exponent a rescaled value may reach inside one block: the
# top of the double range, 2**1024, less 64 bits of headroom for the
# roundings the growth bounds leave out.
_EXP_LIMIT = np.finfo(float).maxexp - 64

# log2 of half the smallest subnormal (below it a value rounds to 0), and
# the lowest row-0 start exponent: half the int32 range of ``expo``
_LOG2_ZERO = np.finfo(float).minexp - np.finfo(float).nmant - 1
_EXPO_FLOOR = np.iinfo(np.int32).min // 2


def _row0(beta: float, c: float, width: int, lift: float):
    """Row 0 as (p, expo) with B[0, j] = p[j] * 2**expo[j]: the running
    product (1-c)^(beta/2) prod_{i<j} r_i, r_i = sqrt(c (beta + i) / (i + 1)).
    Columns whose log2 |B[0, j] / B[0, 0]| falls in one bin _EXP_LIMIT bits
    wide form one np.multiply.accumulate run, started from a mantissa in
    [0.5, 1), so no partial product leaves the normal range.  The start is
    the direct power where that is a normal float, else 2**lg with
    lg = 0.5 beta log1p(-c) / ln 2.  None when the largest row-0 entry,
    raised by ``lift`` bits (the sweep's growth bound), still rounds to 0:
    then every entry is 0.  NumericalFailureError when lg is below
    _EXPO_FLOOR but not 0 by that bound (``lift`` inf or NaN)."""
    jj = np.arange(width - 1)
    r = np.sqrt(c * (beta + jj) / (jj + 1.0))
    rise = np.cumsum(np.log2(r))
    bins = np.floor(rise / _EXP_LIMIT)
    starts = (np.flatnonzero(np.diff(bins, prepend=0.0)) + 1).tolist()
    start = (1.0 - c) ** (0.5 * beta)
    if start >= np.finfo(float).tiny:
        f, e = math.frexp(start)
    else:
        lg = 0.5 * beta * math.log1p(-c) / math.log(2.0)
        if lg + rise.max(initial=0.0) + lift < _LOG2_ZERO:
            return None
        if not lg > _EXPO_FLOOR:
            raise NumericalFailureError(f"Meixner({beta}, {c}): row 0 starts at 2**{lg:.4g}, "
                                        f"below the kernel's exponent range (lift {lift})")
        f, e = math.frexp(2.0 ** (lg % 1.0))
        e += math.floor(lg)
    p = np.empty(width)
    p[1:] = r
    expo = np.empty(width, dtype=np.int32)
    for j0, j1 in zip([0, *starts], [*starts, width]):
        if j0:
            # the product reaching column j0, from the mantissa of column
            # j0 - 1 as one step of the per-column product; p[j0] still
            # holds r_{j0-1}
            f, de = math.frexp(p[j0 - 1])
            f, de1 = math.frexp(f * p[j0])
            e += de + de1
        p[j0] = f
        np.multiply.accumulate(p[j0:j1], out=p[j0:j1])
        expo[j0:j1] = e
    return p, expo


def _row_blocks(x: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[list, float]:
    """Blocks (k0, k1) of the steps k0 <= k < k1 that share one set of
    column exponents, step k computing row k+1 over the columns j > k; and
    sum_k log2 max(1, G_k), the bits any entry may rise above its row 0.

    In each column, |v_{k+1}| <= G_k max(|v_k|, |v_{k-1}|) and every
    intermediate of step k is at most N_k max(|v_k|, |v_{k-1}|), with
    N_k = max_j |x_j - a_k| + b_{k-1} over those columns and G_k = N_k / b_k.
    A block starts with the larger state entry of each column in [0.5, 1),
    so step k may join the block of k0 while
    sum_{k0 <= i < k} log2 max(1, G_i) + log2 max(1, G_k, N_k) <= _EXP_LIMIT.
    A step that passes the limit alone is a block of one step."""
    steps = a.size - 1
    if not steps:
        return [], 0.0
    num = np.maximum(np.abs(x[1:steps + 1] - a[:-1]), np.abs(x[-1] - a[:-1]))
    num[1:] += b[:-2]
    grow = num / b[:-1]
    cum = np.concatenate(([0.0], np.cumsum(np.log2(np.maximum(grow, 1.0)))))
    top = cum[:-1] + np.log2(np.maximum(np.maximum(grow, num), 1.0))
    starts = [0]
    while True:
        k0 = starts[-1]
        over = np.flatnonzero(top[k0 + 1:] > cum[k0] + _EXP_LIMIT)
        if not over.size:
            return list(zip(starts, [*starts[1:], steps])), float(cum[-1])
        starts.append(k0 + 1 + int(over[0]))


def _upper_rows(fam: Meixner, m: int, width: int) -> np.ndarray:
    """Rows k < m of B[k, j] for j < width, zero below the diagonal: the
    blocked forward sweep of ``atom_eigenvector``."""
    a, b = fam.recurrence(np.arange(m, dtype=float))
    x = 2.0 * np.arange(width) + fam.beta
    blocks, lift = _row_blocks(x, a, b)
    row0 = _row0(fam.beta, fam.c, width, lift)
    upper = np.zeros((m, width))
    if row0 is None:
        return upper
    p, expo = row0
    np.ldexp(p, expo, out=upper[0])
    # rows k0-1 and k0 of the block about to start, in units of 2**expo
    state = np.zeros((2, width))
    state[1] = p
    tmp = np.empty(width)
    a_k, b_k = a.tolist(), b.tolist()
    for k0, k1 in blocks:
        s = slice(k0 + 1, width)
        e = np.frexp(np.maximum(np.abs(state[0, s]), np.abs(state[1, s])))[1]
        np.ldexp(state[:, s], -e, out=state[:, s])
        expo[s] += e
        prev, cur = state
        for k in range(k0, k1):
            t = slice(k + 1, width)
            nxt, prod = upper[k + 1, t], tmp[t]
            np.subtract(x[t], a_k[k], out=nxt)
            nxt *= cur[t]
            if k:
                np.multiply(prev[t], b_k[k - 1], out=prod)
                nxt -= prod
            nxt /= b_k[k]
            prev, cur = cur, upper[k + 1]
        # keep the state rows in block units, then scale the block's rows
        # to their true values
        state[0, k1 + 1:] = prev[k1 + 1:]
        state[1, k1 + 1:] = cur[k1 + 1:]
        rows = upper[k0 + 1:k1 + 1, k0 + 1:]
        np.ldexp(rows, expo[k0 + 1:], out=rows)
    return upper


def atom_eigenvector(fam: Meixner, n_rows: int, n_cols: int | None = None) -> np.ndarray:
    """Block B[k, j] = sqrt(w_j) P_k(x_j), k < n_rows and j < n_cols
    (``n_cols`` defaults to ``n_rows``), of the orthogonal matrix of
    orthonormal Meixner functions: column j is the eigenvector of the
    untruncated chain at the atom x_j = 2j + beta, exactly, not normalized
    over the window.

    Meixner polynomials are self-dual (Koekoek, Lesky & Swarttouw,
    Hypergeometric Orthogonal Polynomials, 2010, section 9.10), so
    B[k, j] = (-1)^(k+j) B[j, k].  Rows k <= j come from a forward sweep of
    ``fam.recurrence``, stable there because column j still grows or
    oscillates up to k = j; the entries k > j come from the transpose.
    Row 0 is the closed form |B[0, j]|^2 = (1-c)^beta (beta)_j c^j / j!,
    a running product of sqrt(c (beta + j) / (j + 1)).

    Every column keeps its own binary exponent, so no column underflows
    before it peaks (c = 1/9 puts B[0, 800] near 1e-382).  The sweep works
    in blocks of rows, in place in the output rows, under one exponent per
    column; at a block's end its rows are scaled to their true values and
    the two rows that carry the recurrence are rescaled so that each
    column's larger entry lies in [0.5, 1).  A block ends before
    log2 of the growth bound G_k = (max_j |x_j - a_k| + b_{k-1}) / b_k,
    summed over its rows, passes _EXP_LIMIT (``_row_blocks``), so no
    rescaled value overflows; none sinks toward the bottom of the range
    either, since rows k <= j of column j grow or oscillate.  Row 0, a
    product, splits where its log2 passes a multiple of _EXP_LIMIT
    (``_row0``).  Multiplying by an exact power of two adds no rounding,
    so every entry equals, bit for bit, the one a sweep that rescales after
    every row would give, wherever the blocks end.  A step whose G_k alone
    passes the limit (c so small that b_k is tiny) is a block of one row,
    which is that per-row sweep.  Cost n_rows * n_cols.
    """
    n_cols = n_rows if n_cols is None else n_cols
    m, width = min(n_rows, n_cols), max(n_rows, n_cols)
    upper = _upper_rows(fam, m, width)
    if n_rows <= n_cols:
        out = upper
    else:
        out = np.zeros((n_rows, n_cols))
        out[:m] = upper[:, :n_cols]
    # (-1)^(k+j) B[j, k] below the diagonal, zero on and above it
    sign = 1.0 - 2.0 * (np.arange(width) % 2)
    low = upper[:, :n_rows].T * sign[:n_rows, None]
    low *= sign[:m]
    np.copyto(low, 0.0, where=~np.tri(n_rows, m, -1, dtype=bool))
    out[:, :m] += low
    return out


@dataclass(frozen=True)
class Chain:
    """A Jacobi operator as the affine image of an ``orthopoly`` family
    (Koekoek, Lesky & Swarttouw, Hypergeometric Orthogonal Polynomials,
    2010): a_k = scale a_k[family] + shift, b_k = offdiag_sign scale b_k[family],
    so its spectrum is the family's measure under x -> scale x + shift.
    ``family`` is None for a diagonal operator (one-mode class 9).
    ``atom_stream`` is the operator's own atom formula over a float n-array
    (None without atoms), held against the mapped family by ``validate``.
    ``index`` is the one-mode class 1..9, 0 for a two-mode block."""

    family: PolyFamily | None
    scale: float
    shift: float = 0.0
    offdiag_sign: float = 1.0
    atom_stream: Callable[[np.ndarray], np.ndarray] | None = None
    index: int = 0

    def recurrence(self, k: np.ndarray):
        """(a_k, b_k) of the mapped family (a diagonal chain: atoms, zeros)."""
        if self.family is None:
            return self.atom_stream(k), np.zeros_like(k)
        a, b = self.family.recurrence(k)
        return self.scale * a + self.shift, self.offdiag_sign * self.scale * b

    def atoms(self, count: int) -> np.ndarray:
        return self.atom_stream(np.arange(count, dtype=float))

    def measure(self, n_atoms: int | None = None) -> SpectralMeasure:
        """The family's measure mapped, with ``n_atoms`` atoms for Meixner;
        a diagonal chain's first ``n_atoms`` atoms at unit weight (it has no
        default count)."""
        fam = self.family
        if fam is None:
            if n_atoms is None:
                raise ParameterError(("n_atoms",), "a diagonal chain needs an atom count")
            return SpectralMeasure(self.atoms(n_atoms), np.ones(n_atoms))
        meas = fam.measure(n_atoms=n_atoms) if isinstance(fam, Meixner) else fam.measure()
        return meas.mapped(shift=self.shift, scale=self.scale)

    @property
    def pairs_top(self) -> bool:
        """The one rule for which end of a truncated spectrum the atoms pair
        with: a family's atoms start at the bottom of its support (continuous
        dual Hahn: above its continuum), and a negative scale turns it over."""
        return (self.scale < 0) != isinstance(self.family, ContinuousDualHahn)

    def pair(self, window: np.ndarray, k: int) -> np.ndarray:
        """The k entries of an ascending ``oracle_eigs`` window taken at
        ``self.pairs_top`` that pair with the first k atoms, in atom order."""
        return window[::-1][:k] if self.pairs_top else window[:k]

    def oracle_delta(self, op: JacobiOperator, count: int | None = None) -> float:
        """max |atom - paired eigenvalue| over the first ``count`` atoms (all
        ``op.size`` when None or above it), against ``oracle_eigs`` of the
        truncation op."""
        k = op.size if count is None else min(count, op.size)
        w = oracle_eigs(op, k, top=self.pairs_top)
        return float(np.abs(self.atoms(k) - self.pair(w, k)).max())

    def eigenvectors(self, op: JacobiOperator, n_rows: int, n_cols: int) -> np.ndarray:
        """Rows k < n_rows of the eigenvectors of ``op`` at the first n_cols
        atoms, one column per atom: unit columns (diagonal); the Meixner
        kernel ``atom_eigenvector``, exact for the untruncated chain, row k
        times (-1)^k if offdiag_sign < 0; the ascending columns of
        ``oracle_eigh`` of the whole finite block (dual Hahn) in atom order
        by ``pairs_top``, signed by component 0 as p_0 = 1 (right only up to
        sign where that component is below roundoff, about 1 column in 7 at
        K 300); the forward sweep ``poly_table`` of ``op`` at every atom at
        once (continuous dual Hahn bound states, which decay only
        algebraically; p_0 = 1).  Meixner and continuous dual Hahn columns
        are not normalized over the n_rows rows: a reader normalizes each.

        Raises UnsupportedCaseError for a chain with a continuum and no atom
        stream (one-mode classes 1-4); ParameterError naming n_rows and
        n_cols for a diagonal request with n_cols > n_rows, or a dual Hahn
        request past its K+1 rows or columns; NoBoundStateError for columns
        past a continuous dual Hahn chain's ``n_atoms``."""
        fam = self.family
        if self.atom_stream is None:
            raise UnsupportedCaseError(f"class {self.index} has a continuous spectrum "
                                       "and no atoms to take eigenvectors at")
        if fam is None:
            if n_cols > n_rows:
                raise ParameterError(("n_rows", "n_cols"), f"{n_cols} unit columns in {n_rows} rows")
            return np.eye(n_rows, n_cols)
        if isinstance(fam, Meixner):
            u = atom_eigenvector(fam, n_rows, n_cols)
            if self.offdiag_sign < 0:
                u[1::2] *= -1.0
            return u
        if isinstance(fam, DualHahn):
            if max(n_rows, n_cols) > fam.kmax + 1:
                raise ParameterError(("n_rows", "n_cols"), f"{n_rows} x {n_cols} past the "
                                     f"{fam.kmax + 1} levels of a dual Hahn block")
            v = oracle_eigh(op)[1]
            v = (v[:, ::-1] if self.pairs_top else v)[:, :n_cols]
            return v[:n_rows] * np.copysign(1.0, v[0])
        if n_cols > fam.n_atoms():
            raise NoBoundStateError(f"{n_cols} bound states asked, {fam.n_atoms()} exist")
        return poly_table(op, n_rows - 1, self.atoms(n_cols))


def _times_real(z: np.ndarray, r: np.ndarray) -> np.ndarray:
    """z @ r for a complex z and a real r, as the two real products
    Re z @ r and Im z @ r: no complex copy of r."""
    out = np.empty(z.shape[:-1] + r.shape[1:], dtype=complex)
    out.real = z.real @ r
    out.imag = z.imag @ r
    return out


def spectral_coeffs(vectors: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Coefficients c = V^T psi of a complex amplitude array psi over the
    real columns V of ``vectors`` (n, m): V^T Re psi + i V^T Im psi."""
    return _times_real(psi, vectors)


def spectral_apply(vectors: np.ndarray | None, energies: np.ndarray, coeffs: np.ndarray,
                   times: np.ndarray) -> np.ndarray:
    """Amplitudes V (e^{-i E t} c) at every time t of the 1-d array ``times``,
    shape (n_times, n), for real columns V of ``vectors`` (n, m) with
    ``energies`` E and coefficients c (m,); ``vectors`` None is the identity.
    The phases are complex; their product with V is two real products, one
    per part.  ParameterError names t, with the row, at the first time whose
    phases are not finite: an energy times t past the double range."""
    with np.errstate(over="ignore", invalid="ignore"):   # refused below
        phased = np.exp(-1j * times[:, None] * energies) * coeffs
    bad = np.flatnonzero(~np.isfinite(phased).all(axis=1))
    if bad.size:
        raise ParameterError(("t",), f"the evolved state at t = {times[bad[0]].item()} is not "
                             "finite: energy times t overflows float64", row=int(bad[0]))
    return phased if vectors is None else _times_real(phased, vectors.T)
