"""Symmetric tridiagonal (Jacobi) operators and their eigen-machinery.

The truncated matrix built from coefficient streams is the workhorse for
every Hamiltonian here.  A coefficient stream is a function of a float
k-array: ``diag(k)`` and ``offdiag(k)`` return the coefficients at every
index of ``k`` in one numpy expression (a scalar ``k`` is the 0-d case), so
building a truncation is one vectorized call and never a Python loop.

Four routes to eigenpairs coexist, one per job: ``oracle_eigs`` /
``oracle_eigh`` call LAPACK's tridiagonal solvers (the verification
oracle); the Meixner kernel ``atom_eigenvector`` builds the exact block
sqrt(w_j) P_k(x_j) of orthonormal Meixner functions, the eigenvectors of an
untruncated Meixner chain at its atoms, from a forward sweep and the
family's self-duality; inverse iteration ``block_eigenvectors`` (LAPACK
``dstein``) turns closed-form eigenvalues of the truncation itself into its
eigenvectors, where forward recurrence is unstable (Gautschi, SIAM Rev. 9,
1967); and the plain forward sweep ``forward_eigenvector`` serves atoms
whose tail decays only algebraically.

``oracle_eigs`` computes only an index window of the spectrum: the lowest
``count`` eigenvalues, or the highest ``count`` with ``top=True``.  It uses
Sturm-sequence bisection, which costs O(n) per step for each eigenvalue in
the window, so a caller should ask for exactly the eigenvalues it reads.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dstein

from .errors import NumericalFailureError
from .orthopoly import Meixner

__all__ = ["JacobiOperator", "oracle_eigs", "oracle_eigh", "block_eigenvectors",
           "forward_eigenvector", "atom_eigenvector"]


@dataclass(frozen=True)
class JacobiOperator:
    """Coefficient streams a_k (diagonal) and b_k (off-diagonal) with a cutoff.

    ``diag`` and ``offdiag`` take a float k-array and return the
    coefficients at every index in it, elementwise in numpy (a scalar k is
    the 0-d case); a stream that returns a scalar is constant and is
    broadcast.  b_k couples levels k and k+1 and may carry either sign; the
    spectrum only sees |b_k| but eigenvector component signs follow the
    stream as given.
    """

    diag: Callable[[np.ndarray], np.ndarray]
    offdiag: Callable[[np.ndarray], np.ndarray]
    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"size must be >= 1, got {self.size}")

    def diag_array(self, n: int | None = None) -> np.ndarray:
        """[a_0, ..., a_{n-1}] in one vectorized call."""
        n = self.size if n is None else n
        return _stream(self.diag, n)

    def offdiag_array(self, n: int | None = None) -> np.ndarray:
        """[b_0, ..., b_{n-2}] in one vectorized call."""
        n = self.size if n is None else n
        return _stream(self.offdiag, n - 1)

    def dense(self, n: int | None = None) -> np.ndarray:
        n = self.size if n is None else n
        m = np.diag(self.diag_array(n))
        e = self.offdiag_array(n)
        m += np.diag(e, 1) + np.diag(e, -1)
        return m


def _stream(coeff: Callable[[np.ndarray], np.ndarray], n: int) -> np.ndarray:
    """Fresh float array coeff(0), ..., coeff(n-1); constants are broadcast."""
    k = np.arange(n, dtype=float)
    return np.broadcast_to(coeff(k), k.shape).astype(float)


def oracle_eigs(op: JacobiOperator, count: int | None = None,
                n: int | None = None, top: bool = False) -> np.ndarray:
    """Index window of the truncated operator's eigenvalues, ascending.

    The window is the lowest ``count`` eigenvalues, or the highest ``count``
    when ``top`` is true; ``count=None`` (or ``count >= n``) asks for the
    whole spectrum.  Bisection costs O(n) per step for each eigenvalue in
    the window, so a few extremal eigenvalues of a large truncation are
    cheap and the full spectrum is not.

    Independent of any closed form: straight LAPACK tridiagonal solve.
    """
    n = op.size if n is None else n
    if count is None:
        count = n
    elif count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    count = min(count, n)
    lo = n - count if top else 0
    try:
        if n == 1:
            return op.diag_array(1)
        w = eigh_tridiagonal(op.diag_array(n), op.offdiag_array(n),
                             eigvals_only=True, select="i",
                             select_range=(lo, lo + count - 1))
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalFailureError(f"tridiagonal eigensolve failed: {exc}") from exc
    return w


def oracle_eigh(op: JacobiOperator, n: int | None = None):
    """Full eigendecomposition (w, V) of the truncated operator."""
    n = op.size if n is None else n
    if n == 1:
        return op.diag_array(1), np.ones((1, 1))
    try:
        return eigh_tridiagonal(op.diag_array(n), op.offdiag_array(n))
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericalFailureError(f"tridiagonal eigensolve failed: {exc}") from exc


def block_eigenvectors(op: JacobiOperator, w: np.ndarray) -> np.ndarray:
    """Eigenvectors of the truncated operator at its ascending eigenvalues w
    (accurate eigenvalues of the truncation) by inverse iteration, LAPACK
    ``dstein``: one column per eigenvalue, signed so that component 0 is
    positive as with p_0 = 1 (an unreduced Jacobi matrix has no eigenvector
    with a zero first component).  Raises NumericalFailureError when LAPACK
    reports a failure."""
    n = op.size
    w = np.asarray(w, dtype=float)
    if n == 1:
        return np.ones((1, w.size))
    iblock = np.ones(n, dtype=np.int32)
    isplit = np.zeros(n, dtype=np.int32)
    isplit[0] = n
    z, info = dstein(op.diag_array(), op.offdiag_array(), w, iblock, isplit)
    if info != 0:
        raise NumericalFailureError(f"inverse iteration failed: dstein info = {info}")
    return z * np.copysign(1.0, z[0])


def forward_eigenvector(op: JacobiOperator, x: float) -> np.ndarray:
    """Normalized solution of the three-term recurrence at x with p_0 = 1,
    p_1 = (x - a_0) / b_0 and p_{k+1} = ((x - a_k) p_k - b_{k-1} p_{k-1}) /
    b_k, swept forward over the whole truncation and not stabilized: right
    where the solutions of the recurrence grow or decay only algebraically,
    such as bound states with a polynomially decaying tail."""
    n = op.size
    if n == 1:
        return np.ones(1)
    xd = (x - op.diag_array()).tolist()
    b = op.offdiag_array().tolist()
    p = np.empty(n)
    p[0] = 1.0
    p[1] = xd[0] / b[0]
    for k in range(1, n - 1):
        p[k + 1] = (xd[k] * p[k] - b[k - 1] * p[k - 1]) / b[k]
    return p / np.linalg.norm(p)


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
    a running product of sqrt(c (beta + j) / (j + 1)).  Every column keeps
    its own binary exponent, moved by exact powers of two as the sweep goes,
    so no column underflows before it peaks (c = 1/9 puts B[0, 800] near
    1e-382) and the scaling adds no rounding.  Cost n_rows * n_cols.
    """
    n_cols = n_rows if n_cols is None else n_cols
    m, width = min(n_rows, n_cols), max(n_rows, n_cols)
    beta, c = fam.beta, fam.c
    a, b = fam.recurrence(np.arange(m, dtype=float))
    x = 2.0 * np.arange(width) + beta
    # row 0 as mantissa * 2**expo, column by column
    p = np.empty(width)
    expo = np.empty(width, dtype=int)
    f, e = math.frexp((1.0 - c) ** (0.5 * beta))
    jj = np.arange(width - 1)
    for j, r in enumerate(np.sqrt(c * (beta + jj) / (jj + 1.0)).tolist()):
        p[j], expo[j] = f, e
        f, de = math.frexp(f * r)
        e += de
    p[-1], expo[-1] = f, e
    upper = np.zeros((m, width))
    prev = np.zeros(width)
    for k in range(m):
        upper[k, k:] = np.ldexp(p[k:], expo[k:])
        if k + 1 == m:
            break
        s = slice(k + 1, width)
        nxt = (x[s] - a[k]) * p[s]
        if k:
            nxt -= b[k - 1] * prev[s]
        f, e = np.frexp(nxt / b[k])
        prev[s] = np.ldexp(p[s], -e)
        p[s] = f
        expo[s] += e
    sign = 1.0 - 2.0 * (np.arange(width) % 2)
    out = np.zeros((n_rows, n_cols))
    out[:m] = upper[:, :n_cols]
    out[:, :m] += np.tril(upper[:, :n_rows].T * np.outer(sign[:n_rows], sign[:m]), -1)
    return out
