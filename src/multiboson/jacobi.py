"""Symmetric tridiagonal (Jacobi) operators and their eigen-machinery.

The truncated matrix built from coefficient streams is the workhorse for
every Hamiltonian here.  A coefficient stream is a function of a float
k-array: ``diag(k)`` and ``offdiag(k)`` return the coefficients at every
index of ``k`` in one numpy expression (a scalar ``k`` is the 0-d case), so
building a truncation is one vectorized call and never a Python loop.

Three routes to eigenpairs coexist: ``oracle_eigs``/``oracle_eigh`` call
LAPACK's tridiagonal solvers (the verification oracle); the atom sweep
``atom_eigenvector`` evaluates untruncated-chain eigenvectors at known
spectrum atoms, which need not be eigenvalues of the truncation, by
three-term recurrence with a backward (Miller-style) sweep glued at the
classical turning point, one column per atom; inverse iteration
``block_eigenvectors`` (LAPACK ``dstein``) turns closed-form eigenvalues of
the truncation itself into its eigenvectors, where forward recurrence is
unstable (Gautschi, SIAM Rev. 9, 1967).  ``forward_eigenvector`` is the
atom sweep's forward half alone, for atoms whose tail decays only
algebraically.

``oracle_eigs`` computes only an index window of the spectrum: the lowest
``count`` eigenvalues, or the highest ``count`` with ``top=True``.  It uses
Sturm-sequence bisection, which costs O(n) per step for each eigenvalue in
the window, so a caller should ask for exactly the eigenvalues it reads.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dstein

from .errors import NumericalFailureError

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
    swept forward over the whole truncation and not stabilized: right where
    the solutions of the recurrence grow or decay only algebraically, such
    as bound states with a polynomially decaying tail."""
    n = op.size
    if n == 1:
        return np.ones(1)
    p = _forward_sweep(x - op.diag_array(), op.offdiag_array(), n - 1)
    return p / np.linalg.norm(p)


_RESCALE = 1e250


def _decay_onset(d: np.ndarray, e: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Per atom in x, the first index at which it has left the local band
    [a_k - 2|b_k|, a_k + 2|b_k|] on the side the diagonal drifts to; the
    size of the arrays if never."""
    n = d.size
    eb = np.empty(n)
    eb[:-1] = np.abs(e)
    eb[-1] = eb[-2] if n > 1 else 0.0
    shape = (n,) + (1,) * x.ndim
    if d[-1] >= d[0]:
        cond = (d - 2 * eb).reshape(shape) > x
    else:
        cond = (d + 2 * eb).reshape(shape) < x
    return np.where(cond.any(axis=0), cond.argmax(axis=0), n)


def atom_eigenvector(op: JacobiOperator, x: float | np.ndarray,
                     n: int | None = None) -> np.ndarray:
    """Normalized eigenvector components p_k(x) at spectrum atoms x.

    ``x`` is one atom (result shape ``(n,)``) or a 1-D array of m atoms
    (result shape ``(n, m)``, one column per atom).  The sweeps run over
    rows k with every atom in the row, so a batch costs one Python loop,
    and every column is bit-identical to the call with its atom alone.

    Forward recurrence through the oscillatory region; beyond the turning
    point the decaying solution is recovered by a backward sweep seeded at
    the cutoff (its tail divided down whenever an entry passes 1e250) and
    scale-matched where the forward solution is largest.  Entries below
    1e-18 of the column peak are flushed to zero.
    """
    n = op.size if n is None else n
    x = np.asarray(x, dtype=float)
    if n == 1:
        return np.ones((1,) + x.shape)
    d = op.diag_array(n)
    e = op.offdiag_array(n)
    # row k of every work array holds index k for all atoms: shape (n,) + x.shape
    rows = np.arange(n).reshape((n,) + (1,) * x.ndim)
    xd = x - d.reshape(rows.shape)
    km = np.minimum(_decay_onset(d, e, x), n - 1)
    # atoms are independent; entries past an atom's own stopping row are
    # computed alongside and discarded, so their overflows are silenced
    with np.errstate(all="ignore"):
        p = _forward_sweep(xd, e, int(km.max()))
        p = np.where(rows > km, 0.0, p)
        back = km < n - 1
        if back.any():
            lo = np.maximum(0, km - 15)
            window = (rows >= lo) & (rows <= km)
            j = np.argmax(np.where(window, np.abs(p), -1.0), axis=0)
            j = np.where(back, j, n - 1)
            q = _backward_sweep(xd, e, j)
            pj = np.take_along_axis(p, j[None], axis=0)[0]
            qj = np.take_along_axis(q, j[None], axis=0)[0]
            glue = back & (qj != 0.0) & (pj != 0.0)
            p = np.where(glue & (rows >= j), q * (pj / qj), p)
    peak = np.abs(p).max(axis=0)
    bad = ~np.isfinite(peak) | (peak == 0.0)
    if bad.any():
        raise NumericalFailureError(
            f"eigenvector recurrence degenerated at x={x.flat[np.argmax(bad)]}")
    p[np.abs(p) < 1e-18 * peak] = 0.0
    # each column contiguous, so its norm is the same dot product as alone
    v = np.ascontiguousarray(np.moveaxis(p, 0, -1))
    for col in v.reshape(-1, n):
        col /= np.linalg.norm(col)
    return np.ascontiguousarray(np.moveaxis(v, -1, 0))


def _forward_sweep(xd: np.ndarray, e: np.ndarray, stop: int) -> np.ndarray:
    """p_0 = 1, p_1 = (x - a_0) / b_0 and p_{k+1} = ((x - a_k) p_k -
    b_{k-1} p_{k-1}) / b_k up to row stop, with xd[k] = x - a_k; rows past
    both are zero."""
    b = e.tolist()
    p = np.zeros(xd.shape)
    p[0] = 1.0
    p[1] = xd[0] / b[0]
    for k in range(1, stop):
        p[k + 1] = (xd[k] * p[k] - b[k - 1] * p[k - 1]) / b[k]
    return p


def _backward_sweep(xd: np.ndarray, e: np.ndarray, j: np.ndarray) -> np.ndarray:
    """q_{n-1} = 1, q_{k-1} = ((x - a_k) q_k - b_k q_{k+1}) / b_{k-1} down to
    row j of each atom (rows below are not meaningful); an atom with
    j = n - 1 takes no part.  Whenever a live entry passes _RESCALE, that
    atom's tail q[k-1:] is divided by its magnitude."""
    n = xd.shape[0]
    b = e.tolist()
    q = np.zeros(xd.shape)
    q[n - 1] = 1.0
    q[n - 2] = xd[n - 1] * q[n - 1] / b[n - 2]
    bound = _rescale_tail(q, n - 2, j < n - 1)
    # max(|q_{k-1}|, |q_k|) <= growth[k-1] * max(|q_k|, |q_{k+1}|), with a
    # margin for rounding, so the exact test only runs once this running
    # bound could have passed the threshold
    ae = np.abs(e)
    reach = np.abs(xd[1:n - 1]).reshape(n - 2, xd[0].size).max(axis=1, initial=0.0)
    growth = (np.maximum((reach + ae[1:]) / ae[:-1], 1.0) * (1.0 + 1e-10)).tolist()
    for k in range(n - 2, int(j.min()), -1):
        q[k - 1] = (xd[k] * q[k] - b[k] * q[k + 1]) / b[k - 1]
        bound *= growth[k - 1]
        if not bound <= _RESCALE:
            bound = _rescale_tail(q, k - 1, j <= k - 1)
    return q


def _rescale_tail(q: np.ndarray, row: int, live: np.ndarray) -> float:
    """Divide q[row:] by |q[row]| for the live atoms where it passed
    _RESCALE; return max |q[row:row+2]| over the live atoms after."""
    big = live & (np.abs(q[row]) > _RESCALE)
    if big.any():
        q[row:] = np.where(big, q[row:] / np.abs(q[row]), q[row:])
    return float(np.where(live, np.abs(q[row:row + 2]), 0.0).max())
