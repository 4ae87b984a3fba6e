"""Symmetric tridiagonal (Jacobi) operators and their eigen-machinery.

The truncated matrix built from coefficient streams is the workhorse for
every Hamiltonian here.  Two independent routes to eigenpairs coexist on
purpose: ``oracle_eigs``/``oracle_eigh`` call LAPACK's tridiagonal solvers
(the verification oracle), while ``atom_eigenvector`` evaluates the exact
eigenvector at a known spectrum atom by three-term recurrence, stabilizing
the decaying tail with a backward (Miller-style) sweep glued at the
classical turning point.

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

from .errors import NumericalFailureError

__all__ = ["JacobiOperator", "oracle_eigs", "oracle_eigh", "atom_eigenvector"]


@dataclass(frozen=True)
class JacobiOperator:
    """Coefficient streams a_k (diagonal) and b_k (off-diagonal) with a cutoff.

    b_k couples levels k and k+1 and may carry either sign; the spectrum only
    sees |b_k| but eigenvector component signs follow the stream as given.
    """

    diag: Callable[[int], float]
    offdiag: Callable[[int], float]
    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"size must be >= 1, got {self.size}")

    def diag_array(self, n: int | None = None) -> np.ndarray:
        n = self.size if n is None else n
        return np.array([self.diag(k) for k in range(n)], dtype=float)

    def offdiag_array(self, n: int | None = None) -> np.ndarray:
        n = self.size if n is None else n
        return np.array([self.offdiag(k) for k in range(n - 1)], dtype=float)

    def dense(self, n: int | None = None) -> np.ndarray:
        n = self.size if n is None else n
        m = np.diag(self.diag_array(n))
        e = self.offdiag_array(n)
        m += np.diag(e, 1) + np.diag(e, -1)
        return m


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


def _decay_onset(d: np.ndarray, e: np.ndarray, x: float) -> int:
    """First index at which x has left the local band [a_k - 2|b_k|, a_k + 2|b_k|]
    on the side the diagonal drifts to; size of array if never."""
    n = d.size
    eb = np.empty(n)
    eb[:-1] = np.abs(e)
    eb[-1] = eb[-2] if n > 1 else 0.0
    if d[-1] >= d[0]:
        cond = d - 2 * eb > x
    else:
        cond = d + 2 * eb < x
    idx = np.flatnonzero(cond)
    return int(idx[0]) if idx.size else n


def atom_eigenvector(op: JacobiOperator, x: float, n: int | None = None) -> np.ndarray:
    """Normalized eigenvector components p_k(x) at a spectrum atom x.

    Forward recurrence through the oscillatory region; beyond the turning
    point the decaying solution is recovered by a backward sweep seeded at
    the cutoff and scale-matched where the forward solution is largest.
    Entries below 1e-18 of the peak are flushed to zero.
    """
    n = op.size if n is None else n
    d = op.diag_array(n)
    e = op.offdiag_array(n) if n > 1 else np.zeros(0)
    if n == 1:
        return np.ones(1)
    km = min(_decay_onset(d, e, x), n - 1)
    p = np.zeros(n)
    p[0] = 1.0
    if km >= 1:
        p[1] = (x - d[0]) / e[0]
    for k in range(1, km):
        p[k + 1] = ((x - d[k]) * p[k] - e[k - 1] * p[k - 1]) / e[k]
    if km < n - 1:
        lo = max(0, km - 15)
        j = lo + int(np.argmax(np.abs(p[lo:km + 1])))
        q = np.zeros(n)
        q[n - 1] = 1.0
        q[n - 2] = (x - d[n - 1]) * q[n - 1] / e[n - 2]
        if abs(q[n - 2]) > 1e250:
            q[n - 2:] /= abs(q[n - 2])
        for k in range(n - 2, j, -1):
            q[k - 1] = ((x - d[k]) * q[k] - e[k] * q[k + 1]) / e[k - 1]
            if abs(q[k - 1]) > 1e250:
                q[k - 1:] /= abs(q[k - 1])
        if q[j] != 0.0 and p[j] != 0.0:
            p[j:] = q[j:] * (p[j] / q[j])
    peak = np.abs(p).max()
    if not math.isfinite(peak) or peak == 0.0:
        raise NumericalFailureError(f"eigenvector recurrence degenerated at x={x}")
    p[np.abs(p) < 1e-18 * peak] = 0.0
    return p / np.linalg.norm(p)
