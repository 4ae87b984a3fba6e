"""Bogoliubov-type symmetry group of the ladder triple and its unitaries.

The group is R^x semidirect Z_2 with product (a, s)(b, t) = (a b^s, s t).
Each element acts linearly on (A0, A-, A+) preserving the commutation and
adjointness relations.  ``action_matrix`` returns that action as a plain 3x3
array whose row i is the image of basis element i; with these rows as images
the map is a homomorphism on the returned arrays:
action_matrix(multiply(g, h)) == action_matrix(g) @ action_matrix(h).  The
labels of H = ((mu+nu)/2) A0 + ((mu-nu)/2)(A- + A+) move with it: the row
h = ((mu+nu)/2, (mu-nu)/2, (mu-nu)/2) becomes h @ action_matrix(g).

Elements with a > 0 are implemented by unitaries whose columns are the
eigenvectors of the transformed A0 at the exact eigenvalues 2n + alpha0:
orthonormal Meixner functions with c = ((a-1)/(a+1))^2, taken from the
Meixner kernel ``jacobi.atom_eigenvector``.

Column phase convention: the undecorated kernel column starts positive
(sqrt(w_n) P_0 > 0); columns are then multiplied by sigma^n, and by
(-1)^(k+n) when a^sigma > 1.  This is the unique decoration (up to a
global sign) under which U X U* reproduces the generator action.

The column-normalized kernel block depends on the element only through
c, so (a, +1) and (a, -1) share it, and so do a and 1/a: ``meixner_c``
computes c from max(a, 1/a), which is the same float for both whenever
1/(1/a) rounds back to a.  ``implementer`` takes the block from a one-entry
memo keyed by (alpha0, c, n) and decorates a copy: consecutive elements with
the same block build it once, and the memo holds a single read-only block
(460 KB at n = 240).  A full ``validate`` walks a in the order 1/3, 3, 1/2,
2 for each of three alpha0, so it builds 6 blocks for its 24 elements.
"""

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .jacobi import atom_eigenvector
from .orthopoly import Meixner

__all__ = [
    "GroupElement",
    "multiply",
    "action_matrix",
    "meixner_c",
    "implementer",
    "ImplementerInfo",
    "structure_constants",
]


@dataclass(frozen=True)
class GroupElement:
    """Element (a, sigma) with a != 0 and sigma in {-1, +1}.  ParameterError
    names a unless a, a * a and 1 / a are all finite, so that every entry
    of ``action_matrix`` is finite."""

    a: float
    sigma: int

    def __post_init__(self):
        if self.a == 0:
            raise ParameterError(("a",), "a must be nonzero")
        a = float(self.a)
        if not (math.isfinite(a) and math.isfinite(a * a) and math.isfinite(1.0 / a)):
            raise ParameterError(("a",), f"a = {self.a}: a, a * a and 1 / a must be finite")
        if self.sigma not in (-1, 1):
            raise ParameterError(("sigma",), f"sigma must be +-1, got {self.sigma}")


def multiply(g: GroupElement, h: GroupElement) -> GroupElement:
    """(a, s) (b, t) = (a b^s, s t)."""
    return GroupElement(g.a * h.a ** g.sigma, g.sigma * h.sigma)


def action_matrix(g: GroupElement) -> np.ndarray:
    """Linear action of (a, sigma) on (A0, A-, A+): the 3x3 array whose row i
    holds the expansion of the image of basis element i.

    Note: at (a, sigma) = (-1, 1) this maps A0 -> -A0 and swaps A- -> -A+,
    A+ -> -A-; that is the unique structure-preserving extension (plain -1
    on all three generators would flip the sign of [A-, A+]).
    """
    a, s = g.a, g.sigma
    p = (1 + a * a) / (2 * a)
    q = (1 - a * a) / (2 * a)
    r = (1 - a * a) / (4 * a)
    sm = s * (1 - a) ** 2 / (4 * a)
    sp = s * (1 + a) ** 2 / (4 * a)
    return np.array([
        [p, s * q, s * q],
        [r, sp, sm],
        [r, sm, sp],
    ])


def meixner_c(a: float) -> float:
    """c = ((b - 1) / (b + 1))^2, b = max(a, 1/a), of the eigenbasis family
    attached to a > 0.  Taking b >= 1 gives a and 1/a the same c bit for bit
    whenever 1/(1/a) rounds back to a (1/3 and 3 both give 0.25).
    ParameterError names a unless a and 1/a are positive and finite."""
    if not (0 < a < math.inf and 1.0 / a < math.inf):
        raise ParameterError(("a",), f"a = {a}: a and 1 / a must be positive and finite")
    b = max(a, 1.0 / a)
    return ((b - 1.0) / (b + 1.0)) ** 2


@dataclass(frozen=True)
class ImplementerInfo:
    """Truncation diagnostics for an implementing unitary.

    ``converged_cols``: the leading columns that hold their digits and whose
    infinite tails closed inside the window (their pairwise Gram is exact
    to roundoff).  ``interior_rows``: top-left block of U X U* free of edge
    pollution.  Both shrink as c = ``meixner_c(g.a)`` -> 1: eigenvector n
    spreads to cluster index ~ n (1+sqrt(c))/(1-sqrt(c)), so no fixed
    margin works for every element.
    """

    converged_cols: int
    interior_rows: int


@functools.lru_cache(maxsize=1)
def _meixner_block(alpha0: float, c: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only n x n Meixner(alpha0, c) kernel block, each nonzero column
    ell^2-normalized over the window, and which columns hold their digits:
    those whose largest entry is a normal float.  Row 0 carries
    (1 - c)^(alpha0 / 2), so a large alpha0 sinks whole columns: one whose
    largest entry is below 2^-480, where its squares would lose digits, is
    first divided by that entry; one that underflows stays 0."""
    u = atom_eigenvector(Meixner(alpha0, c), n)
    top = np.abs(u).max(axis=0)
    low = (top < 2.0 ** -480) & (top > 0)
    u[:, low] /= top[low]
    norm = np.linalg.norm(u, axis=0)
    u /= np.where(norm > 0, norm, 1.0)
    u.flags.writeable = False
    return u, top >= sys.float_info.min


def implementer(g: GroupElement, alpha0: float,
                n: int) -> tuple[np.ndarray, ImplementerInfo]:
    """N x N matrix whose columns are the transformed-A0 eigenvectors, and
    its truncation diagnostics: the pair (u, info).

    Only the first ``info.converged_cols`` columns are orthonormal (to
    roundoff); a later column's tail is cut by the window, so u is not
    unitary.  At a = 1/2, alpha0 = 1, n = 240 the first 92 columns are
    orthonormal to 2.5e-15 while the full Gram misses the identity by 0.76.

    ParameterError names g unless a > 0 (a < 0 factors through the central
    flip, which no unitary realizes) and max(a, 1/a) stays below about
    9.2e15 (2^53), where c rounds to 1; alpha0 unless finite and positive;
    and n below 1.  The transformed A0,

        a_k = (a^-s + a^s)/2 (2k + alpha0),
        |b_k| = |a^-s - a^s|/2 sqrt((k + alpha0)(k + 1)),

    is the Meixner(alpha0, c) Jacobi operator, so column m is column m of
    the Meixner kernel ``atom_eigenvector`` (the eigenvector at the exact
    eigenvalue 2m + alpha0), ell^2-normalized over the window and then
    sign-decorated.  Both sigma, and a and 1/a (when 1/(1/a) == a), give the
    same block up to those signs, so called in such pairs (as ``validate``
    does: 6 blocks for its 24 elements) it builds each block once.
    """
    if not g.a > 0:
        raise ParameterError(("g",), f"no implementing unitary for a = {g.a} <= 0; "
                             "decompose through the central flip at the action level")
    if not 0 < alpha0 < math.inf:
        raise ParameterError(("alpha0",), f"alpha0 must be finite and positive, got {alpha0}")
    if n < 1:
        raise ParameterError(("n",), f"need n >= 1, got {n}")
    c = meixner_c(g.a)
    if not c < 1.0:
        raise ParameterError(("g",), f"a = {g.a} rounds the Meixner c to {c}: "
                             "no eigenbasis family in float64")
    # (-1)^m as exact +-1 entries: the decoration only flips signs
    sign = np.where(np.arange(n) % 2 == 1, -1.0, 1.0)
    if g.a == 1.0:
        u = np.diag(sign if g.sigma == -1 else np.ones(n))
        return u, ImplementerInfo(n, n)
    block, live = _meixner_block(alpha0, c, n)
    u = block.copy()
    if float(g.a) ** g.sigma > 1.0:
        # (-1)^(k+m) in place: negation is exact
        u[1::2] *= -1.0
        u[:, 1::2] *= -1.0
    if g.sigma == -1:
        u *= sign
    tail = np.abs(u[max(0, n - 8):, :]).max(axis=0)
    bad = np.flatnonzero(~(live & (tail <= 1e-9)))
    ncol = int(bad[0]) if bad.size else n
    sc = math.sqrt(c)
    interior = max(1, int(0.5 * ncol * (1 - sc) / (1 + sc)))
    return u, ImplementerInfo(ncol, interior)


def structure_constants() -> np.ndarray:
    """f[i, j, k] with [X_i, X_j] = sum_k f[i,j,k] X_k over (A0, A-, A+)."""
    f = np.zeros((3, 3, 3))
    f[1, 2, 0] = 1.0   # [A-, A+] = A0
    f[2, 1, 0] = -1.0
    f[0, 1, 1] = -2.0  # [A0, A-] = -2 A-
    f[1, 0, 1] = 2.0
    f[0, 2, 2] = 2.0   # [A0, A+] = +2 A+
    f[2, 0, 2] = -2.0
    return f
