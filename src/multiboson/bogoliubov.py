"""Bogoliubov-type symmetry group of the ladder triple and its unitaries.

The group is R^x semidirect Z_2 with product (a, s)(b, t) = (a b^s, s t).
Each element acts linearly on (A0, A-, A+) preserving the commutation and
adjointness relations; with rows-as-images convention the matrix map is a
homomorphism: matrix(g h) = matrix(g) @ matrix(h).

Elements with a > 0 are implemented by unitaries whose columns are the
eigenvectors of the transformed A0 at the exact eigenvalues 2n + alpha0:
orthonormal Meixner functions with c = ((a-1)/(a+1))^2, taken from the
Meixner kernel ``jacobi.atom_eigenvector``.

Column phase convention: the undecorated kernel column starts positive
(sqrt(w_n) P_0 > 0); columns are then multiplied by sigma^n, and by
(-1)^(k+n) when a^sigma > 1.  This is the unique decoration (up to a
global sign) under which U X U* reproduces the generator action.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedElementError
from .jacobi import atom_eigenvector
from .orthopoly import Meixner

__all__ = [
    "GroupElement",
    "GeneratorAction",
    "IDENTITY",
    "multiply",
    "inverse",
    "action_matrix",
    "act_on_labels",
    "orbit_invariant",
    "meixner_c",
    "implementer",
    "ImplementerInfo",
    "structure_constants",
]


@dataclass(frozen=True)
class GroupElement:
    """Element (a, sigma) with a != 0 and sigma in {-1, +1}."""

    a: float
    sigma: int

    def __post_init__(self):
        if self.a == 0:
            raise ValueError("a must be nonzero")
        if self.sigma not in (-1, 1):
            raise ValueError(f"sigma must be +-1, got {self.sigma}")


IDENTITY = GroupElement(1.0, 1)


def multiply(g: GroupElement, h: GroupElement) -> GroupElement:
    """(a, s) (b, t) = (a b^s, s t)."""
    return GroupElement(g.a * h.a ** g.sigma, g.sigma * h.sigma)


def inverse(g: GroupElement) -> GroupElement:
    """(a, s)^-1 = (a^-s, s)."""
    return GroupElement(g.a ** (-g.sigma), g.sigma)


@dataclass(frozen=True, eq=False)
class GeneratorAction:
    """3x3 matrix over the ordered basis (A0, A-, A+); row i holds the
    expansion of the image of basis element i."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (3, 3):
            raise ValueError("generator action must be 3x3")
        if abs(np.linalg.det(m)) < 1e-12:
            raise ValueError("generator action must be invertible")
        object.__setattr__(self, "matrix", m)

    def compose(self, other: "GeneratorAction") -> "GeneratorAction":
        return GeneratorAction(self.matrix @ other.matrix)


def action_matrix(g: GroupElement) -> GeneratorAction:
    """Linear action of (a, sigma) on (A0, A-, A+).

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
    return GeneratorAction(np.array([
        [p, s * q, s * q],
        [r, sp, sm],
        [r, sm, sp],
    ]))


def act_on_labels(g: GroupElement, mu: float, nu: float) -> tuple[float, float]:
    """Label transport: (a,+1): (mu, nu) -> (mu/a, a nu); (a,-1): -> (a nu, mu/a)."""
    if mu == 0 and nu == 0:
        raise ValueError("label pair (0, 0) is excluded")
    if g.sigma == 1:
        return mu / g.a, g.a * nu
    return g.a * nu, mu / g.a


def orbit_invariant(mu: float, nu: float) -> float:
    """The group orbits are the hyperbola pairs {x y = const}: returns mu * nu."""
    if mu == 0 and nu == 0:
        raise ValueError("label pair (0, 0) is excluded")
    return mu * nu


def meixner_c(a: float) -> float:
    """c = ((a - 1) / (a + 1))^2 of the eigenbasis family attached to a > 0."""
    return ((a - 1.0) / (a + 1.0)) ** 2


@dataclass(frozen=True)
class ImplementerInfo:
    """Truncation diagnostics for an implementing unitary.

    ``converged_cols``: columns whose infinite tails closed inside the
    window (their pairwise Gram is exact to roundoff).  ``interior_rows``:
    top-left block of U X U* free of edge pollution.  Both shrink as
    c -> 1: eigenvector n spreads to cluster index ~ n (1+sqrt(c))/(1-sqrt(c)),
    so no fixed margin works for every element.
    """

    converged_cols: int
    interior_rows: int
    c: float


def implementer(g: GroupElement, alpha0: float, n: int, return_info: bool = False):
    """N x N unitary whose columns are the transformed-A0 eigenvectors.

    Only a > 0 is implementable; a < 0 factors through the central flip,
    which no unitary realizes.  The transformed A0,

        a_k = (a^-s + a^s)/2 (2k + alpha0),
        |b_k| = |a^-s - a^s|/2 sqrt((k + alpha0)(k + 1)),

    is the Meixner(alpha0, c) Jacobi operator, so column m is column m of
    the Meixner kernel ``atom_eigenvector`` (the eigenvector at the exact
    eigenvalue 2m + alpha0), ell^2-normalized over the window and then
    sign-decorated.
    """
    if g.a <= 0:
        raise UnsupportedElementError(
            f"no implementing unitary for a = {g.a} <= 0; "
            "decompose through the central flip at the action level"
        )
    if alpha0 <= 0:
        raise ValueError(f"alpha0 must be positive, got {alpha0}")
    c = meixner_c(g.a)
    if g.a == 1.0:
        u = np.diag(np.asarray([float(g.sigma) ** m for m in range(n)]))
        info = ImplementerInfo(n, n, 0.0)
        return (u, info) if return_info else u
    av = float(g.a) ** g.sigma
    ms = np.arange(n)
    u = atom_eigenvector(Meixner(alpha0, c), n)
    u /= np.linalg.norm(u, axis=0)
    if av > 1.0:
        u = u * (-1.0) ** (ms[:, None] + ms)
    u = u * float(g.sigma) ** ms
    if not return_info:
        return u
    tail = np.abs(u[max(0, n - 8):, :]).max(axis=0)
    bad = np.flatnonzero(tail > 1e-9)
    ncol = int(bad[0]) if bad.size else n
    sc = math.sqrt(c)
    interior = max(1, int(0.5 * ncol * (1 - sc) / (1 + sc)))
    if ncol == n:
        interior = n
    return u, ImplementerInfo(ncol, interior, c)


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
