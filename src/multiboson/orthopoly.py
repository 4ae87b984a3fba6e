"""Special functions and the five orthogonal-polynomial families.

Every family is a frozen parameter record that knows its orthonormal
three-term recurrence (positive off-diagonal convention, P_0 = 1) and its
orthogonality measure.  ``recurrence(k)`` takes a scalar or a float
k-array and returns (a_k, b_k) elementwise.  Measures are kept in the
family's natural variable; callers map to physical variables with
:meth:`SpectralMeasure.mapped`.

Natural variables and stored (unnormalized) measures:

* ``Laguerre(alpha)``            density x^alpha e^-x on (0, inf)
* ``Meixner(beta, c)``           atoms (beta)_n c^n / n! at x = 2n + beta
* ``MeixnerPollaczek(lam, phi)`` density e^{(2 phi - pi) x} |Gamma(lam + ix)|^2
* ``DualHahn(gamma, delta, K)``  K+1 atoms at x = n (n + gamma + delta + 1)
* ``ContinuousDualHahn(u,v,w)``  density on (-inf, 0) plus ceil(-u) atoms at
  x = (u+n)^2 when u < 0

Only the discrete-mass normalizations are available in closed form; the
``normalize`` flag of :meth:`measure` divides by them.
"""

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
from scipy.integrate import IntegrationWarning, quad_vec
from scipy.special import gammaln, kv, loggamma

from .errors import NumericalFailureError

__all__ = [
    "ln_gamma",
    "gamma_abs_sq",
    "pochhammer",
    "ln_pochhammer",
    "hyp0f1",
    "hyp3f2_terminating",
    "bessel_k",
    "ContinuousPart",
    "SpectralMeasure",
    "Laguerre",
    "Meixner",
    "MeixnerPollaczek",
    "DualHahn",
    "ContinuousDualHahn",
    "PolyFamily",
    "eval_orthonormal",
    "poly_table",
    "gram_check",
]


# ---------------------------------------------------------------------------
# special functions

def ln_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0."""
    if x <= 0:
        raise ValueError(f"ln_gamma requires x > 0, got {x}")
    return float(gammaln(x))


def gamma_abs_sq(a: float, b: float) -> float:
    """|Gamma(a + i b)|^2 for a > 0."""
    if a <= 0:
        raise ValueError(f"gamma_abs_sq requires a > 0, got {a}")
    return math.exp(2.0 * loggamma(complex(a, b)).real)


def pochhammer(a: float, k: int) -> float:
    """Rising factorial (a)_k = a (a+1) ... (a+k-1)."""
    out = 1.0
    for j in range(k):
        out *= a + j
    return out


def ln_pochhammer(a: float, k: int) -> float:
    """log (a)_k for a > 0, stable for large k."""
    if a <= 0:
        raise ValueError(f"ln_pochhammer requires a > 0, got {a}")
    return float(gammaln(a + k) - gammaln(a))


def hyp0f1(b: float, z: complex) -> complex:
    """0F1(; b; z) by direct series, summed until the relative tail is < 1e-15."""
    if b <= 0:
        raise ValueError(f"hyp0f1 requires b > 0, got {b}")
    term = complex(z) * 0 + 1.0
    total = term
    small = 0
    for k in range(100_000):
        term = term * z / ((k + 1.0) * (b + k))
        total += term
        if abs(term) < 1e-15 * abs(total):
            small += 1
            if small >= 3:
                break
        else:
            small = 0
    else:
        raise NumericalFailureError(f"hyp0f1 series did not converge for b={b}, z={z}")
    if isinstance(z, complex):
        return total
    return total.real


def hyp3f2_terminating(n: int, b: float, c: float, d: float, e: float) -> float:
    """3F2(-n, b, c; d, e; 1) as the exact finite sum of n + 1 terms.

    A lower parameter that is zero or hits zero inside the summation range
    (d or e in {0, -1, ..., -(n-1)}) makes a term divide by zero and raises.
    """
    if n < 0:
        raise ValueError(f"hyp3f2_terminating requires n >= 0, got {n}")
    total = 1.0
    term = 1.0
    for k in range(n):
        dk, ek = d + k, e + k
        if dk == 0.0 or ek == 0.0:
            raise ValueError(
                f"lower parameter hits zero inside the sum: d={d}, e={e}, n={n}"
            )
        term *= (-n + k) * (b + k) * (c + k) / (dk * ek * (k + 1.0))
        total += term
    return total


def bessel_k(nu: float, x: float) -> float:
    """Modified Bessel function of the second kind K_nu(x), x > 0."""
    if x <= 0:
        raise ValueError(f"bessel_k requires x > 0, got {x}")
    return float(kv(nu, x))


# ---------------------------------------------------------------------------
# spectral measures

@dataclass(frozen=True)
class ContinuousPart:
    """Absolutely continuous piece: support interval and pointwise density."""

    support: tuple[float, float]
    density: Callable[[float], float]


@dataclass(frozen=True)
class SpectralMeasure:
    """Discrete atoms plus an optional continuous density.

    ``shift`` and ``scale`` record the affine map from the originating
    family's natural variable to the variable the atoms/density are stored
    in: x_stored = scale * x_natural + shift.
    """

    atoms: tuple[tuple[float, float], ...] = ()
    continuous: ContinuousPart | None = None
    shift: float = 0.0
    scale: float = 1.0
    total_mass_closed: float | None = None

    def __post_init__(self):
        if self.scale == 0:
            raise ValueError("scale must be nonzero")
        for loc, w in self.atoms:
            if w <= 0:
                raise ValueError(f"atom weight must be positive, got {w} at {loc}")

    def atom_locations(self) -> np.ndarray:
        return np.array([loc for loc, _ in self.atoms], dtype=float)

    def atom_weights(self) -> np.ndarray:
        return np.array([w for _, w in self.atoms], dtype=float)

    def atom_mass(self) -> float:
        return float(sum(w for _, w in self.atoms))

    def total_mass(self) -> float:
        """Closed-form total mass when known, else atoms plus quadrature."""
        if self.total_mass_closed is not None:
            return self.total_mass_closed
        mass = self.atom_mass()
        if self.continuous is not None:
            lo, hi = self.continuous.support
            mass += _integrate(self.continuous.density, lo, hi)
        return mass

    def normalized(self) -> "SpectralMeasure":
        """Rescale weights and density so the total mass is 1."""
        m = self.total_mass()
        atoms = tuple((loc, w / m) for loc, w in self.atoms)
        cont = self.continuous
        if cont is not None:
            d = cont.density
            cont = ContinuousPart(cont.support, lambda x, _d=d, _m=m: _d(x) / _m)
        return SpectralMeasure(atoms, cont, self.shift, self.scale,
                               None if self.total_mass_closed is None else 1.0)

    def mapped(self, shift: float = 0.0, scale: float = 1.0) -> "SpectralMeasure":
        """Pushforward under x -> scale * x + shift (mass preserved)."""
        if scale == 0:
            raise ValueError("scale must be nonzero")
        atoms = tuple((scale * loc + shift, w) for loc, w in self.atoms)
        cont = self.continuous
        if cont is not None:
            a, b = (scale * s + shift for s in cont.support)
            lo, hi = (a, b) if a <= b else (b, a)
            d = cont.density
            cont = ContinuousPart(
                (lo, hi),
                lambda x, _d=d, _s=scale, _t=shift: _d((x - _t) / _s) / abs(_s),
            )
        return SpectralMeasure(atoms, cont,
                               scale * self.shift + shift, scale * self.scale,
                               self.total_mass_closed)


# ---------------------------------------------------------------------------
# families

@dataclass(frozen=True)
class Laguerre:
    """Laguerre-class family, density x^alpha e^-x on the half line."""

    alpha: float
    tag = "laguerre"
    nmax = None

    def __post_init__(self):
        if self.alpha <= -1:
            raise ValueError(f"Laguerre requires alpha > -1, got {self.alpha}")

    def recurrence(self, k: float | np.ndarray):
        a = 2 * k + self.alpha + 1
        b = np.sqrt((k + 1) * (k + self.alpha + 1))
        return a, b

    def measure(self, normalize: bool = False) -> SpectralMeasure:
        al = self.alpha
        dens = lambda x: math.exp(al * math.log(x) - x) if x > 0 else 0.0
        m = SpectralMeasure(
            continuous=ContinuousPart((0.0, math.inf), dens),
            total_mass_closed=math.exp(gammaln(al + 1)),
        )
        return m.normalized() if normalize else m


@dataclass(frozen=True)
class Meixner:
    """Meixner-class family with atoms at x = 2n + beta, weights (beta)_n c^n / n!.

    Defined directly by the recurrence
        a_k = (1+c)/(1-c) (2k + beta),   b_k = 2 sqrt(c) / (1-c) sqrt((k+1)(k+beta)),
    which fixes the normalization unambiguously.
    """

    beta: float
    c: float
    tag = "meixner"
    nmax = None

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError(f"Meixner requires beta > 0, got {self.beta}")
        if not 0 < self.c < 1:
            raise ValueError(f"Meixner requires 0 < c < 1, got {self.c}")

    def recurrence(self, k: float | np.ndarray):
        beta, c = self.beta, self.c
        # (1+c)/(1-c) written as 1 + 2c/(1-c): for small c the rounding
        # error of the factor shrinks with c instead of biasing every a_k
        a = (1 + 2 * c / (1 - c)) * (2 * k + beta)
        b = 2 * math.sqrt(c) / (1 - c) * np.sqrt((k + 1) * (k + beta))
        return a, b

    def atom_weight(self, n: int) -> float:
        return math.exp(ln_pochhammer(self.beta, n) + n * math.log(self.c)
                        - gammaln(n + 1))

    def default_n_atoms(self) -> int:
        # geometric tail below 1e-18 of the total mass
        return max(40, int(math.ceil(-42.0 / math.log(self.c))) + 10)

    def measure(self, n_atoms: int | None = None, normalize: bool = False) -> SpectralMeasure:
        if n_atoms is None:
            n_atoms = self.default_n_atoms()
        atoms = tuple((2.0 * n + self.beta, self.atom_weight(n)) for n in range(n_atoms))
        m = SpectralMeasure(atoms=atoms,
                            total_mass_closed=(1 - self.c) ** (-self.beta))
        return m.normalized() if normalize else m


@dataclass(frozen=True)
class MeixnerPollaczek:
    """Meixner-Pollaczek-class family, density e^{(2 phi - pi) x} |Gamma(lam + ix)|^2."""

    lam: float
    phi: float
    tag = "meixner_pollaczek"
    nmax = None

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError(f"MeixnerPollaczek requires lam > 0, got {self.lam}")
        if not 0 < self.phi < math.pi:
            raise ValueError(f"MeixnerPollaczek requires 0 < phi < pi, got {self.phi}")

    def recurrence(self, k: float | np.ndarray):
        lam, phi = self.lam, self.phi
        a = -(k + lam) * math.cos(phi) / math.sin(phi)
        b = np.sqrt((k + 1) * (k + 2 * lam)) / (2 * math.sin(phi))
        return a, b

    def measure(self, normalize: bool = False) -> SpectralMeasure:
        lam, phi = self.lam, self.phi
        dens = lambda x: math.exp((2 * phi - math.pi) * x) * gamma_abs_sq(lam, x)
        mass = 2 * math.pi * math.exp(gammaln(2 * lam)) / (2 * math.sin(phi)) ** (2 * lam)
        m = SpectralMeasure(continuous=ContinuousPart((-math.inf, math.inf), dens),
                            total_mass_closed=mass)
        return m.normalized() if normalize else m


@dataclass(frozen=True)
class DualHahn:
    """Dual-Hahn-class family: exactly K+1 members, atoms at x = n (n + gamma + delta + 1)."""

    gamma: float
    delta: float
    kmax: int
    tag = "dual_hahn"

    def __post_init__(self):
        if self.gamma <= -1 or self.delta <= -1:
            raise ValueError("DualHahn requires gamma > -1 and delta > -1")
        if self.kmax < 0 or self.kmax != int(self.kmax):
            raise ValueError(f"DualHahn requires integer K >= 0, got {self.kmax}")

    @property
    def nmax(self) -> int:
        return self.kmax

    def recurrence(self, k: float | np.ndarray):
        """(a_k, b_k); b_k = 0 from k = K on, where the family ends."""
        a0, b0, K = self.gamma + 1, self.delta + 1, self.kmax
        a = 0.5 * (2 * k + a0) * (2 * (K - k) + b0) - 0.5 * a0 * b0
        bsq = (k + 1) * (k + a0) * (K - k) * (K - k + b0 - 1)
        b = np.where(np.less(k, K), np.sqrt(np.maximum(bsq, 0.0)), 0.0)
        return a, b

    def atom_weight(self, n: int) -> float:
        a0, b0, K = self.gamma + 1, self.delta + 1, self.kmax
        num = (2 * n + a0 + b0 - 1) * math.factorial(K)
        for j in range(n):
            num *= (a0 + j) * (-K + j)
        den = (-1.0) ** n * math.factorial(n)
        for j in range(K + 1):
            den *= n + a0 + b0 - 1 + j
        for j in range(n):
            den *= b0 + j
        return num / den

    def measure(self, normalize: bool = False) -> SpectralMeasure:
        g, d, K = self.gamma, self.delta, self.kmax
        atoms = tuple((n * (n + g + d + 1.0), self.atom_weight(n)) for n in range(K + 1))
        # closed-form mass 1 / C(delta + K, K)
        mass = math.exp(gammaln(d + 1) + gammaln(K + 1) - gammaln(d + 1 + K))
        m = SpectralMeasure(atoms=atoms, total_mass_closed=mass)
        return m.normalized() if normalize else m


@dataclass(frozen=True)
class ContinuousDualHahn:
    """Continuous-dual-Hahn-class family in the variable x = -y^2.

    Continuous part on (-inf, 0) with density
        |Gamma(u + iy) Gamma(v + iy) Gamma(w + iy) / Gamma(2iy)|^2 / (4 pi y),
    y = sqrt(-x), plus ceil(-u) atoms at x = (u+n)^2 when u < 0.
    """

    u: float
    v: float
    w: float
    tag = "continuous_dual_hahn"
    nmax = None

    def __post_init__(self):
        if self.v <= 0 or self.w <= 0 or self.u + self.v <= 0 or self.u + self.w <= 0:
            raise ValueError(
                f"ContinuousDualHahn requires v, w > 0 and u+v, u+w > 0, got "
                f"u={self.u}, v={self.v}, w={self.w}"
            )

    def recurrence(self, k: float | np.ndarray):
        u, v, w = self.u, self.v, self.w
        A = (k + u + v) * (k + u + w)
        C = k * (k + v + w - 1.0)
        a = u * u - A - C
        b = np.sqrt(A * (k + 1) * (k + v + w))
        return a, b

    def density_y(self, y: float) -> float:
        """Continuous density with respect to dy at y = sqrt(-x) (already per 2 pi)."""
        u, v, w = self.u, self.v, self.w
        lg = (loggamma(complex(u, y)) + loggamma(complex(v, y))
              + loggamma(complex(w, y)) - loggamma(complex(0.0, 2 * y)))
        return math.exp(2.0 * lg.real) / (2 * math.pi)

    def n_atoms(self) -> int:
        return int(math.ceil(-self.u)) if self.u < 0 else 0

    def atom_weight(self, n: int) -> float:
        u, v, w = self.u, self.v, self.w
        pref = math.exp(gammaln(u + v) + gammaln(u + w) + gammaln(v - u)
                        + gammaln(w - u) - gammaln(-2 * u))
        num = den = 1.0
        for j in range(n):
            num *= (2 * u + j) * (u + 1 + j) * (u + v + j) * (u + w + j)
            den *= (u + j) * (u - v + 1 + j) * (u - w + 1 + j) * (j + 1)
        return pref * num / den * (-1.0) ** n

    def measure(self, normalize: bool = False) -> SpectralMeasure:
        atoms = tuple(((self.u + n) ** 2, self.atom_weight(n))
                      for n in range(self.n_atoms()))
        dens = lambda x: (self.density_y(math.sqrt(-x)) / (2 * math.sqrt(-x))
                          if x < 0 else 0.0)
        mass = math.exp(gammaln(self.u + self.v) + gammaln(self.u + self.w)
                        + gammaln(self.v + self.w))
        m = SpectralMeasure(atoms=atoms,
                            continuous=ContinuousPart((-math.inf, 0.0), dens),
                            total_mass_closed=mass)
        return m.normalized() if normalize else m


PolyFamily = Union[Laguerre, Meixner, MeixnerPollaczek, DualHahn, ContinuousDualHahn]


# ---------------------------------------------------------------------------
# evaluation and orthonormality checks

def eval_orthonormal(family: PolyFamily, n: int, x: float | np.ndarray):
    """Value at x of the orthonormal degree-n member: row n of
    :func:`poly_table`."""
    if family.nmax is not None and n > family.nmax:
        raise ValueError(f"degree {n} exceeds family size {family.nmax}")
    return poly_table(family, n, x)[n]


def poly_table(family: PolyFamily, n_max: int, x: float | np.ndarray) -> np.ndarray:
    """Values P_0(x), ..., P_{n_max}(x) in one forward recurrence sweep.

    ``x`` is a scalar or an array; the result has shape
    ``(n_max + 1,) + x.shape``, row n holding P_n at every point.  The
    coefficients a_0..a_{n_max-1}, b_0..b_{n_max-1} come from one
    vectorized ``recurrence`` call, and every entry is bit-identical to the
    sweep at that point alone.  P_{-1} = 0 and P_0 = 1; orthonormality is
    with respect to the family's normalized measure.  Forward recurrence
    only: fine for the small degrees in scope, instability at large degree
    is documented, not mitigated.
    """
    x = np.asarray(x, dtype=float)[()]   # a scalar x stays a numpy scalar
    a, b = family.recurrence(np.arange(n_max, dtype=float))
    out = np.empty((n_max + 1,) + np.shape(x))
    out[0] = 1.0
    if n_max >= 1:
        out[1] = (x - a[0]) / b[0]
    for k in range(1, n_max):
        out[k + 1] = ((x - a[k]) * out[k] - b[k - 1] * out[k - 1]) / b[k]
    return out


def _integrate(f: Callable[[float], np.ndarray], lo: float, hi: float,
               characteristic: float = 1.0):
    """Adaptive quadrature over (lo, hi) of a scalar- or vector-valued f,
    infinite supports truncated where every entry is negligible.

    One ``quad_vec`` per breakpoint piece integrates all entries together
    (error in the max norm).  Raises on an unreliable error estimate.
    """
    lo_f, hi_f = _finite_cutoffs(lambda x: np.abs(f(x)).max(), lo, hi,
                                 characteristic)
    pieces = _breakpoints(lo_f, hi_f)
    total = 0.0
    err = 0.0
    with warnings.catch_warnings():
        # endpoint singularities keep the subdivision from converging to
        # its own target; the error estimate below gates acceptance
        warnings.simplefilter("ignore", IntegrationWarning)
        for a, b in zip(pieces[:-1], pieces[1:]):
            val, est = quad_vec(f, a, b, epsabs=1e-13, epsrel=1e-10,
                                norm="max", limit=300)
            total = total + val
            err += est
    scale = float(np.abs(total).max())
    if err > 1e-7 * (scale + 1.0):
        raise NumericalFailureError(
            f"quadrature error estimate {err:.2e} too large on "
            f"({lo_f:.3g}, {hi_f:.3g}), largest value {scale:.6e}"
        )
    return total


def _finite_cutoffs(f, lo, hi, characteristic):
    peak = max(abs(f(x)) for x in _probe_points(lo, hi, characteristic))
    if peak == 0.0:
        peak = 1.0
    thresh = 1e-18 * peak
    if math.isinf(hi):
        hi = characteristic
        for _ in range(80):
            if abs(f(hi)) < thresh:
                break
            hi *= 2.0
        else:
            raise NumericalFailureError("no decay found toward +inf")
    if math.isinf(lo):
        lo = -characteristic
        for _ in range(80):
            if abs(f(lo)) < thresh:
                break
            lo *= 2.0
        else:
            raise NumericalFailureError("no decay found toward -inf")
    return lo, hi


def _probe_points(lo, hi, characteristic):
    pts = []
    a = lo if math.isfinite(lo) else -8 * characteristic
    b = hi if math.isfinite(hi) else 8 * characteristic
    for i in range(1, 32):
        pts.append(a + (b - a) * i / 32.0)
    return pts


def _breakpoints(lo, hi):
    """Geometric ladder of subdivision points; quad handles each piece."""
    pts = {lo, hi}
    mag = 1.0
    while mag < max(abs(lo), abs(hi)):
        for s in (-mag, mag):
            if lo < s < hi:
                pts.add(s)
        mag *= 2.0
    if lo < 0 < hi:
        pts.add(0.0)
    return sorted(pts)


def _gram_atoms(family: PolyFamily, n_max: int):
    """Atom list covering the discrete part to relative tail 1e-20 under
    polynomial factors of degree <= 2 n_max."""
    if isinstance(family, DualHahn):
        meas = family.measure(normalize=True)
        return list(meas.atoms)
    if isinstance(family, Meixner):
        mass = family.measure(n_atoms=1).total_mass()
        atoms = []
        n = 0
        while True:
            x = 2.0 * n + family.beta
            w = family.atom_weight(n) / mass
            atoms.append((x, w))
            if n > 4 * n_max and w * max(1.0, x) ** (2 * n_max) < 1e-20:
                break
            n += 1
            if n > 100_000:
                raise NumericalFailureError("Meixner atom tail did not close")
        return atoms
    if isinstance(family, ContinuousDualHahn):
        mass = family.measure().total_mass_closed
        return [(loc, w / mass) for loc, w in family.measure().atoms]
    return []


def gram_check(family: PolyFamily, n_max: int) -> float:
    """Max deviation |<P_i, P_j> - delta_ij| for i, j <= n_max under the
    family's normalized measure.

    The atom part is one product (P w) P^T over all atoms; the continuous
    part integrates the upper triangle of density * P P^T as one vector
    with a single adaptive quadrature per breakpoint piece.
    """
    if family.nmax is not None:
        n_max = min(n_max, family.nmax)
    G = np.zeros((n_max + 1, n_max + 1))
    atoms = _gram_atoms(family, n_max)
    if atoms:
        x, w = np.array(atoms).T
        p = poly_table(family, n_max, x)
        G += (p * w) @ p.T
    upper = np.triu_indices(n_max + 1)
    if isinstance(family, Laguerre):
        # substitute x = t^2: the Jacobian 2t cancels the x^alpha endpoint
        # singularity for alpha = -1/2 and softens it for any alpha > -1
        dens = family.measure(normalize=True).continuous.density

        def f(t):
            p = poly_table(family, n_max, t * t)
            return 2.0 * t * dens(t * t) * np.outer(p, p)[upper]
        vals = _integrate(f, 0.0, math.inf, characteristic=2.0 * math.sqrt(n_max + 1))
    elif isinstance(family, MeixnerPollaczek):
        meas = family.measure(normalize=True)
        lo, hi = meas.continuous.support
        dens = meas.continuous.density

        def f(x):
            p = poly_table(family, n_max, x)
            return dens(x) * np.outer(p, p)[upper]
        vals = _integrate(f, lo, hi, characteristic=4.0 * (n_max + 1))
    elif isinstance(family, ContinuousDualHahn):
        # substitute x = -y^2: the 1/(2y) density factor cancels the
        # Jacobian, leaving the smooth integrand density_y * P_i * P_j
        mass = family.measure().total_mass_closed

        def f(y):
            p = poly_table(family, n_max, -y * y)
            return family.density_y(y) / mass * np.outer(p, p)[upper]
        vals = _integrate(f, 0.0, math.inf, characteristic=4.0)
    else:
        vals = 0.0
    C = np.zeros_like(G)
    C[upper] = vals
    G += C + np.triu(C, 1).T
    return float(np.abs(G - np.eye(n_max + 1)).max())
