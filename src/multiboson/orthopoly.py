"""Special functions and the five orthogonal-polynomial families.

The special functions are the few the package needs beyond
``scipy.special``, which it calls directly for log-Gamma and Bessel K: the
rising factorial and its logarithm, 0F1 with a checked domain, and the
terminating 3F2, the independent reference for the D-block eigenvectors.
:func:`poly_table` is the one forward three-term sweep.

Every family is a frozen parameter record that knows its orthonormal
three-term recurrence (positive off-diagonal convention, P_0 = 1) and its
orthogonality measure.  ``measure()`` returns a :class:`SpectralMeasure`:
atom locations and weights as two float arrays plus, for a continuum, its
support interval.  ``recurrence(k)`` takes a scalar or a float k-array and
returns (a_k, b_k) elementwise.  Measures are kept in the family's natural
variable; callers map to physical variables with
:meth:`SpectralMeasure.mapped`.

Natural variables and stored (unnormalized) measures:

* ``Laguerre(alpha)``            density x^alpha e^-x on (0, inf)
* ``Meixner(beta, c)``           atoms (beta)_n c^n / n! at x = 2n + beta
* ``MeixnerPollaczek(lam, phi)`` density e^{(2 phi - pi) x} |Gamma(lam + ix)|^2
* ``DualHahn(gamma, delta, K)``  K+1 atoms at x = n (n + gamma + delta + 1)
* ``ContinuousDualHahn(u,v,w)``  density on (-inf, 0) plus ceil(-u) atoms at
  x = (u+n)^2 when u < 0

Every family gives its total mass in closed form, ``mass()``, and a
continuous one its density (``ContinuousDualHahn``: ``density_y``, y =
sqrt(-x)), an elementwise function of a scalar or an array; only
:func:`gram_matrix` reads them.  Each atom weight comes from its family's
scalar formula, one atom at a time (``DualHahn``: one array expression),
so a weight does not depend on how many atoms are asked for;
:func:`gram_matrix` takes its Meixner atoms from ``Meixner.measure`` too.

One routine, :func:`_integrate`, does every quadrature of the package: the
continuous parts in :func:`gram_check` and the moments of
``coherent.RadialMeasure``.  It finds the finite ends of an infinite
support itself and runs the 21-point Gauss-Kronrod rule of QUADPACK
(Piessens et al., 1983) under local adaptive bisection: one pass over the
whole breakpoint ladder, evaluating the integrand once per round on the
nodes of every panel whose error estimate passes its own tolerance, within
one panel budget for the whole integral.
"""

import cmath
import math
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, Union

import numpy as np
from scipy.special import betaln, gammaln, iv, loggamma
from scipy.special import hyp0f1 as _hyp0f1

from .errors import NumericalFailureError, ParameterError

__all__ = [
    "pochhammer",
    "ln_pochhammer",
    "hyp0f1",
    "hyp3f2_terminating",
    "LN_FLOAT_MAX",
    "SpectralMeasure",
    "Laguerre",
    "Meixner",
    "MeixnerPollaczek",
    "DualHahn",
    "ContinuousDualHahn",
    "PolyFamily",
    "poly_table",
    "gram_matrix",
    "gram_check",
]


# ---------------------------------------------------------------------------
# special functions

def pochhammer(a: float, k: int) -> float:
    """Rising factorial (a)_k = a (a+1) ... (a+k-1), elementwise over an array a."""
    out = 1.0
    for j in range(k):
        out *= a + j
    return out


def _stirling_tail(x: float) -> float:
    """log Gamma(x) - ((x - 1/2) log x - x + log(2 pi) / 2) for x >= 64, by
    its asymptotic series to x^-5 (the next term is below 2e-16)."""
    r = 1.0 / (x * x)
    return (1.0 / 12.0 - r * (1.0 / 360.0 - r / 1260.0)) / x


def ln_pochhammer(a: float, k: int) -> float:
    """log (a)_k for finite a > 0 and an integer k >= 0, within
    2 eps max(1, k) max(1, |log (a)_k|), at O(1) cost but for k < a < 64.

    For k >= a, log Gamma(a + k) - log Gamma(a) loses nothing: the result
    is of the size of the larger log-Gamma.  For k < a < 64 it is the log of
    the product (a)_k (fewer than 64 factors below 128, so no overflow).
    For k < a from 64 on, the log-Gammas nearly cancel (at a 1e16 they keep
    no digit), so the Stirling series is differenced analytically:
    k log a + (a + k - 1/2) log1p(k/a) - k plus the difference of the series
    tails, with no term much larger than the result."""
    if not 0 < a < math.inf:
        raise ParameterError(("a",), f"ln_pochhammer requires finite a > 0, got {a}")
    if k >= a:
        return float(gammaln(a + k) - gammaln(a))
    if a < 64.0:
        return math.log(pochhammer(a, k))
    return (k * math.log(a) + (a + k - 0.5) * math.log1p(k / a) - k
            + (_stirling_tail(a + k) - _stirling_tail(a)))


def hyp0f1(b: float, z: complex) -> complex:
    """0F1(; b; z) for b > 0 by ``scipy.special.hyp0f1``: a float for a real
    z, a complex for a complex z.  Every term is positive at a real z >= 0,
    so 0F1 >= 1 there, and a smaller value or a nan is scipy's overflow: it
    is returned as inf.  At b 1 exactly, where 0F1(; 1; z) = I0(2 sqrt z),
    scipy is not called once I0 overflows, since its asymptotic branch
    divides by b - 1 there.  ParameterError names b unless b > 0, and a NaN z
    (real or complex), before scipy is called."""
    if not b > 0:
        raise ParameterError(("b",), f"hyp0f1 requires b > 0, got {b}")
    if cmath.isnan(z):
        raise ParameterError(("z",), f"hyp0f1 requires a z that is not NaN, got {z}")
    if isinstance(z, complex):
        return complex(_hyp0f1(b, z))
    if b == 1.0 and z > 0 and math.isinf(iv(0.0, 2.0 * math.sqrt(z))):
        return math.inf
    value = float(_hyp0f1(b, z))
    return math.inf if z >= 0 and not value >= 1.0 else value


def hyp3f2_terminating(n: int, b: float, c: float, d: float, e: float) -> float:
    """3F2(-n, b, c; d, e; 1) as the exact finite sum of n + 1 terms.

    A lower parameter that is zero or hits zero inside the summation range
    (d or e in {0, -1, ..., -(n-1)}) makes a term divide by zero and raises.
    ParameterError names n below 0, each of b, c, d, e that is NaN, and d, e
    when a lower parameter hits zero.
    """
    if not n >= 0:
        raise ParameterError(("n",), f"hyp3f2_terminating requires n >= 0, got {n}")
    nan = tuple(name for name, v in zip("bcde", (b, c, d, e)) if v != v)
    if nan:
        raise ParameterError(nan, f"hyp3f2_terminating parameters {nan} are NaN")
    total = 1.0
    term = 1.0
    for k in range(n):
        dk, ek = d + k, e + k
        if dk == 0.0 or ek == 0.0:
            raise ParameterError(("d", "e"), f"lower parameter hits zero inside the "
                                 f"sum: d={d}, e={e}, n={n}")
        term *= (-n + k) * (b + k) * (c + k) / (dk * ek * (k + 1.0))
        total += term
    return total


# ---------------------------------------------------------------------------
# spectral measures

def _where_positive(x, fn):
    """fn(x) where x > 0 and 0 elsewhere, elementwise over a scalar or an
    array x; fn only sees the positive entries."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape)
    pos = x > 0
    out[pos] = fn(x[pos])
    return out[()]


@dataclass(frozen=True)
class SpectralMeasure:
    """Atoms at ``locations`` with positive ``weights`` (float arrays of one
    length, empty for a purely continuous measure) plus the interval
    ``support`` of the continuum, None for a purely atomic measure.

    The record holds what a spectrum prints; the density and the closed
    total mass stay with the family.  The affine map from a family's natural
    variable to a physical one is recorded once, on ``jacobi.Chain``.
    ParameterError names the fields at fault: arrays of two lengths, and an
    atom weight that is not positive (NaN included).
    """

    locations: np.ndarray = field(default_factory=lambda: np.empty(0))
    weights: np.ndarray = field(default_factory=lambda: np.empty(0))
    support: tuple[float, float] | None = None

    def __post_init__(self):
        # the dataclass is frozen
        object.__setattr__(self, "locations", np.asarray(self.locations, dtype=float))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        if self.locations.shape != self.weights.shape or self.weights.ndim != 1:
            raise ParameterError(("locations", "weights"),
                                 "locations and weights must be 1-d arrays of one length")
        bad = np.flatnonzero(~(self.weights > 0))
        if bad.size:
            i = bad[0]
            raise ParameterError(("weights",), f"atom weight must be positive, got "
                                 f"{self.weights[i]} at {self.locations[i]}")

    def mapped(self, shift: float, scale: float) -> "SpectralMeasure":
        """The locations and the support under x -> scale * x + shift.
        ParameterError names a scale that is 0 or NaN."""
        if not abs(scale) > 0:
            raise ParameterError(("scale",), f"scale must be nonzero, got {scale}")
        support = self.support
        if support is not None:
            support = tuple(sorted(scale * s + shift for s in support))
        return SpectralMeasure(scale * self.locations + shift, self.weights, support)


# ---------------------------------------------------------------------------
# families

LN_FLOAT_MAX = math.log(sys.float_info.max)


def _exp(ln: float, names, what: str) -> float:
    """e^ln, or ParameterError naming the family parameters ``names``."""
    if not ln < LN_FLOAT_MAX:
        raise ParameterError(names, f"the {what} e^{ln:.6g} overflows float64")
    return math.exp(ln)


@dataclass(frozen=True)
class Laguerre:
    """Laguerre-class family, density x^alpha e^-x on the half line."""

    alpha: float
    nmax = None

    def __post_init__(self):
        if not self.alpha > -1:
            raise ParameterError(("alpha",), f"Laguerre requires alpha > -1, got {self.alpha}")

    def recurrence(self, k: float | np.ndarray):
        a = 2 * k + self.alpha + 1
        b = np.sqrt((k + 1) * (k + self.alpha + 1))
        return a, b

    def density(self, x: float | np.ndarray):
        """x^alpha e^-x, 0 off the half line."""
        al = self.alpha
        return _where_positive(x, lambda p: np.exp(al * np.log(p) - p))

    def mass(self) -> float:
        """Gamma(alpha + 1); ParameterError names alpha when it overflows."""
        return _exp(gammaln(self.alpha + 1), ("alpha",), "Laguerre mass")

    def measure(self) -> SpectralMeasure:
        """No atoms; the continuum (0, inf)."""
        return SpectralMeasure(support=(0.0, math.inf))


@dataclass(frozen=True)
class Meixner:
    """Meixner-class family with atoms at x = 2n + beta, weights (beta)_n c^n / n!.

    Defined directly by the recurrence
        a_k = (1+c)/(1-c) (2k + beta),   b_k = 2 sqrt(c) / (1-c) sqrt((k+1)(k+beta)),
    which fixes the normalization unambiguously.
    """

    beta: float
    c: float
    nmax = None

    def __post_init__(self):
        if not self.beta > 0:
            raise ParameterError(("beta",), f"Meixner requires beta > 0, got {self.beta}")
        if not 0 < self.c < 1:
            raise ParameterError(("c",), f"Meixner requires 0 < c < 1, got {self.c}")

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

    def mass(self) -> float:
        """(1 - c)^-beta, which bounds every weight.  ParameterError names
        beta and c when it nears overflow."""
        if not -self.beta * math.log1p(-self.c) < LN_FLOAT_MAX - 1.0:
            raise ParameterError(("beta", "c"), f"the Meixner mass (1 - c)^-beta "
                                 f"overflows float64 at beta = {self.beta}, c = {self.c}")
        return (1 - self.c) ** (-self.beta)

    def measure(self, n_atoms: int | None = None) -> SpectralMeasure:
        """The first ``n_atoms`` atoms (default ``default_n_atoms()``), no
        continuum.  ParameterError names n_atoms when it is negative or a
        weight is 0, and beta and c when the mass nears overflow (``mass``)."""
        if n_atoms is None:
            n_atoms = self.default_n_atoms()
        if not n_atoms >= 0:
            raise ParameterError(("n_atoms",), f"need n_atoms >= 0, got {n_atoms}")
        self.mass()   # its guard bounds every weight
        w = np.array([self.atom_weight(n) for n in range(n_atoms)])
        if n_atoms and w[-1] == 0.0:   # unimodal weights underflow at the top
            raise ParameterError(("n_atoms",), f"atom {n_atoms - 1}'s weight underflows")
        return SpectralMeasure(2.0 * np.arange(n_atoms) + self.beta, w)


@dataclass(frozen=True)
class MeixnerPollaczek:
    """Meixner-Pollaczek-class family, density e^{(2 phi - pi) x} |Gamma(lam + ix)|^2."""

    lam: float
    phi: float
    nmax = None

    def __post_init__(self):
        if not self.lam > 0:
            raise ParameterError(("lam",), f"MeixnerPollaczek requires lam > 0, got {self.lam}")
        if not 0 < self.phi < math.pi:
            raise ParameterError(("phi",),
                                 f"MeixnerPollaczek requires 0 < phi < pi, got {self.phi}")

    def recurrence(self, k: float | np.ndarray):
        lam, phi = self.lam, self.phi
        a = -(k + lam) * math.cos(phi) / math.sin(phi)
        b = np.sqrt((k + 1) * (k + 2 * lam)) / (2 * math.sin(phi))
        return a, b

    def density(self, x: float | np.ndarray):
        """e^{(2 phi - pi) x} |Gamma(lam + ix)|^2 in one exponent, so the
        first factor cannot overflow where the product is small."""
        lam, phi = self.lam, self.phi
        return np.exp((2 * phi - math.pi) * x
                      + 2.0 * loggamma(lam + 1j * np.asarray(x)).real)

    def mass(self) -> float:
        """2 pi Gamma(2 lam) / (2 sin phi)^(2 lam); ParameterError names lam
        when Gamma(2 lam) overflows, and lam and phi when the mass is not a
        finite positive float."""
        lam, phi = self.lam, self.phi
        gam = _exp(gammaln(2 * lam), ("lam",), "Meixner-Pollaczek mass factor Gamma(2 lam) =")
        den = (2 * math.sin(phi)) ** (2 * lam)
        mass = 2 * math.pi * gam / den if den > 0 else math.inf
        if not 0 < mass < math.inf:
            raise ParameterError(("lam", "phi"), f"the Meixner-Pollaczek mass leaves the "
                                 f"double range at lam = {lam}, phi = {phi}")
        return mass

    def measure(self) -> SpectralMeasure:
        """No atoms; the continuum is the whole line."""
        return SpectralMeasure(support=(-math.inf, math.inf))


@dataclass(frozen=True)
class DualHahn:
    """Dual-Hahn-class family: exactly K+1 members, atoms at x = n (n + gamma + delta + 1)."""

    gamma: float
    delta: float
    kmax: int

    def __post_init__(self):
        low = tuple(name for name in ("gamma", "delta") if not getattr(self, name) > -1)
        if low:
            raise ParameterError(low, f"DualHahn requires gamma > -1 and delta > -1, got "
                                 f"{self.gamma}, {self.delta}")
        if not (self.kmax >= 0 and float(self.kmax).is_integer()):
            raise ParameterError(("K",), f"DualHahn requires integer K >= 0, got {self.kmax}")

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

    def atom_weight(self, n: int | np.ndarray):
        """Weight (2n+s) (a0)_n (-K)_n K! / ((-1)^n n! (n+s)_{K+1} (b0)_n) of
        atom n, elementwise over an int array n (a0 = gamma + 1, b0 = delta
        + 1, s = a0 + b0 - 1), in log space: its K+1 factors leave the
        double range from K near 64.  The signs cancel, (2n+s) / (n+s)_{K+1}
        = (1 + n/(n+s)) / (n+s+1)_K, and C(K, n) and K! / (n+s+1)_K go
        through ``betaln``, free of the cancellation of log-Gammas of size
        K log K.  Weights below the double range (the top atoms from K near
        550) come out 0."""
        a0, b0, K = self.gamma + 1, self.delta + 1, self.kmax
        s = a0 + b0 - 1
        n = np.asarray(n, dtype=float)
        lead = np.log1p(n / np.where(n > 0, n + s, 1.0))
        return np.exp(lead + np.log((n + s + 1 + K) / (K + 1))
                      - betaln(K - n + 1, n + 1) + betaln(K + 1, n + s + 1)
                      + gammaln(a0 + n) - gammaln(a0) - gammaln(b0 + n) + gammaln(b0))

    def measure(self) -> SpectralMeasure:
        """The K+1 atoms.  ParameterError names K when an atom weight is
        below the double range (the top atoms from K near 550 at gamma,
        delta of order 1), with the largest K whose weights all stay in it,
        found by bisection over K: the smallest weight, the top atom's,
        falls as K grows."""
        g, d, K = self.gamma, self.delta, self.kmax
        n = np.arange(K + 1)
        w = self.atom_weight(n)
        if not (w > 0).all():
            good, bad = 0, K
            while bad - good > 1:
                mid = (good + bad) // 2
                if (DualHahn(g, d, mid).atom_weight(np.arange(mid + 1)) > 0).all():
                    good = mid
                else:
                    bad = mid
            raise ParameterError(("K",), f"the weights of DualHahn({g}, {d}, K) underflow "
                                 f"float64 at K = {K} from atom {int(np.argmin(w > 0))} on; "
                                 f"K <= {good} keeps every weight positive")
        return SpectralMeasure(n * (n + g + d + 1.0), w)

    def mass(self) -> float:
        """1 / C(delta + K, K)."""
        d, K = self.delta, self.kmax
        return math.exp(gammaln(d + 1) + gammaln(K + 1) - gammaln(d + 1 + K))


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
    nmax = None

    def __post_init__(self):
        u, v, w = self.u, self.v, self.w
        if not (v > 0 and w > 0 and u + v > 0 and u + w > 0):
            raise ParameterError(("u", "v", "w"), "ContinuousDualHahn requires v, w > 0 "
                                 f"and u+v, u+w > 0, got u={u}, v={v}, w={w}")

    def recurrence(self, k: float | np.ndarray):
        u, v, w = self.u, self.v, self.w
        A = (k + u + v) * (k + u + w)
        C = k * (k + v + w - 1.0)
        a = u * u - A - C
        b = np.sqrt(A * (k + 1) * (k + v + w))
        return a, b

    def density_y(self, y: float | np.ndarray):
        """Continuous density with respect to dy at y = sqrt(-x) (already per
        2 pi), elementwise over a scalar or an array y > 0."""
        u, v, w = self.u, self.v, self.w
        iy = 1j * np.asarray(y, dtype=float)
        lg = (loggamma(u + iy) + loggamma(v + iy) + loggamma(w + iy)
              - loggamma(2.0 * iy))
        return np.exp(2.0 * lg.real) / (2 * math.pi)

    def n_atoms(self) -> int:
        return int(math.ceil(-self.u)) if self.u < 0 else 0

    def atom_weight(self, n: int) -> float:
        u, v, w = self.u, self.v, self.w
        pref = _exp(gammaln(u + v) + gammaln(u + w) + gammaln(v - u) + gammaln(w - u)
                    - gammaln(-2 * u), ("u", "v", "w"), "atom weight prefactor")
        num = den = 1.0
        for j in range(n):
            num *= (2 * u + j) * (u + 1 + j) * (u + v + j) * (u + w + j)
            den *= (u + j) * (u - v + 1 + j) * (u - w + 1 + j) * (j + 1)
        return pref * num / den * (-1.0) ** n

    def mass(self) -> float:
        """Gamma(u + v) Gamma(u + w) Gamma(v + w); ParameterError names u, v
        and w when it overflows."""
        return _exp(gammaln(self.u + self.v) + gammaln(self.u + self.w)
                    + gammaln(self.v + self.w), ("u", "v", "w"), "mass")

    def measure(self) -> SpectralMeasure:
        """The ``n_atoms()`` atoms and the continuum (-inf, 0).  ParameterError
        names u, v and w when an atom weight leaves the double range."""
        n = range(self.n_atoms())
        w = np.array([self.atom_weight(k) for k in n])
        if not ((0 < w) & (w < math.inf)).all():
            raise ParameterError(("u", "v", "w"), "atom weights leave the double "
                                 f"range at u = {self.u}, v = {self.v}, w = {self.w}")
        return SpectralMeasure(np.array([(self.u + k) ** 2 for k in n]), w, (-math.inf, 0.0))


PolyFamily = Union[Laguerre, Meixner, MeixnerPollaczek, DualHahn, ContinuousDualHahn]


# ---------------------------------------------------------------------------
# evaluation and orthonormality checks

def poly_table(family: PolyFamily, n_max: int, x: float | np.ndarray) -> np.ndarray:
    """Values P_0(x), ..., P_{n_max}(x) in one forward recurrence sweep,
    the package's only one, for a family or a ``jacobi.JacobiOperator``.

    ``x`` is an array (a scalar is the 0-d case); the result has shape
    ``(n_max + 1,) + x.shape``, row n holding P_n at every point.  The
    coefficients a_0..a_{n_max-1}, b_0..b_{n_max-1} come from one
    vectorized ``recurrence`` call, and every entry is bit-identical to the
    sweep at that point alone.  P_{-1} = 0 and P_0 = 1; orthonormality is
    with respect to the family's normalized measure.  Forward recurrence
    only: right for the small degrees of the Gram checks and for solutions
    that decay only algebraically; instability is documented, not mitigated.
    ParameterError names n_max below 0 or past the last member of a finite
    family (``family.nmax``), where b_k = 0 would divide.
    """
    if n_max < 0:
        raise ParameterError(("n_max",), f"need n_max >= 0, got {n_max}")
    last = getattr(family, "nmax", None)   # a JacobiOperator has none
    if last is not None and n_max > last:
        raise ParameterError(("n_max",), f"need n_max <= {last}, the family's "
                             f"last member, got {n_max}")
    x = np.asarray(x, dtype=float)
    a, b = (c.tolist() for c in family.recurrence(np.arange(n_max, dtype=float)))
    out = np.empty((n_max + 1,) + x.shape)
    out[0] = prev = 1.0
    if n_max >= 1:
        out[1] = cur = (x - a[0]) / b[0]
    for k in range(1, n_max):
        prev, cur = cur, ((x - a[k]) * cur - b[k - 1] * prev) / b[k]
        out[k + 1] = cur
    return out


# Gauss-Kronrod 21-point rule on [-1, 1] (Piessens et al., QUADPACK, 1983,
# routine QK21): the Kronrod nodes and weights, and the weights of the
# embedded 10-point Gauss rule, whose nodes are the odd-indexed Kronrod nodes
_GK21_NODES = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_GK21_NODES = np.concatenate([_GK21_NODES, -_GK21_NODES[-2::-1]])
_GK21_WEIGHTS = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_GK21_WEIGHTS = np.concatenate([_GK21_WEIGHTS, _GK21_WEIGHTS[-2::-1]])
_G10_WEIGHTS = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
_G10_WEIGHTS = np.concatenate([_G10_WEIGHTS, _G10_WEIGHTS[::-1]])
# the tolerances of every _adaptive_gk21 panel and its budget of panels
# for the whole integral
_EPSABS, _EPSREL, _LIMIT = 1e-13, 1e-10, 300


def _gk21(f, a: np.ndarray, b: np.ndarray):
    """The 21-point Gauss-Kronrod rule on the panels [a_i, b_i], with one
    call of f on the nodes of all panels.

    f maps an x-array of shape (m,) to values of shape (m, n_out).
    Returns the panel integrals (len(a), n_out), their error estimates and
    their rounding-error bounds, both in the max norm over the n_out
    entries and formed as in QK21: the Kronrod-Gauss difference, scaled by
    the integral of |f - mean| and bounded below by 50 eps times the
    integral of |f|.
    """
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    x = c[:, None] + h[:, None] * _GK21_NODES
    fv = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape + (-1,))
    s_k = _GK21_WEIGHTS @ fv
    s_g = _G10_WEIGHTS @ fv[:, 1::2]
    s_abs = _GK21_WEIGHTS @ np.abs(fv)
    s_dabs = _GK21_WEIGHTS @ np.abs(fv - 0.5 * s_k[:, None])
    h = h[:, None]
    err = np.abs((s_k - s_g) * h).max(axis=1)
    dabs = np.abs(s_dabs * h).max(axis=1)
    scaled = (dabs != 0) & (err != 0)
    err[scaled] = dabs[scaled] * np.minimum(
        1.0, (200 * err[scaled] / dabs[scaled]) ** 1.5)
    rnd = np.abs(50 * sys.float_info.epsilon * h * s_abs).max(axis=1)
    floor = rnd > sys.float_info.min
    err[floor] = np.maximum(err[floor], rnd[floor])
    return h * s_k, err, rnd


def _adaptive_gk21(f, edges: np.ndarray):
    """Locally adaptive GK21 over the panels between consecutive ``edges``.

    One ``_gk21`` call evaluates every panel; each round then bisects, in
    one more call, every panel whose error estimate exceeds both its
    rounding bound and tol / 8, with the panel's own tol = max(_EPSABS,
    _EPSREL * |panel integral|_max), the max norm over the entries, so the
    small entries of a vector integrand keep their relative accuracy.  It
    stops when no panel needs splitting, when a split would pass _LIMIT
    panels over the whole integral, or at a non-finite estimate.

    Returns the integral and the summed error estimates plus rounding
    bounds.
    """
    ig, err, rnd = _gk21(f, edges[:-1], edges[1:])
    while np.isfinite(err).all():   # a non-finite value makes err non-finite
        tol = np.maximum(_EPSABS, _EPSREL * np.abs(ig).max(axis=1))
        i = np.flatnonzero((err > rnd) & (err > tol / 8))
        if not i.size or len(err) + i.size > _LIMIT:
            break
        # the left halves replace their panels, the right halves follow them
        mid = 0.5 * (edges[i] + edges[i + 1])
        ig2, err2, rnd2 = _gk21(f, np.concatenate([edges[i], mid]),
                                np.concatenate([mid, edges[i + 1]]))
        k = i.size
        ig[i], err[i], rnd[i] = ig2[:k], err2[:k], rnd2[:k]
        ig = np.insert(ig, i + 1, ig2[k:], axis=0)
        err = np.insert(err, i + 1, err2[k:])
        rnd = np.insert(rnd, i + 1, rnd2[k:])
        edges = np.insert(edges, i + 1, mid)
    return ig.sum(axis=0), float(err.sum() + rnd.sum())


def _integrate(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float) -> np.ndarray:
    """Adaptive quadrature over (lo, hi) of an array integrand, infinite
    supports truncated where every entry is negligible.

    f maps an x-array of shape (m,) to values of shape (m, n_out).  One
    :func:`_adaptive_gk21` pass takes every panel of the
    :func:`_breakpoints` ladder at once, every entry together, under its
    fixed tolerances and one _LIMIT panel budget for the whole integral.
    Raises NumericalFailureError when the summed error estimate exceeds
    1e-7 (|integral|_max + 1) or is not a number.
    """
    lo_f, hi_f = _finite_cutoff(f, lo), _finite_cutoff(f, hi)
    total, err = _adaptive_gk21(f, np.array(_breakpoints(lo_f, hi_f), dtype=float))
    scale = float(np.abs(total).max())
    if not err <= 1e-7 * (scale + 1.0):   # a NaN estimate fails too
        raise NumericalFailureError(
            f"quadrature error estimate {err:.2e} too large on "
            f"({lo_f:.3g}, {hi_f:.3g}), largest value {scale:.6e}"
        )
    return total


def _finite_cutoff(f, end: float) -> float:
    """A finite end stays.  An infinite end is found by a walk toward it,
    +-1, +-2, +-4, ..., that stops past the running peak of the walk: at
    the first point where every entry of f is below 1e-18 of that peak."""
    if math.isfinite(end):
        return end
    x = math.copysign(1.0, end)
    peak = 0.0
    for _ in range(80):
        size = float(np.abs(f(np.array([x]))).max())
        if size < 1e-18 * peak:
            return x
        peak = max(peak, size)
        x *= 2.0
    raise NumericalFailureError(f"no decay found toward {end}")


def _breakpoints(lo, hi):
    """Geometric ladder of subdivision points, the first panels of
    _adaptive_gk21."""
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


def _gram_measure(family: PolyFamily, n_max: int, mass: float) -> SpectralMeasure:
    """The family's measure, weights over ``mass``, Meixner's atoms cut at the
    first n > 4 n_max with w_n max(1, x_n)^(2 n_max) < 1e-20 (relative tail
    1e-20 under polynomial factors of degree <= 2 n_max); the atom count
    asked of ``Meixner.measure`` doubles until the cut lies inside it."""
    if not isinstance(family, Meixner):
        meas = family.measure()
        return replace(meas, weights=meas.weights / mass)
    n_atoms = max(family.default_n_atoms(), 4 * n_max + 2)
    while True:
        meas = family.measure(n_atoms)
        x, w = meas.locations, meas.weights / mass
        small = w * np.maximum(1.0, x) ** (2 * n_max) < 1e-20
        small[:4 * n_max + 1] = False
        if small.any():
            cut = int(np.argmax(small)) + 1
            return SpectralMeasure(x[:cut], w[:cut])
        n_atoms *= 2


def gram_matrix(family: PolyFamily, n_max: int) -> np.ndarray:
    """Gram matrix <P_i, P_j>, i, j <= n_max (capped at the family size),
    under the family's measure divided by its closed mass.

    The atom part is one product (P w) P^T over all atoms.  The continuous
    part integrates the upper triangle of density * P P^T as one vector
    with :func:`_integrate`; its integrand takes the quadrature nodes as an
    array, with one :func:`poly_table` sweep and one density evaluation
    per call.
    """
    if family.nmax is not None:
        n_max = min(n_max, family.nmax)
    G = np.zeros((n_max + 1, n_max + 1))
    mass = family.mass()
    meas = _gram_measure(family, n_max, mass)
    if meas.locations.size:
        p = poly_table(family, n_max, meas.locations)
        G += (p * meas.weights) @ p.T
    upper = np.triu_indices(n_max + 1)

    def products(x):
        # (len(x), n_upper): P_i(x) P_j(x) for i <= j, row by point
        p = poly_table(family, n_max, x)
        return (p[upper[0]] * p[upper[1]]).T

    if isinstance(family, Laguerre):
        # substitute x = t^2: the Jacobian 2t cancels the x^alpha endpoint
        # singularity for alpha = -1/2 and softens it for any alpha > -1
        def f(t):
            return (2.0 * t * (family.density(t * t) / mass))[:, None] * products(t * t)
        vals = _integrate(f, 0.0, math.inf)
    elif isinstance(family, MeixnerPollaczek):
        def f(x):
            return (family.density(x) / mass)[:, None] * products(x)
        vals = _integrate(f, *meas.support)
    elif isinstance(family, ContinuousDualHahn):
        # substitute x = -y^2: the 1/(2y) density factor cancels the
        # Jacobian, leaving the smooth integrand density_y * P_i * P_j
        def f(y):
            return (family.density_y(y) / mass)[:, None] * products(-y * y)
        vals = _integrate(f, 0.0, math.inf)
    else:
        vals = 0.0
    C = np.zeros_like(G)
    C[upper] = vals
    return G + C + np.triu(C, 1).T


def gram_check(family: PolyFamily, n_max: int) -> float:
    """Max deviation |<P_i, P_j> - delta_ij| for i, j <= n_max under the
    family's normalized measure: :func:`gram_matrix` against the identity."""
    G = gram_matrix(family, n_max)
    return float(np.abs(G - np.eye(len(G))).max())
