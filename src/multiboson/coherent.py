"""Coherent states of the lowering generator and the holomorphic picture.

A coherent state |zeta> has amplitudes zeta^k / sqrt(k! (alpha0)_k) over a
sector basis, squared norm 0F1(; alpha0; |zeta|^2), and reproducing kernel
K(conj(eta), zeta) = 0F1(; alpha0; conj(eta) zeta).

The radial weight making the monomials zeta^k / sqrt(k! (alpha0)_k) an
orthonormal system must satisfy the moment identity

    integral |zeta|^{2k} dmu = k! (alpha0)_k,   k = 0, 1, 2, ...

The weight shipping here is the one derived from that identity,

    dmu = [2 rho^{alpha0 - 1} K_{alpha0 - 1}(2 rho) / (pi Gamma(alpha0))]
          rho drho dphi,

verified at construction by ``orthopoly._integrate``, the quadrature that
also serves ``orthopoly.gram_matrix``.  It replaces the printed weight, both
indices raised by one (rho^{alpha0} K_{alpha0}(2 rho) / (2 pi Gamma(alpha0))),
whose k-th moment overshoots by the factor (alpha0 + k)/4, so no constant
rescale can repair it; the tests pin that erratum.
"""

import cmath
import itertools
import math
import sys
from dataclasses import InitVar, dataclass

import numpy as np
from scipy.special import gammaln, kv, kve

from .errors import NumericalFailureError, ParameterError
from .orthopoly import LN_FLOAT_MAX, _integrate, _where_positive, hyp0f1, ln_pochhammer

__all__ = [
    "coherent_amplitudes",
    "kernel",
    "RadialMeasure",
    "radial_measure",
    "holo_apply",
    "SU11Element",
    "su11_flow",
    "disc_eigenfunction",
]

TAIL_EPS = 1e-16


def coherent_amplitudes(zeta: complex, alpha0: float, n: int) -> np.ndarray:
    """Unnormalized complex amplitudes zeta^k / sqrt(k! (alpha0)_k), k < n.

    The truncation must hold the amplitude tail: the n-th squared term
    |zeta|^{2n} / (n! (alpha0)_n) has to stay below 1e-16 of the finite
    squared norm of the first n, else ParameterError names n and zeta.
    """
    if not (math.isfinite(alpha0) and alpha0 > 0 and n >= 1):
        raise ParameterError(("alpha0", "n"), "need 0 < alpha0 < inf and n >= 1")
    # the k! (alpha0)_k factor in log space; an amplitude past the double
    # range fails the criterion
    lg = np.array([0.5 * (gammaln(j + 1) + ln_pochhammer(alpha0, j)) for j in range(n + 1)])
    with np.errstate(over="ignore", invalid="ignore"):
        amps = np.asarray(zeta, dtype=complex) ** np.arange(n + 1) * np.exp(-lg)
        norm2 = float(np.sum(np.abs(amps[:-1]) ** 2))
    if not abs(amps[-1]) ** 2 <= TAIL_EPS * norm2 < math.inf:
        raise ParameterError(("n", "zeta"), f"{n} levels do not hold |zeta| = {abs(zeta)}")
    return amps[:-1]


def _ln_bessel_k(nu: float, x: np.ndarray) -> np.ndarray:
    """ln K_nu(x) over an array x > 0: ln kve(nu, x) - x where the scaled
    kve is finite, else the small-argument series

        K_nu(x) = 1/2 sum_k (-1)^k Gamma(nu - k) / k! (x/2)^(2k - nu)

    of |nu| (K_-nu = K_nu) in log space, summed over k < |nu| until a term
    drops below 1e-17 of the sum.  kve overflows only where (x/2)^2 is far
    below |nu|, so the terms fall fast; the dropped part of K there, of
    relative order (x/2)^(2|nu|) / Gamma(|nu|)^2, is below 1e-600."""
    nu = abs(nu)
    scaled = kve(nu, x)
    out = np.empty(x.shape)
    fin = np.isfinite(scaled)
    out[fin] = np.log(scaled[fin]) - x[fin]
    if not fin.all():
        h = 0.5 * x[~fin]
        term = np.ones(h.shape)
        total = np.ones(h.shape)
        k = 1
        while k < nu and (np.abs(term) > 1e-17 * np.abs(total)).any():
            term *= -h * h / (k * (nu - k))
            total += term
            k += 1
        out[~fin] = math.log(0.5) + gammaln(nu) - nu * np.log(h) + np.log(total)
    return out


def kernel(z: complex, alpha0: float) -> complex:
    """Reproducing kernel 0F1(; alpha0; z) evaluated at z = conj(eta) zeta.

    ParameterError names z unless it is finite, alpha0 unless
    0 < alpha0 < inf, and both when the value leaves the double range."""
    bad = [name for name, ok in (("z", cmath.isfinite(z)),
                                 ("alpha0", math.isfinite(alpha0) and alpha0 > 0)) if not ok]
    if bad:
        raise ParameterError(bad, f"need finite z and 0 < alpha0 < inf, got {z}, {alpha0}")
    value = hyp0f1(alpha0, z)
    if not cmath.isfinite(value):
        raise ParameterError(("z", "alpha0"), f"0F1(; {alpha0}; {z}) overflows float64")
    return value


@dataclass(frozen=True)
class RadialMeasure:
    """The moment-matched weight w(rho), with dmu = w(rho) rho drho dphi.

    The moments k = 0..``k_checked`` are computed once, at construction, and
    checked against the moment identity; ``moment`` and ``moment_error``
    read them back without a new quadrature, and refuse any other order.

    The domain is 0.02 <= alpha0 < 171.6.  Gamma(alpha0), which the weight
    divides by, overflows above it.  Below it the quadrature's substitution
    rho = t^(1/alpha0) reaches rho where w(rho) ~ rho^(2 alpha0 - 2)
    overflows, and t^(1/alpha0) itself overflows on the walk to the
    cutoff: the moments hold to 2.5e-15 at 0.02, and the quadrature
    overflows at 0.0185.  ParameterError names alpha0 outside the domain,
    and k_checked when it is negative or its target overflows float64,
    before any quadrature.
    """

    alpha0: float
    k_checked: int = 8

    def __post_init__(self):
        if not (self.alpha0 >= 0.02 and gammaln(self.alpha0) < LN_FLOAT_MAX):
            raise ParameterError(("alpha0",), f"{self.alpha0} outside [0.02, 171.6)")
        if self.k_checked < 0:
            raise ParameterError(("k_checked",), f"k_checked {self.k_checked} below 0")
        self._check_order(self.k_checked, "k_checked")
        # the dataclass is frozen
        object.__setattr__(self, "_moments", tuple(
            self._moment_vector(self.k_checked).tolist()))
        worst = max(self.moment_error(k) for k in range(self.k_checked + 1))
        if worst > 1e-6:
            raise NumericalFailureError(
                f"moment identity violated at construction: rel err {worst:.2e}"
            )

    def weight(self, rho):
        """w(rho) = 2 rho^(alpha0 - 1) K_(alpha0 - 1)(2 rho) / (pi Gamma(alpha0)),
        elementwise over a scalar or an array; 0 for rho <= 0."""
        return _where_positive(rho, self._bessel_weight)

    def _bessel_weight(self, r: np.ndarray) -> np.ndarray:
        """w(r) over an array r > 0.

        Where the direct product is not finite (0 * inf near r = 0 from
        alpha0 near 60 on, inf * tiny far out), or pi Gamma(alpha0) overflows
        (alpha0 above 171.1), it is evaluated in log space with
        ``_ln_bessel_k``."""
        a = self.alpha0
        nu = a - 1.0
        den = math.pi * math.exp(gammaln(a))
        with np.errstate(over="ignore", invalid="ignore"):
            out = 2.0 * r ** nu * kv(nu, 2.0 * r) / den
        bad = ~np.isfinite(out) | (not math.isfinite(den))
        if bad.any():
            rb = r[bad]
            out[bad] = np.exp(math.log(2.0 / math.pi) - gammaln(a)
                              + nu * np.log(rb) + _ln_bessel_k(nu, 2.0 * rb))
        return out

    def moment(self, k: int) -> float:
        """integral rho^{2k} w(rho) 2 pi rho drho, the stored value that the
        moment identity checked; ParameterError names k outside
        0..``k_checked``."""
        if not 0 <= k <= self.k_checked:
            raise ParameterError(("k",), f"moment order {k} outside the checked orders "
                                 f"0..{self.k_checked}")
        return self._moments[k]

    def _moment_vector(self, k_max: int) -> np.ndarray:
        """Moments k = 0..k_max of ``weight`` as one vector integral.  Column
        k is divided by its target k! (alpha0)_k, so the max-norm tolerance
        holds every moment to the same relative accuracy."""
        a = self.alpha0
        k = np.arange(1.0, k_max + 1)
        step = k * (a + k - 1.0)    # target_k / target_{k-1}
        # rho = t^m with m = max(2, 1 / alpha0): the rho^{2 alpha0 - 1}
        # endpoint of w(rho) rho drho becomes m t^{2 alpha0 m - 1} dt, at
        # least linear in t
        m = max(2.0, 1.0 / a)

        def f(t):
            rho = t ** m
            # column k is column k-1 times rho^2 / step_k, the weight first:
            # where it underflows every column is 0, never 0 * inf
            cols = np.empty((t.size, k_max + 1))
            cols[:, 0] = 2.0 * math.pi * m * rho * rho / t * self.weight(rho)
            cols[:, 1:] = (rho * rho)[:, None] / step
            return np.cumprod(cols, axis=1)
        return _integrate(f, 0.0, math.inf) * np.cumprod(np.append(1.0, step))

    def target_moment(self, k: int) -> float:
        """k! (alpha0)_k."""
        return math.exp(self._check_order(k))

    def _check_order(self, k: int, name: str = "k") -> float:
        """ln(k! (alpha0)_k), or ParameterError naming the order's parameter
        when k! (alpha0)_k overflows float64.  The logarithm rises from k = 1
        on, so the admissible orders are 0..top."""
        def ln_target(j):
            return gammaln(j + 1) + ln_pochhammer(self.alpha0, j)
        ln = ln_target(k)
        if ln > LN_FLOAT_MAX:
            top = next(j for j in itertools.count(1) if ln_target(j) > LN_FLOAT_MAX) - 1
            raise ParameterError((name,), f"moment order {k} overflows float64 at "
                                 f"alpha0 = {self.alpha0}: k! (alpha0)_k exceeds "
                                 f"1.8e308; the largest admissible order is {top}")
        return ln

    def moment_error(self, k: int) -> float:
        t = self.target_moment(k)
        return abs(self.moment(k) - t) / t


def radial_measure(alpha0: float, k_checked: int = 8) -> RadialMeasure:
    """Moment-matched radial measure for the holomorphic representation,
    0.02 <= alpha0 < 171.6 (``RadialMeasure``)."""
    return RadialMeasure(alpha0, k_checked)


def holo_apply(which: str, coeffs, alpha0: float) -> np.ndarray:
    """Generator action on holomorphic polynomial coefficients.

    A0 = 2 z d/dz + alpha0, A+ = multiplication by z,
    A- = (alpha0 + z d/dz) d/dz; exact on coefficient lists.
    """
    if not alpha0 > 0:
        raise ParameterError(("alpha0",), f"alpha0 must be positive, got {alpha0}")
    c = np.asarray(coeffs, dtype=complex)
    if which == "A0":
        k = np.arange(c.size)
        return (2.0 * k + alpha0) * c
    if which == "Aplus":
        return np.concatenate([np.zeros(1, dtype=complex), c])
    if which == "Aminus":
        if c.size <= 1:
            return np.zeros(max(c.size - 1, 1), dtype=complex)
        k = np.arange(1, c.size)
        return k * (alpha0 + k - 1.0) * c[1:]
    raise ParameterError(("which",), f"which must be 'A0', 'Aplus' or 'Aminus', got {which!r}")


# |det - 1| of a rounded element, in units of eps times the size its entries
# were rounded at; measured at most 4.0 over su11_flow draws (classes 3 and 4
# up to omega t = 300, every class at |mu|, |nu| <= 3) and 5.7 over products
DET_C = 16.0


def _size(a: complex, b: complex) -> float:
    """|a|^2 + |b|^2, inf (not OverflowError) past the double range."""
    return abs(a) * abs(a) + abs(b) * abs(b)


@dataclass(frozen=True)
class SU11Element:
    """Matrix [[a, b], [conj(b), conj(a)]] with |a|^2 - |b|^2 = 1 to
    rounding: |det - 1| <= DET_C eps size, where ``size`` is the
    |a|^2 + |b|^2 the entries were rounded at, the element's own by default.
    Both entries grow like e^(omega t) on a hyperbolic flow, so no absolute
    bound holds.  ``multiply`` passes the product of the factors' sizes: a
    product that cancels (g(t) g(s), s near -t) keeps the factors' rounding,
    not its own."""

    a: complex
    b: complex
    size: InitVar[float | None] = None

    def __post_init__(self, size):
        size = _size(self.a, self.b) if size is None else size
        if not (math.isfinite(size)
                and abs(self.det() - 1.0) <= DET_C * sys.float_info.epsilon * size):
            raise ParameterError(("a", "b"), f"({self.a}, {self.b}): |a|^2 - |b|^2 is not 1 "
                                 f"within {DET_C:g} eps (|a|^2 + |b|^2)")

    def det(self) -> float:
        return abs(self.a) ** 2 - abs(self.b) ** 2

    def multiply(self, other: "SU11Element") -> "SU11Element":
        a = self.a * other.a + self.b * other.b.conjugate()
        b = self.a * other.b + self.b * other.a.conjugate()
        return SU11Element(a, b, _size(self.a, self.b) * _size(other.a, other.b))


def su11_flow(mu: float, nu: float, t: float) -> SU11Element:
    """Disc-model flow element at time t for labels (mu, nu).

    a(t) = cos(sqrt(mu nu) t) + i (mu+nu)/2 * sinc,  b(t) = i (nu-mu)/2 * sinc,
    where sinc = sin(sqrt(mu nu) t)/sqrt(mu nu) continues to sinh/x for
    mu nu < 0 and to t at mu nu = 0.  ParameterError names mu and nu at the
    excluded pair (0, 0), and mu, nu and t where omega t, omega = sqrt|mu nu|,
    or |a|^2 + |b|^2 passes the double range (a hyperbolic flow near
    omega |t| = 355 for labels of order 1).
    """
    if mu == 0 and nu == 0:
        raise ParameterError(("mu", "nu"), "label pair (0, 0) is excluded")
    p = mu * nu
    om = math.sqrt(abs(p))
    wt = om * t
    if not math.isfinite(wt):
        raise ParameterError(("mu", "nu", "t"), f"omega t of the flow at mu={mu}, "
                             f"nu={nu}, t={t} passes the double range")
    if p > 0:
        cos_t = math.cos(wt)
        sinc_t = math.sin(wt) / om
    elif p < 0:
        try:
            cos_t = math.cosh(wt)
            sinc_t = math.sinh(wt) / om
        except OverflowError:
            cos_t = sinc_t = math.inf
    else:
        cos_t = 1.0
        sinc_t = t
    a = complex(cos_t, 0.5 * (mu + nu) * sinc_t)
    b = complex(0.0, 0.5 * (nu - mu) * sinc_t)
    if not math.isfinite(_size(a, b)):
        raise ParameterError(("mu", "nu", "t"), f"|a|^2 + |b|^2 of the flow at "
                             f"mu={mu}, nu={nu}, t={t} passes the double range")
    return SU11Element(a, b)


def disc_eigenfunction(lam: float, mu: float, nu: float, alpha0: float,
                       z: complex) -> complex:
    """Eigenfunction of the first-order disc generator at eigenvalue lam.

    phi(z) = (z - z1)^A (z - z2)^B with z1 = -(sqrt(mu)-sqrt(nu))^2/(mu-nu),
    z2 = -(sqrt(mu)+sqrt(nu))^2/(mu-nu), A = lam/(2 sqrt(mu nu)) - alpha0/2,
    B = -lam/(2 sqrt(mu nu)) - alpha0/2 (so A + B = -alpha0).  Principal
    branches; requires mu > nu > 0 and |z| < 1, and z at least 1e-8 away
    from each branch point.
    """
    if not (mu > nu > 0):
        raise ParameterError(("mu", "nu"), f"requires mu > nu > 0, got mu={mu}, nu={nu}")
    if not alpha0 > 0:
        raise ParameterError(("alpha0",), f"alpha0 must be positive, got {alpha0}")
    if not abs(z) < 1:
        raise ParameterError(("z",), f"requires |z| < 1, got |z| = {abs(z)}")
    if lam != lam:
        raise ParameterError(("lam",), "lam is NaN")
    rm = math.sqrt(mu)
    rn = math.sqrt(nu)
    z1 = -((rm - rn) ** 2) / (mu - nu)
    z2 = -((rm + rn) ** 2) / (mu - nu)
    if abs(z - z1) < 1e-8 or abs(z - z2) < 1e-8:
        raise ParameterError(("z",), f"z = {z} too close to a branch point")
    p = lam / (2.0 * rm * rn)
    a_exp = p - alpha0 / 2.0
    b_exp = -p - alpha0 / 2.0
    return complex(z - z1) ** a_exp * complex(z - z2) ** b_exp
