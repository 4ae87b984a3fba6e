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
also serves ``orthopoly.gram_matrix``.  A weight with both indices
raised by one (rho^{alpha0} K_{alpha0}(2 rho) / (2 pi Gamma(alpha0))) is
kept as ``reference_weight`` for comparison: its k-th moment overshoots by
the factor (alpha0 + k)/4, so no constant rescale can repair it.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, kv

from .errors import NumericalFailureError, ParameterError
from .orthopoly import LN_FLOAT_MAX, _integrate, _where_positive, hyp0f1, ln_pochhammer
from .rep import StateVector

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


def coherent_amplitudes(zeta: complex, alpha0: float, n: int) -> StateVector:
    """Unnormalized amplitudes zeta^k / sqrt(k! (alpha0)_k), k < n.

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
    return StateVector(amps[:-1])


def kernel(z: complex, alpha0: float) -> complex:
    """Reproducing kernel 0F1(; alpha0; z) evaluated at z = conj(eta) zeta."""
    return hyp0f1(alpha0, z)


@dataclass(frozen=True)
class RadialMeasure:
    """Rotation-invariant weight w(rho) with dmu = w(rho) rho drho dphi.

    The moments k = 0..``k_checked`` are computed once, at construction, and
    checked against the moment identity; ``moment`` and ``moment_error``
    read them back without a new quadrature.  ParameterError names alpha0
    unless alpha0 - 1 is above -1 in floats and Gamma(alpha0), which the
    weight divides by, is finite (alpha0 < 171.6), and k_checked when it is
    negative or its target overflows float64, before any quadrature.
    """

    alpha0: float
    k_checked: int = 8

    def __post_init__(self):
        if not (self.alpha0 + 1.0 > 1.0 and gammaln(self.alpha0) < LN_FLOAT_MAX):
            raise ParameterError(("alpha0",), f"{self.alpha0} outside (1.2e-16, 171.6)")
        if self.k_checked < 0:
            raise ParameterError(("k_checked",), f"k_checked {self.k_checked} below 0")
        self._check_order(self.k_checked, "k_checked")
        # the dataclass is frozen
        object.__setattr__(self, "_moments", tuple(
            self._moment_vector(self.weight, self.k_checked).tolist()))
        worst = max(self.moment_error(k) for k in range(self.k_checked + 1))
        if worst > 1e-6:
            raise NumericalFailureError(
                f"moment identity violated at construction: rel err {worst:.2e}"
            )

    def weight(self, rho):
        """w(rho), elementwise over a scalar or an array; 0 for rho <= 0."""
        a = self.alpha0
        return _where_positive(rho, lambda r: (
            2.0 * r ** (a - 1.0) * kv(a - 1.0, 2.0 * r)
            / (math.pi * math.exp(gammaln(a)))))

    def reference_weight(self, rho):
        """Weight with both indices raised; fails the moment identity."""
        a = self.alpha0
        return _where_positive(rho, lambda r: (
            r ** a * kv(a, 2.0 * r) / (2.0 * math.pi * math.exp(gammaln(a)))))

    def moment(self, k: int, weight=None) -> float:
        """integral rho^{2k} w(rho) 2 pi rho drho by quadrature of the moments
        0..max(k, ``k_checked``) together; the stored value for the shipped
        weight and 0 <= k <= ``k_checked``."""
        if k < 0:
            raise ValueError(f"moment order must be >= 0, got {k}")
        if weight is None and k <= self.k_checked:
            return self._moments[k]
        self._check_order(k)
        w = self.weight if weight is None else weight
        return float(self._moment_vector(w, max(k, self.k_checked))[k])

    def _moment_vector(self, weight, k_max: int) -> np.ndarray:
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
            cols[:, 0] = 2.0 * math.pi * m * rho * rho / t * weight(rho)
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
    """Moment-matched radial measure for the holomorphic representation."""
    return RadialMeasure(alpha0, k_checked)


def holo_apply(which: str, coeffs, alpha0: float) -> np.ndarray:
    """Generator action on holomorphic polynomial coefficients.

    A0 = 2 z d/dz + alpha0, A+ = multiplication by z,
    A- = (alpha0 + z d/dz) d/dz; exact on coefficient lists.
    """
    if alpha0 <= 0:
        raise ValueError(f"alpha0 must be positive, got {alpha0}")
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
    raise ValueError(f"which must be 'A0', 'Aplus' or 'Aminus', got {which!r}")


@dataclass(frozen=True)
class SU11Element:
    """Matrix [[a, b], [conj(b), conj(a)]] with |a|^2 - |b|^2 = 1."""

    a: complex
    b: complex

    def __post_init__(self):
        det = abs(self.a) ** 2 - abs(self.b) ** 2
        if abs(det - 1.0) > 1e-9:
            raise ValueError(f"determinant {det} too far from 1")

    def det(self) -> float:
        return abs(self.a) ** 2 - abs(self.b) ** 2

    def multiply(self, other: "SU11Element") -> "SU11Element":
        a = self.a * other.a + self.b * other.b.conjugate()
        b = self.a * other.b + self.b * other.a.conjugate()
        return SU11Element(a, b)


def su11_flow(mu: float, nu: float, t: float) -> SU11Element:
    """Disc-model flow element at time t for labels (mu, nu).

    a(t) = cos(sqrt(mu nu) t) + i (mu+nu)/2 * sinc,  b(t) = i (nu-mu)/2 * sinc,
    where sinc = sin(sqrt(mu nu) t)/sqrt(mu nu) continues to sinh/x for
    mu nu < 0 and to t at mu nu = 0.
    """
    if mu == 0 and nu == 0:
        raise ValueError("label pair (0, 0) is excluded")
    p = mu * nu
    if p > 0:
        om = math.sqrt(p)
        cos_t = math.cos(om * t)
        sinc_t = math.sin(om * t) / om
    elif p < 0:
        om = math.sqrt(-p)
        cos_t = math.cosh(om * t)
        sinc_t = math.sinh(om * t) / om
    else:
        cos_t = 1.0
        sinc_t = t
    a = complex(cos_t, 0.5 * (mu + nu) * sinc_t)
    b = complex(0.0, 0.5 * (nu - mu) * sinc_t)
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
        raise ValueError(f"requires mu > nu > 0, got mu={mu}, nu={nu}")
    if alpha0 <= 0:
        raise ValueError(f"alpha0 must be positive, got {alpha0}")
    if abs(z) >= 1:
        raise ValueError(f"requires |z| < 1, got |z| = {abs(z)}")
    rm = math.sqrt(mu)
    rn = math.sqrt(nu)
    z1 = -((rm - rn) ** 2) / (mu - nu)
    z2 = -((rm + rn) ** 2) / (mu - nu)
    if abs(z - z1) < 1e-8 or abs(z - z2) < 1e-8:
        raise ValueError(f"z = {z} too close to a branch point")
    p = lam / (2.0 * rm * rn)
    a_exp = p - alpha0 / 2.0
    b_exp = -p - alpha0 / 2.0
    return complex(z - z1) ** a_exp * complex(z - z2) ** b_exp
