"""Special functions and polynomial families against independent oracles."""

import math
import re
from dataclasses import fields
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, quad_vec
from scipy.linalg import eigh_tridiagonal
from scipy.special import iv

from multiboson import orthopoly as op
from multiboson.coherent import _ln_bessel_k, radial_measure
from multiboson.errors import NumericalFailureError, ParameterError


# ---------------------------------------------------------------------------
# scalar special functions

def _ln_pochhammer_exact(a, k):
    a = mpmath.mpf(a)
    return mpmath.fsum(mpmath.log(a + j) for j in range(k))


# a from 0.3 to 1e300, on both sides of the branch points a = k and a = 64
LN_POCHHAMMER_A = [0.3, 0.5, 0.618, 1.0, 1.0 + 1e-10, 2.0, 2.7, 9.5, 39.9, 63.9, 64.0,
                   64.5, 100.0, 171.6, 399.5, 1e3, 1e6, 1e10, 1e12, 1e16, 1e100, 1e300]


@pytest.mark.parametrize("a", LN_POCHHAMMER_A)
def test_ln_pochhammer_against_mpmath(a):
    # within 2 eps max(1, k) of max(1, |log (a)_k|) against 40-digit mpmath;
    # the log-Gamma difference was off by 1e-7 relative at a 1e10 and kept
    # no digit at a 1e16 (measured worst of this grid: 0.61 of the bound)
    eps = np.finfo(float).eps
    for k in (0, 1, 2, 3, 7, 20, 40, 63, 64, 65, 100, 200, 399, 400):
        with mpmath.workdps(40):
            exact = _ln_pochhammer_exact(a, k)
            err = abs(mpmath.mpf(op.ln_pochhammer(a, k)) - exact)
        assert err <= 2 * eps * max(1, k) * max(1.0, abs(float(exact))), (a, k)


def test_ln_pochhammer_domain():
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            op.ln_pochhammer(bad, 3)

def test_gamma_abs_sq():
    # |Gamma(a + ib)|^2 through the package's one route, the Meixner-Pollaczek
    # density at phi = pi/2: Gamma(1/2)^2 = pi, Gamma(1) = 1 and
    # |Gamma(1 + i)|^2 = pi / sinh(pi)
    half = op.MeixnerPollaczek(0.5, math.pi / 2).density
    one = op.MeixnerPollaczek(1.0, math.pi / 2).density
    assert half(0.0) == pytest.approx(math.pi, rel=1e-12)
    assert one(0.0) == pytest.approx(1.0, rel=1e-12)
    assert one(1.0) == pytest.approx(math.pi / math.sinh(math.pi), rel=1e-12)
    with pytest.raises(ValueError):
        op.MeixnerPollaczek(0.0, 1.0)


def test_hyp0f1_trivial_and_bessel_oracle():
    assert op.hyp0f1(0.7, 0.0) == pytest.approx(1.0, abs=1e-15)
    # 0F1(; 1; x) = I_0(2 sqrt(x))
    assert op.hyp0f1(1.0, 1.0) == pytest.approx(float(iv(0, 2.0)), rel=1e-13)


def test_hyp0f1_direct_summation_oracle():
    total, term = 1.0, 1.0
    for k in range(200):
        term *= 4.0 / ((k + 1.0) * (2.0 + k))
        total += term
    assert op.hyp0f1(2.0, 4.0) == pytest.approx(total, rel=1e-14)
    assert op.hyp0f1(2.0, 4.0) == pytest.approx(4.87973257685222495, rel=1e-13)


def test_hyp0f1_against_mpmath_samples():
    # 0F1 at 40 digits on seeded draws: b in (0.05, 20), z real in [0, 50)
    # or complex with |Re z|, |Im z| < 30
    rng = np.random.default_rng(20260)
    worst = 0.0
    with mpmath.workdps(40):
        for i in range(120):
            b = float(rng.uniform(0.05, 20.0))
            if i % 2:
                z = complex(*rng.uniform(-30.0, 30.0, size=2))
            else:
                z = float(rng.uniform(0.0, 50.0))
            ref = complex(mpmath.hyp0f1(b, z))
            got = op.hyp0f1(b, z)
            assert isinstance(got, complex if i % 2 else float)
            worst = max(worst, abs(got - ref) / abs(ref))
    assert worst <= 1e-12


def test_hyp0f1_complex_and_domain():
    z = 1.0 + 2.0j
    val = op.hyp0f1(1.5, z)
    assert isinstance(val, complex)
    with pytest.raises(ValueError):
        op.hyp0f1(-1.0, 1.0)


def test_hyp3f2_terminating():
    assert op.hyp3f2_terminating(0, 5.0, -3.0, 7.7, 0.1) == 1.0
    b, c, d, e = 2.0, 3.0, 5.0, 7.0
    assert op.hyp3f2_terminating(1, b, c, d, e) == pytest.approx(
        1.0 - b * c / (d * e), rel=1e-14)
    # exact rational oracle
    total, term = Fraction(1), Fraction(1)
    for k in range(3):
        term *= Fraction((-3 + k) * (-2 + k) * (4 + k), (2 + k) * (-3 + k) * (k + 1))
        total += term
    assert op.hyp3f2_terminating(3, -2.0, 4.0, 2.0, -3.0) == pytest.approx(
        float(total), rel=1e-14)


@given(st.floats(0.1, 5.0), st.floats(-4.0, 4.0), st.floats(0.1, 5.0),
       st.floats(0.1, 5.0))
def test_hyp3f2_degree_zero_is_one(b, c, d, e):
    assert op.hyp3f2_terminating(0, b, c, d, e) == 1.0


def test_hyp3f2_lower_parameter_pole():
    with pytest.raises(ValueError):
        op.hyp3f2_terminating(3, 1.0, 1.0, -1.0, 2.0)
    # a lower parameter at -n exactly is fine: the zero sits past the last term
    op.hyp3f2_terminating(3, 1.0, 1.0, -3.0, 2.0)


def _bessel_k_quadrature(nu, x):
    f = lambda t: math.exp(-x * math.cosh(t)) * math.cosh(nu * t)
    val = quad(f, 0, 30, limit=400)[0]
    return val


def _bessel_k(nu, x):
    """K_nu(x) by the package's one Bessel path, the log-space
    ``coherent._ln_bessel_k`` of the radial weight."""
    return math.exp(_ln_bessel_k(nu, np.array([x]))[0])


@pytest.mark.parametrize("nu,x", [(1.5, 2.0), (0.0, 1.0)])
def test_bessel_k_integral_oracle(nu, x):
    assert _bessel_k(nu, x) == pytest.approx(_bessel_k_quadrature(nu, x), rel=1e-10)


def test_bessel_k_half_integer_closed_form():
    assert _bessel_k(0.5, 1.0) == pytest.approx(
        math.sqrt(math.pi / 2.0) * math.exp(-1.0), rel=1e-12)


def test_bessel_k_derivative_identity():
    # K_{nu-1}(x) + K_{nu+1}(x) = -2 dK_nu/dx
    for nu, x in ((0.7, 1.3), (2.0, 0.8)):
        h = 1e-6
        dk = (_bessel_k(nu, x + h) - _bessel_k(nu, x - h)) / (2 * h)
        lhs = _bessel_k(nu - 1, x) + _bessel_k(nu + 1, x)
        assert lhs == pytest.approx(-2.0 * dk, rel=1e-6)


# ---------------------------------------------------------------------------
# families: construction contracts

def test_family_validation():
    with pytest.raises(ValueError):
        op.Laguerre(-1.0)
    with pytest.raises(ValueError):
        op.Meixner(0.0, 0.5)
    with pytest.raises(ValueError):
        op.Meixner(1.0, 1.0)
    with pytest.raises(ValueError):
        op.MeixnerPollaczek(1.0, math.pi)
    with pytest.raises(ValueError):
        op.DualHahn(-1.5, 0.0, 3)
    with pytest.raises(ValueError):
        op.ContinuousDualHahn(-0.6, 0.5, 0.5)  # u + v <= 0


def test_orthonormal_degree_zero_is_one():
    for fam in (op.Laguerre(0.3), op.Meixner(1.0, 0.2),
                op.MeixnerPollaczek(0.5, 1.0), op.DualHahn(0.0, 0.0, 2),
                op.ContinuousDualHahn(0.3, 0.4, 0.5)):
        assert op.poly_table(fam, 0, 1.234)[0] == 1.0


def test_poly_table_refuses_a_negative_degree():
    with pytest.raises(ParameterError) as exc:
        op.poly_table(op.Meixner(1.0, 0.3), -1, np.linspace(0.0, 1.0, 3))
    assert exc.value.names == ("n_max",)


def test_meixner_degree_one_by_hand():
    # a_0 = (1+c)/(1-c) beta = 1.25, b_0 = 2 sqrt(c)/(1-c) = 0.75 for beta=1, c=1/9
    fam = op.Meixner(1.0, 1.0 / 9.0)
    x = 3.0  # first excited atom, 2*1 + beta
    assert op.poly_table(fam, 1, x)[1] == pytest.approx((x - 1.25) / 0.75, rel=1e-14)


def test_dual_hahn_two_point_gram_by_hand():
    fam = op.DualHahn(0.0, 0.0, 1)
    meas = fam.measure()
    locs = meas.locations
    ws = meas.weights / fam.mass()
    assert np.allclose(locs, [0.0, 2.0])
    assert np.allclose(ws, [0.5, 0.5])
    p1 = op.poly_table(fam, 1, locs)[1]
    assert p1 == pytest.approx([-1.0, 1.0], rel=1e-14)
    assert ws @ np.square(p1) == pytest.approx(1.0, rel=1e-14)
    assert ws @ p1 == pytest.approx(0.0, abs=1e-14)


def _dual_hahn_weight_exact(gamma, delta, K, n):
    """The product formula of the dual Hahn weight in exact rationals."""
    a0, b0 = Fraction(gamma) + 1, Fraction(delta) + 1
    num = (2 * n + a0 + b0 - 1) * math.factorial(K)
    for j in range(n):
        num *= (a0 + j) * (-K + j)
    den = (-1) ** n * math.factorial(n)
    for j in range(K + 1):
        den *= n + a0 + b0 - 1 + j
    for j in range(n):
        den *= b0 + j
    return num / den


# binary-exact (gamma, delta), so the exact rationals see the same parameters
DUAL_HAHN_PARAMS = [(0.0, 0.0), (-0.5, 1.75), (2.25, 0.375), (-0.875, -0.875),
                    (3.5, -0.25)]


@pytest.mark.parametrize("gamma, delta", DUAL_HAHN_PARAMS)
def test_dual_hahn_weights_match_the_product_formula(gamma, delta):
    # log-space weights within 256 eps of the exact product formula at K <= 40
    eps = np.finfo(float).eps
    for K in (0, 1, 2, 5, 13, 27, 40):
        w = op.DualHahn(gamma, delta, K).atom_weight(np.arange(K + 1))
        ex = np.array([float(_dual_hahn_weight_exact(gamma, delta, K, n))
                       for n in range(K + 1)])
        assert (np.abs(w - ex) / ex).max() <= 256 * eps, K


@pytest.mark.parametrize("gamma, delta", DUAL_HAHN_PARAMS)
@pytest.mark.parametrize("K", [65, 200, 800])
def test_dual_hahn_weights_past_the_product_range(gamma, delta, K):
    # the product formula's factors leave the double range from K near 64;
    # the weights stay finite, sum to the closed-form mass 1 / C(delta+K, K)
    # within 8 eps K, and are positive wherever the double range holds them
    eps = np.finfo(float).eps
    fam = op.DualHahn(gamma, delta, K)
    w = fam.atom_weight(np.arange(K + 1))
    mass = math.exp(math.lgamma(delta + 1) + math.lgamma(K + 1)
                    - math.lgamma(delta + 1 + K))
    assert np.isfinite(w).all() and (w >= 0).all()
    assert abs(math.fsum(w) / mass - 1.0) <= 8 * eps * K
    if K < 800:
        assert (w > 0).all()
        assert len(fam.measure().locations) == K + 1
    else:
        # the top atoms weigh about 1e-480, below the double range: they
        # round to 0, past the first half of the block
        assert (w[:K // 2] > 0).all() and w[-1] == 0.0
        with pytest.raises(ParameterError, match=r"K <= 5[2-5][0-9] keeps") as exc:
            fam.measure()
        assert exc.value.names == ("K",)


@pytest.mark.parametrize("gamma, delta", DUAL_HAHN_PARAMS + [(-0.99, 50.0)])
def test_dual_hahn_measure_names_the_largest_working_K(gamma, delta):
    # the range the error states is exact: its K builds a measure, K + 1 not
    with pytest.raises(ParameterError) as exc:
        op.DualHahn(gamma, delta, 1000).measure()
    good = int(re.search(r"K <= (\d+)", str(exc.value)).group(1))
    assert len(op.DualHahn(gamma, delta, good).measure().weights) == good + 1
    with pytest.raises(ParameterError, match=f"K <= {good} keeps"):
        op.DualHahn(gamma, delta, good + 1).measure()


def test_meixner_measure_normalization():
    fam = op.Meixner(0.7, 1.0 / 9.0)
    printed = fam.measure()
    assert printed.weights[0] == pytest.approx(1.0)  # (beta)_0 c^0 / 0!
    assert fam.mass() == pytest.approx((1 - 1 / 9.0) ** (-0.7), rel=1e-12)
    normalized = printed.weights / fam.mass()
    assert math.fsum(normalized) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(printed.locations[:3], [0.7, 2.7, 4.7])
    # each weight is its scalar formula over the closed-form mass
    assert normalized.tolist() == [fam.atom_weight(n) / fam.mass()
                                   for n in range(len(printed.weights))]


def test_cdh_atom_count():
    assert op.ContinuousDualHahn(-0.2, 0.5, 0.5).n_atoms() == 1
    assert op.ContinuousDualHahn(-1.3, 2.0, 1.7).n_atoms() == 2
    assert op.ContinuousDualHahn(0.5, 0.5, 1.0).n_atoms() == 0
    locs = op.ContinuousDualHahn(-1.3, 2.0, 1.7).measure().locations
    assert locs.tolist() == pytest.approx([1.69, 0.09])


def test_measure_mapped_affine():
    fam = op.Meixner(1.0, 0.25)
    meas = fam.measure(n_atoms=5).mapped(shift=1.0, scale=-2.0)
    assert meas.locations[0] == pytest.approx(-2.0 * 1.0 + 1.0)
    assert np.array_equal(meas.weights, fam.measure(n_atoms=5).weights)
    lag = op.Laguerre(0.5).measure().mapped(0.0, 0.5)
    lo, hi = lag.support
    assert lo == 0.0 and math.isinf(hi)
    # a negative scale turns the support over
    assert op.Laguerre(0.5).measure().mapped(1.0, -2.0).support == (-math.inf, 1.0)


def test_spectral_measure_invariants():
    with pytest.raises(ValueError):
        op.SpectralMeasure(locations=[0.0], weights=[-1.0])
    with pytest.raises(ValueError):
        op.SpectralMeasure(locations=[0.0, 1.0], weights=[1.0])
    with pytest.raises(ValueError):
        op.SpectralMeasure().mapped(0.0, 0.0)


# ---------------------------------------------------------------------------
# orthonormality suites

def test_gram_discrete_families():
    assert op.gram_check(op.DualHahn(0.0, 0.0, 3), 3) <= 1e-10
    assert op.gram_check(op.Meixner(1.0, 1.0 / 9.0), 8) <= 1e-10


def test_gram_continuous_families():
    assert op.gram_check(op.Laguerre(-0.5), 10) <= 1e-7
    assert op.gram_check(op.MeixnerPollaczek(0.75, math.pi / 2), 6) <= 1e-7


def test_gram_cdh_both_regimes():
    assert op.gram_check(op.ContinuousDualHahn(-0.2, 0.5, 0.5), 8) <= 1e-6
    assert op.gram_check(op.ContinuousDualHahn(0.5, 0.5, 1.0), 8) <= 1e-6
    assert op.gram_check(op.ContinuousDualHahn(-1.3, 2.0, 1.7), 6) <= 1e-6


@pytest.mark.parametrize("fam,n", [
    (op.DualHahn(0.0, 0.0, 3), 3),
    (op.DualHahn(-0.5, 1.7, 6), 6),
    (op.Meixner(1.0, 1.0 / 9.0), 8),
    (op.Meixner(2.7, 0.25), 10),
    (op.Laguerre(-0.5), 10),
    (op.Laguerre(1.7), 10),
    (op.MeixnerPollaczek(0.75, math.pi / 2), 6),
    (op.MeixnerPollaczek(0.5, 1.0), 8),
    (op.ContinuousDualHahn(-0.2, 0.5, 0.5), 8),
    (op.ContinuousDualHahn(0.5, 0.5, 1.0), 8),
])
def test_gram_quadrature_accuracy_pinned(fam, n):
    # the acceptance families (criterion 08) at a fixed bound far below
    # their tolerances, so a faster quadrature cannot trade accuracy away
    assert op.gram_check(fam, n) <= 1e-11


@pytest.mark.parametrize("fam,n", [
    (op.Laguerre(0.0), 10),
    (op.Meixner(2.7, 0.4), 10),
    (op.MeixnerPollaczek(1.35, 2.2), 8),
    # phi near 0 and pi: e^{(2 phi - pi) x} alone overflows at |x| past
    # about 709 / |2 phi - pi|, where the density is small
    (op.MeixnerPollaczek(0.75, 0.05), 4),
    (op.MeixnerPollaczek(0.75, 0.01), 4),
    (op.MeixnerPollaczek(0.75, math.pi - 0.05), 4),
])
def test_gram_wider_parameters(fam, n):
    assert op.gram_check(fam, n) <= 1e-7


@pytest.mark.parametrize("beta, c, n_max", [(1.0, 1.0 / 9.0, 8), (2.7, 0.25, 10),
                                            (2.7, 0.9, 10), (0.4, 0.97, 3)])
def test_gram_meixner_atoms_cut_by_the_tail_rule(beta, c, n_max):
    # the atoms gram_matrix integrates against: the first atoms of
    # Meixner.measure, through the first n > 4 n_max with
    # w_n max(1, x_n)^(2 n_max) < 1e-20, found here one atom at a time
    fam = op.Meixner(beta, c)
    mass = (1 - c) ** (-beta)
    n = 0
    while not (n > 4 * n_max and fam.atom_weight(n) / mass
               * max(1.0, 2.0 * n + beta) ** (2 * n_max) < 1e-20):
        n += 1
    meas = op._gram_measure(fam, n_max, fam.mass())
    assert meas.weights.tolist() == [fam.atom_weight(k) / mass for k in range(n + 1)]
    assert meas.locations.tolist() == [2.0 * k + beta for k in range(n + 1)]


# ---------------------------------------------------------------------------
# the quadrature behind gram_check

def _monomial_moment(d):
    return 2.0 / (d + 1) if d % 2 == 0 else 0.0


def test_gk21_kronrod_rule_exact_through_degree_31():
    x, v = op._GK21_NODES, op._GK21_WEIGHTS
    assert len(x) == 21 and np.all(np.diff(x) < 0)
    for d in range(32):
        assert abs(v @ x ** d - _monomial_moment(d)) <= 1e-15, d
    # degree 32 is past the rule's exactness
    assert abs(v @ x ** 32 - _monomial_moment(32)) > 1e-13


def test_gk21_embedded_gauss_rule_exact_through_degree_19():
    x, w = op._GK21_NODES[1::2], op._G10_WEIGHTS
    for d in range(20):
        assert abs(w @ x ** d - _monomial_moment(d)) <= 1e-15, d
    assert abs(w @ x ** 20 - _monomial_moment(20)) > 1e-7


def test_gk21_panels_integrate_polynomials_in_one_call():
    calls = []

    def f(x):
        calls.append(x.shape)
        return np.stack([x ** k for k in range(32)], axis=1)

    a, b = np.array([0.5, -2.0, 3.0]), np.array([1.5, 3.0, 3.25])
    ig, err, rnd = op._gk21(f, a, b)
    assert calls == [(63,)]
    exact = np.array([[(hi ** (k + 1) - lo ** (k + 1)) / (k + 1) for k in range(32)]
                      for lo, hi in zip(a, b)])
    assert np.abs(ig / exact - 1.0).max() <= 1e-14
    assert ig.shape == (3, 32) and err.shape == rnd.shape == (3,)
    assert np.all(err >= rnd) and np.all(rnd > 0.0)


@pytest.mark.parametrize("f,lo,hi", [
    (lambda x: (1.0 / np.abs(x - 0.3))[:, None], 0.0, 1.0),    # not integrable
    (lambda x: np.sin(1e5 * x)[:, None], 0.0, 1.0),            # unresolved
    (lambda x: np.ones((len(x), 2)), 0.0, math.inf),            # no decay
    (lambda x: np.where(x > 0.5, np.nan, 1.0)[:, None], 0.0, 1.0),  # NaN
])
def test_integrate_error_gate_raises(f, lo, hi):
    with pytest.raises(NumericalFailureError):
        op._integrate(f, lo, hi)


def test_integrate_matches_closed_form_moments():
    # Laguerre moments int_0^inf x^k x^alpha e^-x dx = Gamma(k + alpha + 1)
    al = 1.7
    f = lambda x: np.stack([op.Laguerre(al).density(x) * x ** k
                            for k in range(6)], axis=1)
    got = op._integrate(f, 0.0, math.inf)
    ref = np.array([math.gamma(k + al + 1) for k in range(6)])
    assert np.abs(got / ref - 1.0).max() <= 1e-12


def test_integrate_finds_mass_far_from_the_origin():
    # x^40 e^-x peaks at x = 40; the walk toward +inf finds the cutoff
    # without a scale hint
    got = op._integrate(lambda x: (x ** 40 * np.exp(-x))[:, None], 0.0, math.inf)
    assert abs(got[0] / math.gamma(41) - 1.0) <= 1e-12


def _counting_gk21(monkeypatch):
    """A list that receives the panel count of every _gk21 call."""
    calls = []
    gk21 = op._gk21

    def counting(f, a, b):
        calls.append(len(a))
        return gk21(f, a, b)

    monkeypatch.setattr(op, "_gk21", counting)
    return calls


def test_integrate_is_one_pass_over_the_whole_ladder(monkeypatch):
    passes = []
    adaptive = op._adaptive_gk21

    def counting_pass(f, edges):
        passes.append(np.array(edges))
        return adaptive(f, edges)

    monkeypatch.setattr(op, "_adaptive_gk21", counting_pass)
    calls = _counting_gk21(monkeypatch)
    f = lambda x: (x ** 1.7 * np.exp(-x))[:, None]
    op._integrate(f, 0.0, math.inf)
    assert len(passes) == 1
    ladder = op._breakpoints(op._finite_cutoff(f, 0.0), op._finite_cutoff(f, math.inf))
    assert passes[0].tolist() == ladder
    # the first round evaluates every panel of the ladder
    assert calls[0] == len(ladder) - 1 > 1


@pytest.mark.parametrize("run", [
    lambda: op.gram_check(op.Laguerre(-0.5), 10),
    lambda: radial_measure(1.7, 6),
], ids=["gram_check Laguerre(-0.5) n 10", "radial_measure(1.7, 6)"])
def test_quadrature_takes_few_integrand_rounds(monkeypatch, run):
    calls = _counting_gk21(monkeypatch)
    run()
    assert 1 <= len(calls) <= 4


def test_densities_take_arrays_elementwise():
    xs = np.array([-3.0, -0.5, 0.0, 0.7, 2.5, 11.0])
    for dens in (op.Laguerre(-0.5).density, op.MeixnerPollaczek(0.75, 1.0).density):
        got = dens(xs)
        assert got.shape == xs.shape
        assert np.allclose(got, [dens(x) for x in xs], rtol=1e-15, atol=0.0)
    cdh = op.ContinuousDualHahn(0.5, 0.5, 1.0)
    ys = np.array([0.1, 1.0, 7.5])
    assert np.allclose(cdh.density_y(ys), [cdh.density_y(y) for y in ys],
                       rtol=1e-15, atol=0.0)
    # |Gamma(1/2 + i)|^2 = pi / cosh(pi)
    mp = op.MeixnerPollaczek(0.5, math.pi / 2).density
    assert mp(1.0) == pytest.approx(math.pi / math.cosh(math.pi), rel=1e-13)


def test_continuous_measure_needs_closed_mass():
    # the family owns its closed mass and its density; the measure record
    # holds atoms and a support only
    assert [f.name for f in fields(op.SpectralMeasure)] == ["locations", "weights", "support"]
    assert op.Laguerre(0.0).mass() == 1.0
    assert op.MeixnerPollaczek(0.5, math.pi / 2).mass() == pytest.approx(math.pi, rel=1e-15)
    # the mass is the density's integral plus the atoms' weights
    for fam in (op.Laguerre(1.7), op.MeixnerPollaczek(0.5, 1.0)):
        got = op._integrate(lambda x: fam.density(x)[:, None], *fam.measure().support)[0]
        assert got == pytest.approx(fam.mass(), rel=1e-10)
    for fam in (op.ContinuousDualHahn(0.5, 0.5, 1.0), op.ContinuousDualHahn(-1.3, 2.0, 1.7)):
        got = op._integrate(lambda y: fam.density_y(y)[:, None], 0.0, math.inf)[0]
        assert got + math.fsum(fam.measure().weights) == pytest.approx(fam.mass(), rel=1e-10)
    # atoms alone sum to their mass
    fam = op.DualHahn(-0.5, 1.75, 6)
    assert math.fsum(fam.measure().weights) == pytest.approx(fam.mass(), rel=1e-14)


def test_meixner_pollaczek_mass_past_gamma_overflow():
    # Gamma(172) = e^711.7 overflows float64 alone, the mass
    # 2 pi Gamma(172) / 2^172 = e^594.3 does not; it is formed in one exponent
    fam = op.MeixnerPollaczek(86, math.pi / 2)
    with mpmath.workdps(30):
        want = float(2 * mpmath.pi * mpmath.gamma(172) / mpmath.mpf(2) ** 172)
    assert fam.mass() == pytest.approx(want, rel=1e-12, abs=0.0)
    assert op.gram_check(fam, 3) <= 1e-7


def _quad_vec_gram(fam, n):
    """Gram matrix from an independent route: atoms of fam.measure, and
    scipy's quad_vec on a scalar integrand over fixed finite ranges."""
    if fam.nmax is not None:
        n = min(n, fam.nmax)
    outer = lambda x: np.outer(*2 * [op.poly_table(fam, n, x)])
    meas = fam.measure(n_atoms=250) if isinstance(fam, op.Meixner) else fam.measure()
    mass = fam.mass()
    G = sum((w / mass * outer(x) for x, w in zip(meas.locations, meas.weights)),
            np.zeros((n + 1, n + 1)))
    if meas.support is None:
        return G
    if isinstance(fam, op.Laguerre):
        g = lambda t: 2.0 * t * float(fam.density(t * t) / mass) * outer(t * t)
        lo, hi = 0.0, 16.0
    elif isinstance(fam, op.ContinuousDualHahn):
        g = lambda y: float(fam.density_y(y)) / mass * outer(-y * y)
        lo, hi = 0.0, 80.0
    else:
        g = lambda x: float(fam.density(x) / mass) * outer(x)
        lo, hi = -80.0, 80.0
    pts = sorted({lo, hi} | {s * 2.0 ** k for k in range(7) for s in (-1, 1)
                             if lo < s * 2.0 ** k < hi})
    for a, b in zip(pts[:-1], pts[1:]):
        G += quad_vec(g, a, b, epsabs=1e-15, epsrel=1e-13, norm="max", limit=2000)[0]
    return G


@pytest.mark.parametrize("fam,n", [
    (op.DualHahn(0.0, 0.0, 3), 3),
    (op.DualHahn(-0.5, 1.7, 6), 6),
    (op.Meixner(1.0, 1.0 / 9.0), 8),
    (op.Meixner(2.7, 0.25), 10),
    (op.Laguerre(-0.5), 10),
    (op.Laguerre(1.7), 10),
    (op.MeixnerPollaczek(0.75, math.pi / 2), 6),
    (op.MeixnerPollaczek(0.5, 1.0), 8),
    (op.ContinuousDualHahn(-0.2, 0.5, 0.5), 8),
    (op.ContinuousDualHahn(0.5, 0.5, 1.0), 8),
])
def test_gram_matrix_matches_quad_vec_reference(fam, n):
    G = op.gram_matrix(fam, n)
    assert np.abs(G - _quad_vec_gram(fam, n)).max() <= 1e-12
    assert op.gram_check(fam, n) == np.abs(G - np.eye(len(G))).max()


def test_dual_hahn_atoms_match_jacobi_eigenvalues():
    # the K+1 atoms are the eigenvalues of the (K+1)x(K+1) Jacobi matrix
    for gamma, delta, K in ((0.0, 0.0, 3), (-0.5, 1.7, 5), (1.7, -0.5, 6)):
        fam = op.DualHahn(gamma, delta, K)
        d = np.array([fam.recurrence(k)[0] for k in range(K + 1)])
        e = np.array([fam.recurrence(k)[1] for k in range(K)])
        w = eigh_tridiagonal(d, e, eigvals_only=True) if K else d
        locs = np.sort(fam.measure().locations)
        assert np.abs(np.sort(w) - locs).max() <= 1e-10


def test_three_term_consistency_random_points():
    rng = np.random.default_rng(7)
    for fam in (op.Laguerre(0.3), op.Meixner(1.5, 0.3),
                op.MeixnerPollaczek(0.6, 1.2), op.ContinuousDualHahn(0.4, 0.8, 1.1)):
        for x in rng.uniform(-5, 5, size=20):
            table = op.poly_table(fam, 11, x)
            for k in range(1, 10):
                ak, bk = fam.recurrence(k)
                _, bkm = fam.recurrence(k - 1)
                resid = x * table[k] - (bkm * table[k - 1] + ak * table[k]
                                        + bk * table[k + 1])
                assert abs(resid) <= 1e-9 * max(1.0, abs(x * table[k]))
