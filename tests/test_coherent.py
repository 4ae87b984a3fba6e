"""Coherent states, radial measure, holomorphic picture, disc flow."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammaln, kv

from multiboson import coherent as ch
from multiboson import rep
from multiboson.errors import ParameterError
from multiboson.orthopoly import hyp0f1


def test_amplitudes_vacuum_and_profiles():
    v = ch.coherent_amplitudes(0.0, 1.3, 12)
    assert np.allclose(v, np.eye(12)[0])
    # (1)_k = k!: amplitudes zeta^k / k!
    z = 0.7 + 0.2j
    v = ch.coherent_amplitudes(z, 1.0, 20)
    expected = np.array([z ** k / math.factorial(k) for k in range(20)])
    assert np.abs(v - expected).max() <= 1e-13


def test_norm_squared_is_kernel_diagonal():
    for z in (0.5, 1.5 - 0.3j):
        for al in (0.3, 1.0, 2.7):
            v = ch.coherent_amplitudes(z, al, 90)
            assert np.linalg.norm(v) ** 2 == pytest.approx(
                hyp0f1(al, abs(z) ** 2), rel=1e-12)


def test_kernel_identities():
    assert ch.kernel(0.0, 1.7) == 1.0
    assert ch.kernel(2.3, 0.4) > 0  # positive series at positive argument
    eta, zeta, al = 0.8 + 0.1j, -0.4 + 0.9j, 0.7
    a = ch.coherent_amplitudes(eta, al, 90)
    b = ch.coherent_amplitudes(zeta, al, 90)
    assert np.vdot(a, b) == pytest.approx(ch.kernel(eta.conjugate() * zeta, al),
                                       rel=1e-12)
    # in range, up to the edge of the double range, it is 0F1 bit for bit
    for z, al in ((1.2e5, 1.3), (4.0, 1.3), (4j, 0.5), (-3.7 + 1.1j, 2.2), (0.0, 1e300)):
        assert ch.kernel(z, al) == hyp0f1(al, z)


@pytest.mark.parametrize("z, alpha0, names", [
    (1.3e5, 1.3, ("z", "alpha0")),          # 0F1 past the double range: was inf
    (1e6j, 1.3, ("z", "alpha0")),           # was nan+nanj
    (math.nan, 1.0, ("z",)),
    (complex(1.0, math.inf), 1.0, ("z",)),
    (1.0, math.nan, ("alpha0",)),
    (1.0, math.inf, ("alpha0",)),
    (1.0, 0.0, ("alpha0",)),
    (math.nan, math.nan, ("z", "alpha0")),
    (2e5, 1.0, ("z", "alpha0")),            # scipy's 0F1 read 0.0: was 0.0
])
@pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")
def test_kernel_refuses_non_finite_inputs_and_values(z, alpha0, names):
    with pytest.raises(ParameterError) as err:
        ch.kernel(z, alpha0)
    assert err.value.names == names


# at b 1 exactly, scipy's asymptotic branch divides by zero, reports the
# ignored ZeroDivisionError and returns 0.0
@pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")
def test_hyp0f1_past_the_double_range_is_inf_at_every_b():
    # 0F1 >= 1 at a real z >= 0, so a smaller value can only be an overflow
    for b in (1.0, 1.0 + 1e-15, 1.0 - 1e-10, 0.5, 1.5, 2.0, 3.0):
        for z in (2e5, 1e300):
            assert hyp0f1(b, z) == math.inf, (b, z)
    assert hyp0f1(1.0, 1.3e5) == math.inf
    # below the overflow the value is scipy's, bit for bit
    assert ch.kernel(1.2e5, 1.0) == hyp0f1(1.0, 1.2e5) == 1.1714436718895324e+299


def test_coherent_state_truncation_invariant():
    # the n-th squared term must stay below 1e-16 of the squared norm: 64
    # levels hold |zeta| = 2 at alpha0 = 0.5, 8 levels do not hold |zeta| = 4,
    # and an amplitude past the double range fails the same test
    ch.coherent_amplitudes(2.0, 0.5, 64)
    for zeta, n in ((4.0, 8), (1e300, 2), (complex(math.inf, 0.0), 80)):
        with pytest.raises(ParameterError) as err:
            ch.coherent_amplitudes(zeta, 0.5, n)
        assert err.value.names == ("n", "zeta")


def test_eigenstate_of_lowering_generator():
    for al in (0.3, 1.0, 2.7):
        s = rep.OneModeSector(rep.MultibosonRep(1, (al,)), 0, 70)
        _, am, _ = rep.sector_matrices(s)
        for z in (0.1, 1.0 + 0.5j, 2.0):
            v = ch.coherent_amplitudes(z, al, 70)
            resid = np.linalg.norm(am @ v - z * v) / np.linalg.norm(v)
            assert resid <= 1e-8


@pytest.mark.parametrize("al", [1e10, 1e16, 1e300])
def test_amplitudes_at_large_alpha0(al):
    # zeta^k / sqrt(k! (alpha0)_k): at alpha0 1e16 the log-Gamma difference
    # once gave |amplitude 1| = 4.0 instead of 4e-8
    amps = ch.coherent_amplitudes(4j, al, 40)
    want = [float(4 ** k / mpmath.sqrt(mpmath.factorial(k)
                                       * mpmath.fprod(mpmath.mpf(al) + i for i in range(k))))
            for k in range(6)]
    assert np.abs(amps[:6]) == pytest.approx(want, rel=1e-13, abs=0.0)


def test_radial_measure_moments():
    m = ch.radial_measure(2.0, k_checked=6)
    assert m.moment(0) == pytest.approx(1.0, rel=1e-9)
    assert m.moment(1) == pytest.approx(2.0, rel=1e-8)
    # 5! (2)_5 = 120 * 720
    assert m.moment(5) == pytest.approx(86400.0, rel=1e-8)
    assert m.target_moment(5) == pytest.approx(86400.0, rel=1e-12)


def test_radial_measure_computes_each_moment_once(monkeypatch):
    calls = []
    integrate = ch._integrate

    def counting_integrate(*args, **kwargs):
        calls.append(args)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(ch, "_integrate", counting_integrate)
    m = ch.radial_measure(2.0, k_checked=6)
    # every checked moment in one vector integral, at construction
    assert len(calls) == 1
    for k in range(7):
        m.moment(k)
        m.moment_error(k)
    assert len(calls) == 1
    monkeypatch.undo()
    assert [m.moment(k) for k in range(7)] == m._moment_vector(6).tolist()


@pytest.mark.parametrize("al", [0.05, 0.3, 1.0, 2.7, 5.0])
def test_radial_measure_moments_match_scalar_quadrature(al):
    # an independent reference: scipy's scalar QUADPACK routine, moment by
    # moment, on pieces around the peak of rho^{2k+1} K(2 rho)
    m = ch.radial_measure(al, k_checked=10)
    for k in range(11):
        f = lambda r: m.weight(r) * r ** (2 * k) * 2.0 * math.pi * r
        ref = sum(quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=500)[0]
                  for a, b in ((0.0, 1.0), (1.0, 5.0), (5.0, 15.0), (15.0, 60.0)))
        assert abs(m.moment(k) / ref - 1.0) <= 1e-12


def test_radial_weights_take_arrays_elementwise():
    m = ch.radial_measure(0.7, k_checked=2)
    rho = np.array([-1.0, 0.0, 0.3, 2.0, 9.0])
    got = m.weight(rho)
    assert got.shape == rho.shape and got[0] == got[1] == 0.0
    assert np.array_equal(got, [m.weight(r) for r in rho])
    assert isinstance(m.weight(0.3), float) and m.weight(-2.0) == 0.0


@pytest.mark.parametrize("al", [60.0, 100.0, 150.0, 171.5])
def test_radial_measure_at_large_alpha0(al):
    # the direct product is 0 * inf near rho = 0 from alpha0 near 60 on, and
    # pi Gamma(alpha0) overflows above 171.1; the weight holds the moment
    # identity there with no warning (warnings are errors here)
    m = ch.radial_measure(al, k_checked=6)
    assert max(m.moment_error(k) for k in range(7)) <= 1e-12
    # against mpmath, on both sides of the switch to log space
    rho = np.array([1e-3, 0.1, 1.0, 0.25 * al, 0.5 * al, al, 2.0 * al])
    with mpmath.workdps(40):
        want = [float(2 * mpmath.mpf(r) ** (al - 1) * mpmath.besselk(al - 1, 2 * r)
                      / (mpmath.pi * mpmath.gamma(al))) for r in rho]
    assert m.weight(rho) == pytest.approx(want, rel=1e-11, abs=0.0)


@pytest.mark.parametrize("al", [0.05, 0.3, 1.0, 2.7, 30.0])
def test_radial_weight_is_the_direct_product_where_that_is_finite(al):
    m = ch.radial_measure(al, k_checked=2)
    rho = np.geomspace(1e-6, 200.0, 400)
    with np.errstate(over="ignore", invalid="ignore"):
        direct = (2.0 * rho ** (al - 1.0) * kv(al - 1.0, 2.0 * rho)
                  / (math.pi * math.exp(gammaln(al))))
    fin = np.isfinite(direct)
    assert fin.sum() > 300
    assert np.array_equal(m.weight(rho)[fin], direct[fin])


def test_radial_measure_rejects_negative_k_checked():
    with pytest.raises(ValueError, match="k_checked"):
        ch.radial_measure(1.0, k_checked=-1)


def test_radial_moment_rejects_negative_order():
    m = ch.radial_measure(1.0, k_checked=2)
    with pytest.raises(ValueError, match="moment order"):
        m.moment(-1)


def test_radial_measure_rejects_an_overflowing_order(monkeypatch):
    # 99! (0.05)_99 exceeds the largest float64, 98! (0.05)_98 does not; the
    # order is checked before any quadrature
    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature ran")

    with monkeypatch.context() as mp:
        mp.setattr(ch, "_integrate", no_quadrature)
        for k in (99, 100, 400):
            with pytest.raises(ValueError, match=f"moment order {k} overflows.*"
                                                 "largest admissible order is 98"):
                ch.radial_measure(0.05, k_checked=k)
    m = ch.radial_measure(0.05, k_checked=2)
    with pytest.raises(ValueError, match="largest admissible order is 98"):
        m.moment(99)
    with pytest.raises(ValueError, match="largest admissible order is 98"):
        m.target_moment(99)
    assert math.isfinite(m.target_moment(98))


def test_printed_radial_weight_fails_moments(erratum_moment_ratios):
    # the printed weight (both indices one unit up) overshoots the k-th
    # moment by exactly (alpha0 + k) / 4: demonstrably k-dependent, so no
    # constant rescale can repair it
    for al in (0.3, 1.0, 2.7):
        ratios = erratum_moment_ratios(al, 4).tolist()
        expected = [(al + k) / 4.0 for k in range(5)]
        assert ratios == pytest.approx(expected, rel=1e-7)
        assert abs(ratios[4] - ratios[0]) > 0.9  # no constant rescaling
    # from alpha0 near 60 the direct products rho^alpha0 K_alpha0(2 rho) and
    # rho^(alpha0 - 1) K_(alpha0 - 1)(2 rho) are 0 * inf near rho = 0; the
    # log-space path of the shipped weight holds
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for al in (60.0, 100.0, 150.0):
            ch.radial_measure(al, k_checked=2)
            ratios = erratum_moment_ratios(al, 2).tolist()
            assert ratios == pytest.approx([(al + k) / 4.0 for k in range(3)], rel=1e-12)


def test_holo_apply_actions():
    al = 0.7
    c = np.array([0.0, 0.0, 1.0], dtype=complex)  # zeta^2
    out = ch.holo_apply("A0", c, al)
    assert np.allclose(out, [0, 0, 2 * 2 + al])
    assert np.allclose(ch.holo_apply("Aplus", c, al), [0, 0, 0, 1.0])
    assert np.allclose(ch.holo_apply("Aminus", np.array([3.0]), al), [0.0])
    down = ch.holo_apply("Aminus", c, al)
    assert np.allclose(down, [0, 2 * (al + 1)])


def test_holo_commutator_reproduces_a0():
    al = 1.3
    for k in range(6):
        c = np.zeros(k + 1, dtype=complex)
        c[k] = 1.0
        pm = ch.holo_apply("Aminus", ch.holo_apply("Aplus", c, al), al)
        mp = ch.holo_apply("Aplus", ch.holo_apply("Aminus", c, al), al)
        if mp.size < pm.size:
            mp = np.concatenate([mp, np.zeros(pm.size - mp.size)])
        comm = pm - mp
        assert np.allclose(comm, ch.holo_apply("A0", c, al)), k


def test_holo_fock_equivalence():
    # under |k> <-> zeta^k / sqrt(k! (alpha0)_k) the coefficient actions
    # reproduce the sector shift coefficients exactly
    al = 0.9
    s = rep.OneModeSector(rep.MultibosonRep(1, (al,)), 0, 31)
    diag, lowering, raising = rep.sector_coeffs(s)
    basis = ch.coherent_amplitudes(1.0, al, 31).real  # 1/sqrt(k!(al)_k)
    for k in range(1, 30):
        c = np.zeros(k + 1, dtype=complex)
        c[k] = basis[k]
        down = ch.holo_apply("Aminus", c, al)
        assert abs(down[k - 1].real / basis[k - 1] - lowering(k)) <= 1e-12 * lowering(k)
        up = ch.holo_apply("Aplus", c, al)
        assert abs(up[k + 1].real / basis[k + 1] - raising(k)) <= 1e-12 * raising(k)


def test_su11_flow_identity_and_diagonal():
    g = ch.su11_flow(4.0, 1.0, 0.0)
    assert (g.a, g.b) == (1.0 + 0.0j, 0.0j)
    g = ch.su11_flow(2.0, 2.0, 0.7)
    assert g.b == 0.0
    assert g.a == pytest.approx(complex(math.cos(1.4), math.sin(1.4)), rel=1e-12)


def test_su11_flow_degenerate_labels():
    t = 0.9
    g = ch.su11_flow(3.0, 0.0, t)
    assert g.a == pytest.approx(1.0 + 1j * t * 1.5, rel=1e-12)
    assert g.b == pytest.approx(1j * t * (0.0 - 3.0) / 2.0, rel=1e-12)


@pytest.mark.parametrize("mu,nu", [(4.0, 1.0), (1.0, -1.0), (2.0, 0.0),
                                   (0.0, -3.0), (-2.0, 1.5)])
def test_su11_group_law_all_branches(mu, nu):
    for t, s in ((0.4, 0.8), (1.3, -0.6)):
        gt = ch.su11_flow(mu, nu, t)
        gs = ch.su11_flow(mu, nu, s)
        gts = ch.su11_flow(mu, nu, t + s)
        prod = gt.multiply(gs)
        assert prod.a == pytest.approx(gts.a, rel=1e-10, abs=1e-10)
        assert prod.b == pytest.approx(gts.b, rel=1e-10, abs=1e-10)
        assert abs(gt.det() - 1.0) <= 1e-12


def _within_det_bound(g, size=None):
    size = abs(g.a) ** 2 + abs(g.b) ** 2 if size is None else size
    return abs(g.det() - 1.0) <= ch.DET_C * np.finfo(float).eps * size


@pytest.mark.parametrize("mu,nu", [(1.0, -1.0), (0.9, -0.4), (3.0, -1e-3),
                                   (-1.0, 1.0), (-2.0, 0.5), (-0.4, 0.9)])
def test_su11_flow_hyperbolic_up_to_omega_t_300(mu, nu):
    # classes 3 (mu > 0 > nu) and 4: |a|^2 and |b|^2 both grow like
    # e^(2 omega t), so |det - 1| is bounded relative to their sum only;
    # an absolute bound of 1e-9 already fails at (1, -1), t = 10
    om = math.sqrt(-mu * nu)
    for wt in np.linspace(-300.0, 300.0, 1201):
        assert _within_det_bound(ch.su11_flow(mu, nu, wt / om)), wt


@pytest.mark.parametrize("mu,nu,t", [(1.0, -1.0, 356.0), (1.0, -1.0, 1000.0),
                                     (-2.0, 0.5, -400.0), (0.9, -0.4, 1e300),
                                     # omega t itself past the double range
                                     (1e300, 2.5, -1e300), (1e200, 1e200, 1e200)])
def test_su11_flow_past_the_double_range_names_its_labels(mu, nu, t):
    with pytest.raises(ParameterError) as info:
        ch.su11_flow(mu, nu, t)
    assert info.value.names == ("mu", "nu", "t")


@pytest.mark.parametrize("mu,nu", [(1.0, -1.0), (-2.0, 1.5), (4.0, 1.0)])
def test_su11_product_that_cancels(mu, nu):
    # g(t) g(d - t) = g(d): the product's entries carry the rounding of the
    # factors, far above its own |a|^2 + |b|^2 when t is large
    om = math.sqrt(abs(mu * nu))
    for wt in (3.0, 8.0, 15.0):
        t, d = wt / om, 0.05
        gt, gs = ch.su11_flow(mu, nu, t), ch.su11_flow(mu, nu, d - t)
        prod, want = gt.multiply(gs), ch.su11_flow(mu, nu, d)
        sizes = [abs(g.a) ** 2 + abs(g.b) ** 2 for g in (gt, gs)]
        assert _within_det_bound(prod, sizes[0] * sizes[1])
        tol = 4 * np.finfo(float).eps * math.sqrt(sizes[0] * sizes[1])
        assert abs(prod.a - want.a) <= tol and abs(prod.b - want.b) <= tol


@settings(max_examples=60, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(-2, 2))
def test_su11_determinant_property(mu, nu, t):
    if mu == 0 and nu == 0:
        return
    g = ch.su11_flow(mu, nu, t)
    assert abs(g.det() - 1.0) <= 1e-11


def _disc_generator_residual(lam, mu, nu, al, z, h=1e-6):
    # first-order disc generator applied by numerical differentiation
    phi = ch.disc_eigenfunction
    d = (phi(lam, mu, nu, al, z + h) - phi(lam, mu, nu, al, z - h)) / (2 * h)
    val = phi(lam, mu, nu, al, z)
    lhs = (mu + nu) / 2.0 * (2 * z * d + al * val) \
        + (mu - nu) / 2.0 * ((z * z + 1) * d + al * z * val)
    return abs(lhs - lam * val) / max(abs(lam * val), 1.0)


def test_disc_eigenfunction_solves_generator_equation():
    mu, nu, al = 4.0, 1.0, 0.7
    lam = 1.77  # generic eigenvalue parameter
    rng = np.random.default_rng(11)
    pts = rng.uniform(-0.45, 0.45, size=(10, 2))
    for x, y in pts:
        z = complex(x, y)
        assert _disc_generator_residual(lam, mu, nu, al, z) <= 1e-6


def test_disc_eigenfunction_exponent_structure():
    mu, nu, al = 4.0, 1.0, 1.2
    # at the closed-form eigenvalues the inner-branch exponent is integer:
    # lam = sqrt(mu nu) (2n + alpha0) gives A = n
    for n in range(3):
        lam = math.sqrt(mu * nu) * (2 * n + al)
        a_exp = lam / (2 * math.sqrt(mu * nu)) - al / 2.0
        assert a_exp == pytest.approx(float(n), abs=1e-12)
    # exponent sum is -alpha0: phi(z) (z - z1)^(alpha0/2) (z - z2)^(alpha0/2)
    # is invariant under swapping the exponent roles at lam -> -lam
    z = 0.2 + 0.1j
    v1 = ch.disc_eigenfunction(1.3, mu, nu, al, z)
    rm, rn = math.sqrt(mu), math.sqrt(nu)
    z1 = -((rm - rn) ** 2) / (mu - nu)
    z2 = -((rm + rn) ** 2) / (mu - nu)
    v2 = ch.disc_eigenfunction(-1.3, mu, nu, al, z)
    prod = v1 * v2
    ref = complex(z - z1) ** (-al) * complex(z - z2) ** (-al)
    assert prod == pytest.approx(ref, rel=1e-12)


def test_disc_eigenfunction_domain_errors():
    with pytest.raises(ValueError):
        ch.disc_eigenfunction(1.0, 1.0, 4.0, 1.0, 0.1)   # needs mu > nu > 0
    with pytest.raises(ValueError):
        ch.disc_eigenfunction(1.0, 4.0, 1.0, 1.0, 1.2)   # outside the disc
    rm, rn = 2.0, 1.0
    z1 = -((rm - rn) ** 2) / 3.0
    with pytest.raises(ValueError):
        ch.disc_eigenfunction(1.0, 4.0, 1.0, 1.0, z1 + 1e-10)
