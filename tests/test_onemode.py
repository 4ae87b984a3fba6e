"""One-mode Hamiltonians: classification, spectra, eigenvectors, evolution."""

import math
import re

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import eigh_tridiagonal

from multiboson import evolution as ev
from multiboson import onemode as om
from multiboson import rep
from multiboson.bogoliubov import GroupElement, action_matrix
from multiboson.errors import ParameterError, TruncationOverflowError, UnsupportedCaseError
from multiboson.jacobi import JacobiOperator, oracle_eigh, oracle_eigs
from multiboson.orthopoly import poly_table


def _sector(alpha0=1.0, n=100, l=1, r=0):
    table = tuple(alpha0 if i == r else 1.0 for i in range(l))
    return rep.OneModeSector(rep.MultibosonRep(l, table), r, n)


def _h(mu, nu, alpha0=1.0, n=100):
    return om.OneModeHamiltonian(mu, nu, _sector(alpha0, n))


def _transported(g, mu, nu):
    """(mu, nu) carried by g: the coefficients h = ((mu+nu)/2, (mu-nu)/2,
    (mu-nu)/2) of H over (A0, A-, A+) move as h @ action_matrix(g)."""
    p, q, _ = np.array([(mu + nu) / 2, (mu - nu) / 2, (mu - nu) / 2]) @ action_matrix(g)
    return p + q, p - q


def test_jacobi_coefficients():
    j = om.jacobi(_h(2.0, 2.0, alpha0=1.5))
    assert all(j.offdiag(k) == 0.0 for k in range(5))
    assert j.diag(3) == pytest.approx(2.0 * (6 + 1.5))
    j2 = om.jacobi(_h(1.0, -1.0, alpha0=0.7))
    assert all(j2.diag(k) == 0.0 for k in range(5))
    assert j2.offdiag(2) == pytest.approx(math.sqrt((2 + 0.7) * 3))
    j3 = om.jacobi(_h(4.0, 1.0, alpha0=1.0))
    assert j3.diag(0) == pytest.approx(2.5)
    assert j3.offdiag(0) == pytest.approx(1.5)


def test_classify_cases():
    lab = om.classify(4.0, 1.0, 1.0)
    assert lab.index == 5 and lab.family.c == pytest.approx(1.0 / 9.0)
    assert lab.scale == pytest.approx(2.0)
    lab3 = om.classify(1.0, -1.0, 1.0)
    assert lab3.index == 3 and lab3.family.phi == pytest.approx(math.pi / 2)
    assert om.classify(0.7, 0.7, 1.0).index == 9
    assert om.classify(3.0, 0.0, 1.0).index == 1
    assert om.classify(0.0, -2.0, 1.0).index == 2
    assert om.classify(-1.0, 2.0, 1.0).index == 4
    assert om.classify(1.0, 4.0, 1.0).index == 7
    assert om.classify(-4.0, -1.0, 1.0).index == 6
    assert om.classify(-1.0, -4.0, 1.0).index == 8
    with pytest.raises(ValueError):
        om.classify(0.0, 0.0, 1.0)


def test_classify_respects_label_transport():
    # (a, +1) with a > 0 fixes the axes (cases 1, 2), keeps the even
    # quadrants inside {3, 4}, and moves each quadrant-1/3 hyperbola within
    # {5, 7, 9} / {6, 8, 9}: the diagonal (case 9) is the a^2 = mu/nu point
    # of its orbit, e.g. (2, 1) carries (4, 1) exactly onto (2, 2)
    labels = [(4.0, 1.0), (1.0, 4.0), (-4.0, -1.0), (-1.0, -4.0), (1.0, -1.0),
              (-2.0, 1.0), (3.0, 0.0), (0.0, 3.0), (2.0, 2.0), (-1.5, -1.5)]

    def group(mu, nu):
        idx = om.classify(mu, nu, 1.0).index
        if idx in (1, 2):
            return {idx}
        if idx in (3, 4):
            return {3, 4}
        return {5, 7, 9} if mu > 0 else {6, 8, 9}

    for a in (0.5, 2.0):
        g = GroupElement(a, 1)
        for mu, nu in labels:
            before = group(mu, nu)
            mu2, nu2 = _transported(g, mu, nu)
            assert om.classify(mu2, nu2, 1.0).index in before, (mu, nu, a)
    # the diagonal-crossing transport pinned explicitly
    assert om.classify(4.0, 1.0, 1.0).index == 5
    assert om.classify(*_transported(GroupElement(2.0, 1), 4.0, 1.0), 1.0).index == 9


def test_spectrum_case5_atoms():
    chain = om.classify(4.0, 1.0, 1.0)
    meas = chain.measure(n_atoms=5)
    assert np.allclose(meas.locations, [2.0, 6.0, 10.0, 14.0, 18.0])
    # the atom formula equals the mapped Meixner atoms bit for bit
    assert np.array_equal(chain.atoms(5), meas.locations)


def test_spectrum_case1_halfline():
    meas = om.classify(1.0, 0.0, 1.0).measure()
    assert meas.locations.size == meas.weights.size == 0
    assert meas.support == (0.0, math.inf)
    neg = om.classify(-2.0, 0.0, 1.0).measure()
    assert neg.support == (-math.inf, 0.0)


def test_spectrum_case9_diagonal():
    # spectrum mu (2k + alpha0) = -6 (k + 1) here
    meas = om.classify(-3.0, -3.0, 2.0).measure(40)
    expected = [-3.0 * (2 * k + 2.0) for k in range(40)]
    assert np.allclose(meas.locations, expected)
    assert meas.locations[0] == -6.0 and meas.locations[1] == -12.0
    assert np.array_equal(meas.weights, np.ones(40))
    assert meas.support is None


def test_case9_measure_needs_an_atom_count():
    # a diagonal chain has no default count: a typed error naming n_atoms
    # (--count on the CLI), and measure(3) as before
    chain = om.classify(1.0, 1.0, 1.0)
    with pytest.raises(ParameterError) as exc:
        chain.measure()
    assert exc.value.names == ("n_atoms",)
    meas = chain.measure(3)
    assert np.array_equal(meas.locations, [1.0, 3.0, 5.0])
    assert np.array_equal(meas.weights, np.ones(3))


def _columns(h, n_cols):
    """The first n_cols closed-form eigenvectors of H over its sector, from
    one ``Chain.eigenvectors`` call, each column normalized by its own norm."""
    chain = om.classify(h.mu, h.nu, h.sector.alpha0)
    raw = chain.eigenvectors(om.jacobi(h), h.sector.n_levels, n_cols)
    return np.column_stack([v / np.linalg.norm(v) for v in raw.T])


def test_eigenvectors_case9_basis():
    v = _columns(om.OneModeHamiltonian(1.0, 1.0, _sector(1.0, 10)), 4)[:, 3]
    assert np.allclose(v, np.eye(10)[3])


def test_eigenvectors_case5_oracle_overlap():
    h = _h(4.0, 1.0, alpha0=1.0, n=100)
    w, vecs = oracle_eigh(om.jacobi(h))
    cols = _columns(h, 5)
    for n in range(5):
        assert abs(float(vecs[:, n] @ cols[:, n])) >= 1.0 - 1e-8
    # geometric profile of the ground eigenvector (c = 1/9 decay)
    v0 = np.abs(cols[:, 0])
    ratios = v0[1:10] / v0[:9]
    assert np.all(ratios < 0.5)


def test_eigenvectors_case7_alternating_signs():
    # swapping (4,1) -> (1,4) flips the off-diagonal sign: same magnitudes,
    # alternating sign decoration
    h5 = _h(4.0, 1.0, n=80)
    h7 = _h(1.0, 4.0, n=80)
    v5 = _columns(h5, 3)[:, 2]
    v7 = _columns(h7, 3)[:, 2]
    signs = (-1.0) ** np.arange(80)
    assert np.allclose(np.abs(v5), np.abs(v7), atol=1e-12)
    aligned = v7 * signs
    assert abs(float(aligned @ v5)) == pytest.approx(1.0, abs=1e-12)


def test_eigenvectors_discrete_match_larger_oracle_past_window():
    # columns 636-643 of case 5 at N 800 reach past the window (spread to
    # k ~ 2n at c = 1/9); each must match the same eigenvector of a 4x
    # larger truncation, restricted to the window and normalized there
    h = _h(2.0, 0.5, alpha0=1.3, n=800)
    big = om.jacobi(_h(2.0, 0.5, alpha0=1.3, n=3200))
    _, ref = eigh_tridiagonal(big.diag_array(), big.offdiag_array(),
                              select="i", select_range=(636, 643))
    cols = _columns(h, 644)
    for i, n in enumerate(range(636, 644)):
        v = cols[:, n]
        assert np.abs(v).max() > 0.0
        r = ref[:800, i] / np.linalg.norm(ref[:800, i])
        assert np.abs(v - np.copysign(1.0, r @ v) * r).max() <= 1e-12


def test_eigenvectors_continuous_case_rejected():
    with pytest.raises(UnsupportedCaseError):
        _columns(_h(1.0, 0.0), 1)
    with pytest.raises(UnsupportedCaseError):
        _columns(_h(1.0, -1.0), 1)


def test_oracle_eigs_trivial():
    diag = JacobiOperator(lambda k: 3.0 - k, lambda k: 0.0, 4)
    assert np.allclose(oracle_eigs(diag), [0.0, 1.0, 2.0, 3.0])
    swap = JacobiOperator(lambda k: 0.0, lambda k: 1.0, 2)
    assert np.allclose(oracle_eigs(swap), [-1.0, 1.0])


def test_oracle_eigs_case5():
    w = oracle_eigs(om.jacobi(_h(4.0, 1.0)), count=5)
    assert np.abs(w - np.array([2.0, 6.0, 10.0, 14.0, 18.0])).max() <= 1e-8


def test_spectral_symmetry_under_negation():
    for mu, nu in ((4.0, 1.0), (1.0, 4.0), (2.0, 0.5)):
        w1 = oracle_eigs(om.jacobi(_h(mu, nu, n=60)))
        w2 = oracle_eigs(om.jacobi(_h(-mu, -nu, n=60)))
        assert np.abs(np.sort(w1) + np.sort(w2)[::-1]).max() <= 1e-10


def test_orbit_reduction_spectra_agree():
    # labels on one orbit (mu nu fixed, both orderings handled) share spectra
    sec = _sector(1.3, 300)
    base = om.OneModeHamiltonian(4.0, 1.0, sec)
    w_base = oracle_eigs(om.jacobi(base), count=5)
    for a in (0.5, 1.7):
        mu2, nu2 = _transported(GroupElement(a, 1), 4.0, 1.0)
        w = oracle_eigs(om.jacobi(om.OneModeHamiltonian(mu2, nu2, sec)), count=5)
        assert np.abs(w - w_base).max() <= 1e-5


def test_three_term_identity_against_family():
    # family polynomials composed with the affine map satisfy the H recurrence
    h = _h(4.0, 1.0, alpha0=0.7, n=40)
    lab = om.classify(h.mu, h.nu, 0.7)
    j = om.jacobi(h)
    for x in np.linspace(-3.0, 8.0, 20):
        y = x / lab.scale
        p = poly_table(lab.family, 12, y)
        for k in range(1, 11):
            # signed off-diagonals of H, positive ones of the family: the
            # sign mismatch cancels in pairs across the identity
            resid = x * p[k] - (abs(j.offdiag(k - 1)) * p[k - 1]
                                + j.diag(k) * p[k]
                                + abs(j.offdiag(k)) * p[k + 1])
            assert abs(resid) <= 1e-9 * max(1.0, abs(x * p[k]))


def test_evolve_t0_and_case9_phases():
    h = om.OneModeHamiltonian(1.5, 1.5, _sector(1.0, 16))
    amps = 0.5 ** np.arange(16) * (1.0 + 0.0j)
    psi0 = amps / np.linalg.norm(amps)
    out = om.evolve(h, psi0, 0.0)
    assert np.allclose(out, psi0)
    t = 0.41
    out = om.evolve(h, psi0, t)
    k = np.arange(16)
    expected = np.exp(-1j * t * 1.5 * (2 * k + 1.0)) * psi0
    assert np.abs(out - expected).max() <= 1e-12


def test_evolve_case9_is_the_diagonal_phases_bit_for_bit():
    # class 9 is diagonal: its evolution is exp(-i t E) psi, entry by entry
    h = om.OneModeHamiltonian(-0.8, -0.8, _sector(1.3, 40))
    psi0 = np.exp(0.3j * np.arange(40)) / np.sqrt(40)
    energies = om.classify(-0.8, -0.8, 1.3).atoms(40)
    times = np.array([0.0, 0.41, -2.5, 1e3])
    assert np.array_equal(om.evolve(h, psi0, times),
                          np.exp(-1j * times[:, None] * energies) * psi0)
    assert np.array_equal(om.evolve(h, psi0, 0.41), np.exp(-1j * 0.41 * energies) * psi0)


def test_evolve_case5_matches_expm_oracle():
    h = _h(4.0, 1.0, n=100)
    psi0 = np.eye(100)[0].astype(complex)
    t = 0.37
    out = om.evolve(h, psi0, t)
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-10
    u = scipy.linalg.expm(-1j * t * om.jacobi(h).dense())
    ref = u @ psi0
    assert np.abs(out - ref).max() <= 1e-7


DISCRETE_CASES = [(2.0, 0.5, 5), (-2.0, -0.5, 6), (0.5, 2.0, 7), (-0.5, -2.0, 8)]


def _basis_model(mu, nu, k0, tail_tol):
    """One-mode FullModel at omega 0 and its basis state k0 (N = 800)."""
    h = _h(mu, nu, alpha0=1.3, n=800)
    model = ev.FullModel(h, (0.0,), tail_tol=tail_tol)
    return model, ev.basis_state(model, (k0,))


def _evolve_against_oracle(mu, nu, k0, t):
    model, psi0 = _basis_model(mu, nu, k0, math.inf)
    h = model.interaction
    out = om.evolve(h, psi0, t)
    w, v = oracle_eigh(om.jacobi(h))
    return np.abs(out - v @ (np.exp(-1j * t * w) * v[k0])).max()


@pytest.mark.parametrize("mu, nu, case", DISCRETE_CASES)
def test_evolve_discrete_from_mid_window(mu, nu, case):
    assert om.classify(mu, nu, 1.3).index == case
    assert _evolve_against_oracle(mu, nu, 200, 0.5) <= 1e-13
    # the closed-form expansion returns the state at t = 0 to roundoff
    for k0 in (0, 4, 200, 600):
        model, psi0 = _basis_model(mu, nu, k0, math.inf)
        out = om.evolve(model.interaction, psi0, 0.0)
        assert np.abs(out - psi0).max() <= 1e-12
    # by t = 2 the state has spread to the truncation edge: the tail monitor
    # of evolve_full, exp(-i H t) at omega 0, raises there
    model, psi0 = _basis_model(mu, nu, 200, 1e-8)
    with pytest.raises(TruncationOverflowError):
        ev.evolve_full(model, psi0, 2.0)


@pytest.mark.parametrize("mu, nu, alpha0, t", [(-1e6, -1.0, 1e6, 0.0)])
def test_evolve_discrete_spread_past_4n_eigenpairs_raises(mu, nu, alpha0, t):
    # the ground state of this chain spreads over some 1e8 eigenpairs
    # (Meixner c near 1 at a large alpha0), far past the 2^22 kernel entries
    # the expansion may take: by Parseval the columns it can afford hold none
    # of |psi|^2, and the expansion says so
    psi = np.eye(10)[0].astype(complex)
    with pytest.raises(TruncationOverflowError, match="spreads past"):
        om.evolve(_h(mu, nu, alpha0=alpha0, n=10), psi, t)


@pytest.mark.parametrize("mu, nu, alpha0, n, t", [
    (4.0, 1.0, 1.3, 8, 0.1), (4.0, 1.0, 1.3, 4, 0.1), (1.0, 0.5, 1.3, 5, 0.1),
    (2.0, 5.0, 1.3, 6, 0.1), (1.0, 1e-3, 1.3, 100, 0.1), (1.0, 1e-4, 1.3, 400, 0.1),
    (7.0, 0.05, 200.0, 10, 0.3)])
def test_evolve_discrete_small_window_is_a_larger_windows_head(mu, nu, alpha0, n, t):
    # the ground state needs more closed-form columns than the first 4N (21
    # to 34 at (4, 1), (1, 0.5) and (2, 5), 581 at (1, 1e-3), 1838 at
    # (1, 1e-4), 1127 at alpha0 200): the expansion doubles its columns until
    # they hold psi, and the window's amplitudes are the first n of a window
    # twice as large (measured within 3.7e-18)
    small = om.evolve(_h(mu, nu, alpha0=alpha0, n=n), np.eye(n)[0].astype(complex), t)
    large = om.evolve(_h(mu, nu, alpha0=alpha0, n=2 * n),
                      np.eye(2 * n)[0].astype(complex), t)
    assert np.abs(small - large[:n]).max() <= 1e-15


@pytest.mark.parametrize("mu, nu, t", [(1e150, -1e150, 1e300), (1e150, 0.0, 1e300),
                                       (3.0, 1.0, 1e308), (2.0, 2.0, 1e308)])
def test_evolve_refuses_a_time_whose_state_overflows(mu, nu, t):
    # E t past the double range makes the rows NaN (classes 3, 1, 5 and 9):
    # refused, naming t and the row; run_series names its own t_grid
    h = _h(mu, nu, alpha0=1.3, n=8)
    psi = np.eye(8)[0].astype(complex)
    with pytest.raises(ParameterError, match=re.escape(f"t = {t}")) as exc:
        om.evolve(h, psi, np.array([0.0, 1.0, t]))
    assert exc.value.names == ("t",) and exc.value.row == 2
    with pytest.raises(ParameterError, match=re.escape(f"t = {-t}")) as exc:
        om.evolve(h, psi, -t)
    assert exc.value.names == ("t",) and exc.value.row == 0
    model = ev.FullModel(h, (0.0,), tail_tol=math.inf)
    with pytest.raises(ParameterError, match=re.escape(f"t = {t}")) as exc:
        ev.run_series(model, psi, [0.0, t])
    assert exc.value.names == ("t_grid",)


@pytest.mark.parametrize("mu, nu, case", DISCRETE_CASES)
def test_evolve_discrete_from_low_state(mu, nu, case):
    for t in (0.5, 2.0):
        assert _evolve_against_oracle(mu, nu, 4, t) <= 5e-14


def test_evolve_continuous_case_unitary():
    h = _h(1.0, 0.0, n=120)
    psi0 = np.eye(120)[2].astype(complex)
    out = om.evolve(h, psi0, 0.9)
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-10
    back = om.evolve(h, out, -0.9)
    assert np.abs(back - psi0).max() <= 1e-9


# (mu, nu) of each class with evolve's two models: 5-8 closed form, 1-4 oracle
TWO_MODELS = {5: (1.25, 0.6), 6: (-1.25, -0.6), 7: (0.6, 1.25), 8: (-0.6, -1.25),
              1: (1.0, 0.0), 2: (0.0, 1.0), 3: (1.0, -0.6), 4: (-1.0, 0.6)}


@pytest.mark.parametrize("case", sorted(TWO_MODELS))
def test_evolve_discrete_classes_run_the_untruncated_chain_continuous_the_window(case):
    # from level 30 of a 40-level window at alpha0 1.3, t = 0, 0.5, ..., 3:
    # classes 5-8 are a 320-level oracle evolution read on the window (1.7e-14
    # here) and lose norm from it (0.717 left at the worst time), classes
    # 1-4 the 40-level window's own oracle evolution, unitary; the two
    # models differ by 0.34-0.69
    mu, nu = TWO_MODELS[case]
    assert om.classify(mu, nu, 1.3).index == case
    ts = np.arange(7) * 0.5

    def oracle(n):
        w, v = oracle_eigh(om.jacobi(_h(mu, nu, alpha0=1.3, n=n)))
        return (v[:40] * v[30]) @ np.exp(-1j * np.outer(w, ts))

    model = ev.FullModel(_h(mu, nu, alpha0=1.3, n=40), (0.0,), tail_tol=math.inf)
    psi0 = ev.basis_state(model, (30,))
    got = om.evolve(model.interaction, psi0, ts).T
    window, chain = oracle(40), oracle(320)
    norm_errors = ev.run_series(model, psi0, ts).norm_errors
    if case >= 5:
        assert np.abs(got - chain).max() <= 1e-13
        assert np.abs(got - window).max() > 0.3
        assert 0.25 < max(norm_errors) < 0.3
    else:
        assert np.abs(got - window).max() <= 1e-13
        assert np.abs(got - chain).max() > 0.3
        assert max(norm_errors) <= 1e-14
    assert norm_errors == pytest.approx(1.0 - np.linalg.norm(got, axis=0), abs=1e-14)


def test_evolve_tail_overflow():
    # a state on the last level overflows the tail monitor of evolve_full
    # and run_series, whatever the time
    h = _h(1.0, 0.0, n=30)
    model = ev.FullModel(h, (0.0,), tail_tol=1e-8)
    bad = ev.basis_state(model, (29,))
    with pytest.raises(TruncationOverflowError):
        ev.evolve_full(model, bad, -0.1)
    with pytest.raises(TruncationOverflowError, match="at t = 0.0"):
        ev.run_series(model, bad, [0.0, 0.1])


@pytest.mark.parametrize("mu, nu, alpha0", [(0.0, 1e300, 1e300), (1.0, 1.0, 1e308)])
def test_overflowing_coefficients_raise_without_a_warning(mu, nu, alpha0):
    # b_k overflows to inf, or to 0 * inf = nan when mu = nu; the check
    # raises ParameterError and numpy warns of nothing (warnings are errors
    # under this suite)
    sec = rep.OneModeSector(rep.MultibosonRep(1, (alpha0,)), 0, 100)
    with pytest.raises(ParameterError, match="overflow"):
        om.OneModeHamiltonian(mu, nu, sec)
