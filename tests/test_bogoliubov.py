"""Symmetry group: product law, generator action, implementing unitaries."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.linalg import eigh_tridiagonal
from hypothesis import strategies as st

from multiboson import bogoliubov as bg
from multiboson import onemode as om
from multiboson import rep
from multiboson import twomode as tm
from multiboson.errors import ParameterError, UnsupportedElementError
from multiboson.jacobi import atom_eigenvector, oracle_eigh, oracle_eigs
from multiboson.orthopoly import Meixner


elements = st.builds(
    bg.GroupElement,
    st.floats(0.2, 4.0).map(lambda a: a).flatmap(
        lambda a: st.sampled_from([a, -a])),
    st.sampled_from([-1, 1]),
)


def _transformed_a0(g, alpha0, n):
    """Jacobi form of the transformed A0 on a sector: the one-mode H at
    (mu, nu) = (a^-sigma, a^sigma)."""
    av = float(g.a) ** g.sigma
    sector = rep.OneModeSector(rep.MultibosonRep(1, (alpha0,)), 0, n)
    return om.jacobi(om.OneModeHamiltonian(1.0 / av, av, sector))


def test_multiply():
    g = bg.multiply(bg.GroupElement(2.0, -1), bg.GroupElement(3.0, 1))
    assert g == bg.GroupElement(2.0 / 3.0, -1)
    h = bg.GroupElement(1.7, -1)
    assert bg.multiply(bg.GroupElement(1.0, 1), h) == h


@settings(max_examples=60, deadline=None)
@given(elements)
def test_inverse(g):
    # (a, s)^-1 = (a^-s, s), on both sides
    gi = bg.GroupElement(g.a ** -g.sigma, g.sigma)
    for prod in (bg.multiply(g, gi), bg.multiply(gi, g)):
        assert prod.sigma == 1
        assert prod.a == pytest.approx(1.0, rel=1e-12)
    assert np.abs(bg.action_matrix(g) @ bg.action_matrix(gi) - np.eye(3)).max() <= 1e-12


def test_element_validation():
    with pytest.raises(ValueError):
        bg.GroupElement(0.0, 1)
    with pytest.raises(ValueError):
        bg.GroupElement(1.0, 2)


@pytest.mark.parametrize("a", [math.nan, math.inf, -math.inf, 1.4e154, -1.4e154, 1e-309])
def test_element_rejects_a_it_cannot_represent(a):
    # a * a or 1 / a past the double range: action_matrix would overflow
    # or fill with inf and nan
    with pytest.raises(ParameterError) as exc:
        bg.GroupElement(a, 1)
    assert exc.value.names == ("a",)


@pytest.mark.parametrize("a", [1e9, 1e-300, 1.3e154, -1.3e154])
@pytest.mark.parametrize("sigma", [1, -1])
def test_action_matrix_finite_at_extreme_a(a, sigma):
    # the exact determinant is +-1, but a computed one cancels at these a
    m = bg.action_matrix(bg.GroupElement(a, sigma))
    assert m.shape == (3, 3) and np.isfinite(m).all()
    # A0 -> (a + 1/a)/2 A0 + sigma (1/a - a)/2 (A- + A+)
    p, q = (a + 1 / a) / 2, sigma * (1 / a - a) / 2
    assert m[0] == pytest.approx([p, q, q], rel=1e-14)


@pytest.mark.parametrize("a", [1e9, 1e-300])
def test_build_h_matrix_at_extreme_a(a):
    reps = tm.TwoModeRep(rep.MultibosonRep(1, (1.0,)), rep.MultibosonRep(1, (1.0,)))
    h = tm.TwoModeHamiltonian(reps, bg.GroupElement(a, 1), bg.GroupElement(1.0, 1), (0, 0))
    m = tm.build_h_matrix(h, 4)
    assert np.isfinite(m).all() and np.abs(m - m.T).max() == 0.0
    assert np.abs(m).max() > 1e8


@pytest.mark.parametrize("a, b", [(1.3e154, -1.3e154), (-1.3e154, 1.3e154),
                                  (1e-300, 1e-300), (6e-309, 6e-309)])
def test_build_h_matrix_rejects_pairs_past_the_double_range(a, b):
    # each element is valid alone, and so is the pair: its exact expansion
    # coefficients are finite ((a^2 + b^2) / (4ab) is +-1/2, the others 0
    # or +-1) although (a - b)^2 overflows or 4ab underflows unscaled
    reps = tm.TwoModeRep(rep.MultibosonRep(1, (1.0,)), rep.MultibosonRep(1, (1.0,)))
    for s, t in ((1, 1), (-1, 1), (1, -1)):
        h = tm.TwoModeHamiltonian(reps, bg.GroupElement(a, s), bg.GroupElement(b, t), (0, 0))
        m = tm.build_h_matrix(h, 3)
        assert np.all(np.isfinite(m)) and np.array_equal(m, m.T)
        unit = tm.TwoModeHamiltonian(reps, bg.GroupElement(math.copysign(1.0, a), s),
                                     bg.GroupElement(math.copysign(1.0, b), t), (0, 0))
        assert np.array_equal(m, tm.build_h_matrix(unit, 3))
    # a pair whose exact coefficient (a^2 + b^2) / (4ab) overflows
    h = tm.TwoModeHamiltonian(reps, bg.GroupElement(1e-300, 1), bg.GroupElement(1.3e154, 1),
                              (0, 0))
    with pytest.raises(ParameterError) as exc:
        tm.build_h_matrix(h, 3)
    assert exc.value.names == ("g", "h")


def test_action_matrix_identity_and_sample():
    assert np.array_equal(bg.action_matrix(bg.GroupElement(1.0, 1)), np.eye(3))
    m = bg.action_matrix(bg.GroupElement(2.0, 1))
    assert np.allclose(m[0], [1.25, -0.75, -0.75])


def test_action_matrix_central_flip():
    # the structure-preserving action at (-1, 1): A0 -> -A0, A- -> -A+,
    # A+ -> -A-.  (A plain sign flip of all three generators would violate
    # [A-, A+] = A0 and is not in the group.)
    m = bg.action_matrix(bg.GroupElement(-1.0, 1))
    expected = -np.array([[1.0, 0, 0], [0, 0, 1.0], [0, 1.0, 0]])
    assert np.allclose(m, expected)
    f = bg.structure_constants()
    flip = -np.eye(3)
    lhs = np.einsum("ip,jq,pqr->ijr", flip, flip, f)
    rhs = np.einsum("ijk,kr->ijr", f, flip)
    assert np.abs(lhs - rhs).max() > 1.0  # -identity breaks the bracket


@settings(max_examples=50, deadline=None)
@given(elements, elements)
def test_homomorphism(g, h):
    mg = bg.action_matrix(g)
    mh = bg.action_matrix(h)
    mgh = bg.action_matrix(bg.multiply(g, h))
    assert np.abs(mgh - mg @ mh).max() <= 1e-12 * max(1.0, np.abs(mgh).max())


@settings(max_examples=50, deadline=None)
@given(elements)
def test_structure_preservation(g):
    m = bg.action_matrix(g)
    f = bg.structure_constants()
    lhs = np.einsum("ip,jq,pqr->ijr", m, m, f)
    rhs = np.einsum("ijk,kr->ijr", f, m)
    assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(m).max() ** 2)


def _labels(g, mu, nu):
    """(mu, nu) carried by g: the row ((mu+nu)/2, (mu-nu)/2, (mu-nu)/2) of
    H = ((mu+nu)/2) A0 + ((mu-nu)/2)(A- + A+) times action_matrix(g)."""
    p, q, q2 = np.array([(mu + nu) / 2, (mu - nu) / 2, (mu - nu) / 2]) @ bg.action_matrix(g)
    assert q2 == pytest.approx(q, rel=1e-12, abs=1e-12 * (abs(mu) + abs(nu)))
    return p + q, p - q


def test_act_on_labels():
    # (a, +1): (mu, nu) -> (mu/a, a nu); (a, -1): (mu, nu) -> (a nu, mu/a)
    assert _labels(bg.GroupElement(2.0, 1), 4.0, 1.0) == (2.0, 2.0)
    assert _labels(bg.GroupElement(1.0, 1), 0.375, -0.75) == (0.375, -0.75)
    assert _labels(bg.GroupElement(3.0, -1), 4.0, 1.0) == pytest.approx((3.0, 4.0 / 3.0))


@settings(max_examples=50, deadline=None)
@given(elements, st.floats(-3, 3), st.floats(-3, 3))
def test_label_action_preserves_orbit(g, mu, nu):
    # the orbits are the hyperbolas mu nu = const
    mu2, nu2 = _labels(g, mu, nu)
    scale = (abs(mu) + abs(nu)) ** 2 * max(abs(g.a), 1 / abs(g.a)) ** 2
    assert abs(mu2 * nu2 - mu * nu) <= 1e-14 * scale


def test_implementer_trivial_elements():
    n = 8
    u, info = bg.implementer(bg.GroupElement(1.0, 1), 1.5, n)
    assert np.allclose(u, np.eye(n))
    assert (info.converged_cols, info.interior_rows) == (n, n)
    u, _ = bg.implementer(bg.GroupElement(1.0, -1), 1.5, n)
    assert np.allclose(u, np.diag((-1.0) ** np.arange(n)))


def _power_form_implementer(g, alpha0, n):
    """The implementer with its sign decoration written as powers of -1
    and of sigma, the form the +-1 sign products replace."""
    if g.a == 1.0:
        return np.diag(np.asarray([float(g.sigma) ** m for m in range(n)]))
    ms = np.arange(n)
    u = atom_eigenvector(Meixner(alpha0, bg.meixner_c(g.a)), n)
    u /= np.linalg.norm(u, axis=0)
    if float(g.a) ** g.sigma > 1.0:
        u = u * (-1.0) ** (ms[:, None] + ms)
    return u * float(g.sigma) ** ms


@pytest.mark.parametrize("n", [160, 240])
def test_implementer_sign_products_equal_power_form(n):
    # the validate grid in its loop order, so that consecutive elements
    # sharing a Meixner block take it from the memo, plus the identity and
    # the flip at a = 1; bit for bit, signed zeros included
    bg._meixner_block.cache_clear()
    for alpha0 in (0.5, 1.0, 2.7):
        for a in (1 / 3, 3.0, 0.5, 2.0, 1.0):
            for sigma in (1, -1):
                g = bg.GroupElement(a, sigma)
                got = bg.implementer(g, alpha0, n)[0]
                ref = _power_form_implementer(g, alpha0, n)
                assert np.array_equal(got.view(np.int64), ref.view(np.int64))


@settings(max_examples=200, deadline=None)
@given(st.floats(1e-300, 1e300))
def test_meixner_c_is_shared_by_a_and_its_inverse(a):
    # b = max(a, 1/a) is the same float for a and 1/a whenever 1/(1/a)
    # rounds back to a (always for a < 1; 1/3 -> 3 -> 1/3 exactly)
    if 1.0 / (1.0 / a) == a:
        assert bg.meixner_c(a) == bg.meixner_c(1.0 / a)
    assert bg.meixner_c(1 / 3) == bg.meixner_c(3.0) == 0.25


def test_implementer_returns_a_private_copy():
    g = bg.GroupElement(0.5, 1)
    u, _ = bg.implementer(g, 1.0, 64)
    ref = u.copy()
    u[:] = 0.0
    assert np.array_equal(bg.implementer(g, 1.0, 64)[0], ref)
    assert not bg._meixner_block(1.0, bg.meixner_c(0.5), 64).flags.writeable


def test_implementer_is_orthonormal_only_on_converged_columns():
    # the docstring's numbers: past converged_cols the window cuts the tails
    # (the converged Gram reads 2.45e-15 with OpenBLAS; the bound leaves
    # room for another BLAS's summation order)
    u, info = bg.implementer(bg.GroupElement(0.5, 1), 1.0, 240)
    assert info.converged_cols == 92
    nc = info.converged_cols
    assert np.abs(u[:, :nc].T @ u[:, :nc] - np.eye(nc)).max() <= 4e-15
    full = np.abs(u.T @ u - np.eye(240)).max()
    assert full == pytest.approx(0.76, abs=0.01)


def test_implementer_rejects_negative_a():
    with pytest.raises(UnsupportedElementError):
        bg.implementer(bg.GroupElement(-2.0, 1), 1.0, 16)


def test_implementer_columns_match_eigenvector_oracle():
    # columns of the a=3 unitary vs LAPACK eigenvectors of the transformed
    # A0 matrix, column by column up to overall sign
    g = bg.GroupElement(3.0, 1)
    alpha0, n = 1.0, 200
    assert bg.meixner_c(3.0) == pytest.approx(0.25)
    u, info = bg.implementer(g, alpha0, n)
    op = _transformed_a0(g, alpha0, 4 * n)
    w, v = oracle_eigh(op)
    assert np.abs(w[:10] - (2 * np.arange(10) + alpha0)).max() <= 1e-9
    for m in range(min(info.converged_cols, 40)):
        ref = v[:n, m] / np.linalg.norm(v[:n, m])
        overlap = abs(float(np.dot(ref, u[:, m])))
        assert overlap >= 1.0 - 1e-10


@pytest.mark.parametrize("a", [0.7, 1.5])
@pytest.mark.parametrize("sigma", [1, -1])
def test_implementer_matches_larger_oracle_on_every_column(a, sigma):
    # every column, converged or not, is the exact eigenvector normalized
    # over the window: no zero columns, and agreement with the same
    # eigenvectors of a 4x larger truncation restricted to the window
    g = bg.GroupElement(a, sigma)
    n = 240
    u, _ = bg.implementer(g, 1.0, n)
    assert np.all(np.abs(u).max(axis=0) > 0.0)
    op = _transformed_a0(g, 1.0, 4 * n)
    _, v = eigh_tridiagonal(op.diag_array(), op.offdiag_array(),
                            select="i", select_range=(0, n - 1))
    ref = v[:n] / np.linalg.norm(v[:n], axis=0)
    ref *= np.copysign(1.0, np.sum(ref * u, axis=0))
    assert np.abs(u - ref).max() <= 1e-12


def test_implementer_unitarity_interior():
    for a in (1 / 3, 0.5, 2.0, 3.0):
        for sigma in (1, -1):
            u, info = bg.implementer(bg.GroupElement(a, sigma), 1.0, 220)
            nc = info.converged_cols
            g = u[:, :nc].T @ u[:, :nc] - np.eye(nc)
            assert np.abs(g).max() <= 1e-8


@pytest.mark.parametrize("a", [1 / 3, 0.5, 2.0, 3.0])
@pytest.mark.parametrize("sigma", [1, -1])
@pytest.mark.parametrize("alpha0", [0.5, 1.0, 2.7])
def test_implementer_conjugation(a, sigma, alpha0):
    n = 220
    g = bg.GroupElement(a, sigma)
    u, info = bg.implementer(g, alpha0, n)
    s = rep.OneModeSector(rep.MultibosonRep(1, (alpha0,)), 0, n)
    a0m, amm, apm = rep.sector_matrices(s)
    m = bg.action_matrix(g)
    ii = info.interior_rows
    for i, x in enumerate((a0m, amm, apm)):
        img = m[i, 0] * a0m + m[i, 1] * amm + m[i, 2] * apm
        assert np.abs((u @ x @ u.T - img)[:ii, :ii]).max() <= 1e-7


def test_eigenvalue_preservation_at_truncation():
    # lowest eigenvalues of the truncated transformed A0 converge to 2n + alpha0
    for alpha0 in (0.5, 1.0, 2.7):
        op = _transformed_a0(bg.GroupElement(2.0, 1), alpha0, 300)
        w = oracle_eigs(op, count=5)
        assert np.abs(w - (2 * np.arange(5) + alpha0)).max() <= 1e-6
