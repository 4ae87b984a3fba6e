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
from multiboson.errors import UnsupportedElementError
from multiboson.jacobi import oracle_eigh, oracle_eigs


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
    assert bg.multiply(bg.IDENTITY, h) == h


@settings(max_examples=60, deadline=None)
@given(elements)
def test_inverse(g):
    gi = bg.inverse(g)
    prod = bg.multiply(g, gi)
    assert prod.sigma == 1
    assert prod.a == pytest.approx(1.0, rel=1e-12)


def test_element_validation():
    with pytest.raises(ValueError):
        bg.GroupElement(0.0, 1)
    with pytest.raises(ValueError):
        bg.GroupElement(1.0, 2)


def test_action_matrix_identity_and_sample():
    assert np.allclose(bg.action_matrix(bg.IDENTITY).matrix, np.eye(3))
    m = bg.action_matrix(bg.GroupElement(2.0, 1)).matrix
    assert np.allclose(m[0], [1.25, -0.75, -0.75])


def test_action_matrix_central_flip():
    # the structure-preserving action at (-1, 1): A0 -> -A0, A- -> -A+,
    # A+ -> -A-.  (A plain sign flip of all three generators would violate
    # [A-, A+] = A0 and is not in the group.)
    m = bg.action_matrix(bg.GroupElement(-1.0, 1)).matrix
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
    mg = bg.action_matrix(g).matrix
    mh = bg.action_matrix(h).matrix
    mgh = bg.action_matrix(bg.multiply(g, h)).matrix
    assert np.abs(mgh - mg @ mh).max() <= 1e-12 * max(1.0, np.abs(mgh).max())


@settings(max_examples=50, deadline=None)
@given(elements)
def test_structure_preservation(g):
    m = bg.action_matrix(g).matrix
    f = bg.structure_constants()
    lhs = np.einsum("ip,jq,pqr->ijr", m, m, f)
    rhs = np.einsum("ijk,kr->ijr", f, m)
    assert np.abs(lhs - rhs).max() <= 1e-12 * max(1.0, np.abs(m).max() ** 2)


def test_act_on_labels():
    assert bg.act_on_labels(bg.GroupElement(2.0, 1), 4.0, 1.0) == (2.0, 2.0)
    assert bg.act_on_labels(bg.IDENTITY, 0.3, -0.7) == (0.3, -0.7)
    mu, nu = bg.act_on_labels(bg.GroupElement(3.0, -1), 4.0, 1.0)
    assert (mu, nu) == pytest.approx((3.0, 4.0 / 3.0))
    with pytest.raises(ValueError):
        bg.act_on_labels(bg.IDENTITY, 0.0, 0.0)


def test_orbit_invariant():
    assert bg.orbit_invariant(4.0, 1.0) == 4.0
    assert bg.orbit_invariant(1.0, 0.0) == 0.0
    assert bg.orbit_invariant(1.0, -1.0) == -1.0
    with pytest.raises(ValueError):
        bg.orbit_invariant(0.0, 0.0)


@settings(max_examples=50, deadline=None)
@given(elements, st.floats(-3, 3), st.floats(-3, 3))
def test_label_action_preserves_orbit(g, mu, nu):
    if mu == 0 and nu == 0:
        return
    mu2, nu2 = bg.act_on_labels(g, mu, nu)
    assert mu2 * nu2 == pytest.approx(mu * nu, rel=1e-12, abs=1e-12)


def test_implementer_trivial_elements():
    n = 8
    assert np.allclose(bg.implementer(bg.GroupElement(1.0, 1), 1.5, n), np.eye(n))
    u = bg.implementer(bg.GroupElement(1.0, -1), 1.5, n)
    assert np.allclose(u, np.diag((-1.0) ** np.arange(n)))


def test_implementer_rejects_negative_a():
    with pytest.raises(UnsupportedElementError):
        bg.implementer(bg.GroupElement(-2.0, 1), 1.0, 16)


def test_implementer_columns_match_eigenvector_oracle():
    # columns of the a=3 unitary vs LAPACK eigenvectors of the transformed
    # A0 matrix, column by column up to overall sign
    g = bg.GroupElement(3.0, 1)
    alpha0, n = 1.0, 200
    assert bg.meixner_c(3.0) == pytest.approx(0.25)
    u, info = bg.implementer(g, alpha0, n, return_info=True)
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
    u = bg.implementer(g, 1.0, n)
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
            u, info = bg.implementer(bg.GroupElement(a, sigma), 1.0, 220,
                                     return_info=True)
            nc = info.converged_cols
            g = u[:, :nc].T @ u[:, :nc] - np.eye(nc)
            assert np.abs(g).max() <= 1e-8


@pytest.mark.parametrize("a", [1 / 3, 0.5, 2.0, 3.0])
@pytest.mark.parametrize("sigma", [1, -1])
@pytest.mark.parametrize("alpha0", [0.5, 1.0, 2.7])
def test_implementer_conjugation(a, sigma, alpha0):
    n = 220
    g = bg.GroupElement(a, sigma)
    u, info = bg.implementer(g, alpha0, n, return_info=True)
    s = rep.OneModeSector(rep.MultibosonRep(1, (alpha0,)), 0, n)
    a0m, amm, apm = rep.sector_matrices(s)
    m = bg.action_matrix(g).matrix
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
