"""Ladder representation: coefficient solutions, generators, Casimir."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiboson import rep
from multiboson.orthopoly import pochhammer


def test_rep_validation():
    with pytest.raises(ValueError):
        rep.MultibosonRep(2, (1.0,))
    with pytest.raises(ValueError):
        rep.MultibosonRep(1, (0.0,))
    with pytest.raises(ValueError):
        rep.MultibosonRep(0, ())


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_rep_rejects_non_finite_constants(bad):
    # nan <= 0 is False, so positivity alone lets nan through to LAPACK
    with pytest.raises(ValueError, match="finite"):
        rep.MultibosonRep(2, (1.0, bad))


def test_alpha0_values():
    r = rep.MultibosonRep(1, (0.7,))
    assert rep.alpha0(r, 5) == pytest.approx(10.7)
    assert rep.alpha0(r, 0) == pytest.approx(0.7)
    r2 = rep.MultibosonRep(2, (0.5, 1.5))
    assert rep.alpha0(r2, 6) == pytest.approx(6.5)
    # this table gives alpha0(n) = n + 1/2 on every level
    assert all(rep.alpha0(r2, n) == pytest.approx(n + 0.5) for n in range(12))


def test_alpha_minus_values():
    r = rep.MultibosonRep(1, (2.0,))
    assert rep.alpha_minus(r, 0) == pytest.approx(math.sqrt(2.0))
    r2 = rep.MultibosonRep(2, (0.5, 1.5))
    # second-harmonic table: the shift coefficient is identically 1/2
    assert all(rep.alpha_minus(r2, n) == pytest.approx(0.5) for n in range(20))


def _difference_residual(r: rep.MultibosonRep, n: int) -> float:
    a2 = pochhammer(n + 1.0, r.l) * rep.alpha_minus(r, n) ** 2
    if n < r.l:
        return abs(a2 - rep.alpha0(r, n)) / max(1.0, rep.alpha0(r, n))
    prev = pochhammer(n - r.l + 1.0, r.l) * rep.alpha_minus(r, n - r.l) ** 2
    d1 = abs(a2 - prev - rep.alpha0(r, n)) / max(1.0, rep.alpha0(r, n))
    d2 = abs((rep.alpha0(r, n) - rep.alpha0(r, n - r.l) - 2.0)
             * rep.alpha_minus(r, n - r.l))
    return max(d1, d2)


def test_alpha_minus_l3_solves_difference_equations():
    r = rep.MultibosonRep(3, (1.0, 1.0, 1.0))
    assert _difference_residual(r, 4) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4),
       st.lists(st.floats(0.05, 5.0), min_size=4, max_size=4))
def test_difference_equations_property(l, table):
    r = rep.MultibosonRep(l, tuple(table[:l]))
    assert max(_difference_residual(r, n) for n in range(101)) <= 1e-10


def test_sector_coeffs():
    s = rep.OneModeSector(rep.MultibosonRep(1, (1.0,)), 0, 10)
    diag, lowering, raising = rep.sector_coeffs(s)
    assert lowering(0) == 0.0
    assert diag(3) == pytest.approx(7.0)
    s2 = rep.OneModeSector(rep.MultibosonRep(1, (2.0,)), 0, 10)
    _, _, raising2 = rep.sector_coeffs(s2)
    assert raising2(0) == pytest.approx(math.sqrt(2.0))


def test_full_generators_entries():
    # single-boson cluster with alpha0 = 1: subdiagonal entries k + 1
    r = rep.MultibosonRep(1, (1.0,))
    _, am, ap = rep.build_generators_full(r, 12)
    for k in range(11):
        assert am[k, k + 1] == pytest.approx(k + 1.0)
    assert np.array_equal(ap, am.T)
    # two-boson cluster: entries (1/2) sqrt((k+1)(k+2))
    r2 = rep.MultibosonRep(2, (0.5, 1.5))
    _, am2, _ = rep.build_generators_full(r2, 12)
    for k in range(10):
        assert am2[k, k + 2] == pytest.approx(0.5 * math.sqrt((k + 1) * (k + 2)))


@pytest.mark.parametrize("table", [(0.7,), (0.5, 1.5), (0.3, 1.0, 2.2)])
def test_coefficients_take_level_arrays(table):
    # an integer level array gives, bit for bit, the per-level values, and
    # those the scalar formulas with math.sqrt
    r = rep.MultibosonRep(len(table), table)
    n = np.arange(600)
    a0, am = rep.alpha0(r, n), rep.alpha_minus(r, n)
    l = r.l
    for m in range(600):
        assert a0[m] == rep.alpha0(r, m) == 2.0 * (m // l) + table[m % l]
        assert am[m] == rep.alpha_minus(r, m) == math.sqrt(
            (m // l + table[m % l]) * (m // l + 1.0) / pochhammer(m + 1.0, l))


def test_banded_and_dense_identical():
    r = rep.MultibosonRep(3, (0.3, 1.0, 2.2))
    n = 540
    # dense reference straight from the coefficient functions
    a0d = np.diag([rep.alpha0(r, m) for m in range(n)])
    amd = np.diag([rep.alpha_minus(r, m) * math.sqrt(pochhammer(m + 1.0, r.l))
                   for m in range(n - r.l)], r.l)
    apd = amd.T
    a0b, amb, apb = rep.build_generators_full(r, n)
    assert all(isinstance(m, np.ndarray) for m in (a0b, amb, apb))
    assert np.array_equal(a0b, a0d)
    assert np.array_equal(amb, amd)
    assert np.array_equal(apb, apd)


def _interior_commutator_residual(r, n):
    a0, am, ap = rep.build_generators_full(r, n)
    interior = n - 2 * r.l
    dev = 0.0
    for lhs, rhs in ((am @ ap - ap @ am, a0),
                     (a0 @ am - am @ a0, -2 * am),
                     (a0 @ ap - ap @ a0, 2 * ap)):
        dev = max(dev, np.abs((lhs - rhs)[:interior, :interior]).max())
    return dev


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 4), st.lists(st.floats(0.05, 5.0), min_size=4, max_size=4))
def test_commutators_interior(l, table):
    r = rep.MultibosonRep(l, tuple(table[:l]))
    assert _interior_commutator_residual(r, 48) <= 1e-10


def test_sector_consistency_with_full_matrices():
    r = rep.MultibosonRep(3, (0.4, 1.1, 2.6))
    n = 30
    a0, am, ap = rep.build_generators_full(r, n)
    for rr in range(3):
        s = rep.OneModeSector(r, rr, (n - rr - 1) // 3)
        diag, lowering, raising = rep.sector_coeffs(s)
        for k in range(s.n_levels):
            i = k * 3 + rr
            assert a0[i, i] == pytest.approx(diag(k), abs=1e-14)
            if k >= 1:
                assert am[i - 3, i] == pytest.approx(lowering(k), abs=1e-13)
            if (k + 1) * 3 + rr < n:
                assert ap[(k + 1) * 3 + rr, i] == pytest.approx(raising(k), abs=1e-13)


def test_casimir_values():
    assert rep.casimir_value(rep.MultibosonRep(1, (2.0,)), 0) == 0.0
    assert rep.casimir_value(rep.MultibosonRep(1, (1.0,)), 0) == -0.5
    assert rep.casimir_value(rep.MultibosonRep(1, (0.3,)), 0) == pytest.approx(-0.255)


def test_casimir_matrix_interior_diagonal():
    r = rep.MultibosonRep(2, (0.3, 1.7))
    n = 40
    a0, am, ap = rep.build_generators_full(r, n)
    cas = 0.5 * a0 @ a0 - am @ ap - ap @ am
    interior = n - 2 * r.l
    expected = np.diag([rep.casimir_value(r, m % 2) for m in range(interior)])
    assert np.abs(cas[:interior, :interior] - expected).max() <= 1e-10
