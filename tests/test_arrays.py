"""Array paths of the three-term recurrence against per-point evaluation.

Coefficient streams, family recurrences and ``poly_table`` take arrays;
every entry must be bit-identical to the same quantity computed one scalar
at a time.  The Meixner kernel ``atom_eigenvector`` builds a whole block in
one call; every column, and every rectangular slice, must be bit-identical
to the call that asks for it alone.
"""

import numpy as np
import pytest

from multiboson import bogoliubov as bg
from multiboson import evolution as ev
from multiboson import onemode as om
from multiboson import orthopoly as op
from multiboson import rep
from multiboson import twomode as tm
from multiboson.jacobi import (JacobiOperator, atom_eigenvector, block_eigenvectors,
                              forward_eigenvector)

SIZES = [1, 2, 500]


def _sector(n, alpha0=1.3):
    return rep.OneModeSector(rep.MultibosonRep(1, (alpha0,)), 0, max(n, 2))


def _canonical(kind, n_per_mode):
    reps = tm.TwoModeRep(rep.MultibosonRep(1, (0.7,)), rep.MultibosonRep(1, (1.9,)))
    return ev.CanonicalInteraction(kind, reps, (0, 0), n_per_mode)


def _operators(n):
    """Every Jacobi-operator constructor, each covering at least n levels."""
    ops = {}
    for mu, nu in ((2.0, 0.5), (0.5, 2.0), (-1.0, 3.0), (0.0, 1.5), (1.0, 0.0),
                   (-4.0, -1.0), (1.5, 1.5)):
        h = om.OneModeHamiltonian(mu, nu, _sector(n))
        ops[f"onemode({mu},{nu})"] = om.jacobi(h)
    for conv in ("operator-derived", "printed"):
        ops[f"hd-{conv}"] = tm.hd_block_jacobi(tm.DBlock(n - 1, 0.7, 1.9), conv)
    for K in (3, 0, -4):
        ops[f"hc(K={K})"] = tm.hc_block_jacobi(tm.CBlock(K, 0.7, 1.9, max(n, 2)))
    ops["charge-C"] = ev._charge_block_operator(_canonical("C", 600), 7, n)
    ops["charge-D-cut"] = ev._charge_block_operator(_canonical("D", 600), 1199 - n, n)
    return ops


@pytest.mark.parametrize("n", SIZES)
def test_coefficient_streams_match_scalar_calls(n):
    for name, jop in _operators(n).items():
        d = np.array([jop.diag(k) for k in range(n)], dtype=float)
        e = np.array([jop.offdiag(k) for k in range(n - 1)], dtype=float)
        assert np.array_equal(jop.diag_array(n), d), name
        assert np.array_equal(jop.offdiag_array(n), e), name


def test_constant_streams_broadcast():
    jop = JacobiOperator(lambda k: 0.5, lambda k: 2.0, 4)
    assert np.array_equal(jop.diag_array(), np.full(4, 0.5))
    assert np.array_equal(jop.offdiag_array(), np.full(3, 2.0))
    assert np.array_equal(jop.offdiag_array(1), np.zeros(0))


@pytest.mark.parametrize("n", SIZES)
def test_sector_coeffs_match_scalar_calls(n):
    streams = rep.sector_coeffs(_sector(n, alpha0=0.4))
    k = np.arange(n, dtype=float)
    for stream in streams:
        assert np.array_equal(stream(k), np.array([stream(j) for j in range(n)]))


FAMILIES = [
    op.Laguerre(-0.5),
    op.Meixner(2.7, 0.25),
    op.MeixnerPollaczek(0.5, 1.0),
    op.DualHahn(-0.5, 1.7, 6),
    op.ContinuousDualHahn(-1.3, 2.0, 1.7),
]


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.tag)
def test_recurrence_arrays_match_scalar_calls(family):
    k = np.arange(12, dtype=float)
    a, b = family.recurrence(k)
    for j in range(12):
        aj, bj = family.recurrence(j)
        assert a[j] == aj and b[j] == bj


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.tag)
def test_poly_table_over_x_matches_scalar_calls(family):
    n_max = family.nmax if family.nmax is not None else 11
    x = np.linspace(-9.0, 14.0, 47)
    table = op.poly_table(family, n_max, x)
    assert table.shape == (n_max + 1, x.size)
    columns = np.stack([op.poly_table(family, n_max, xi) for xi in x], axis=1)
    assert np.array_equal(table, columns)
    for n in range(n_max + 1):
        assert np.array_equal(op.eval_orthonormal(family, n, x), table[n])


def _columns_alone(fam, n_rows, cols):
    return np.stack([atom_eigenvector(fam, n_rows, j + 1)[:, j] for j in cols], axis=1)


@pytest.mark.parametrize("n", [64, 240])
@pytest.mark.parametrize("alpha0", [0.5, 1.0, 2.7])
@pytest.mark.parametrize("sigma", [1, -1])
@pytest.mark.parametrize("a", [0.3, 0.7, 1.5, 3.0])
def test_batched_atom_eigenvector_implementer(a, sigma, alpha0, n):
    fam = op.Meixner(alpha0, bg.meixner_c(float(a) ** sigma))
    batch = atom_eigenvector(fam, n)
    assert batch.shape == (n, n)
    cols = [*range(0, n, 9), n - 1]
    assert np.array_equal(batch[:, cols], _columns_alone(fam, n, cols))
    for r, c in ((n, 1), (1, n), (n // 3, n), (n, n // 3), (n + 5, n - 7)):
        part = atom_eigenvector(fam, r, c)
        assert part.shape == (r, c)
        assert np.array_equal(part[:n, :n], batch[:r, :c])


@pytest.mark.parametrize("mu, nu, count", [(2.0, 0.5, 600), (1.0, 0.9, 190)])
def test_batched_atom_eigenvector_onemode_case5(mu, nu, count):
    # (1.0, 0.9) has c ~ 7e-4: row 0 starts near c^(j/2), far below the
    # double range for most columns, so the binary exponents carry them
    label = om.classify(mu, nu, 1.3)
    assert label.index == 5
    batch = atom_eigenvector(label.family, 800, count)
    cols = range(0, count, 17)
    assert np.array_equal(batch[:, cols], _columns_alone(label.family, 800, cols))
    assert np.all(np.abs(batch).max(axis=0) > 0.0)


def test_atom_eigenvector_single_level():
    fam = op.Meixner(1.5, 0.25)
    assert np.array_equal(atom_eigenvector(fam, 1), [[0.75 ** 0.75]])
    row = atom_eigenvector(fam, 1, 3)
    assert row.shape == (1, 3) and row[0, 0] == 0.75 ** 0.75
    jop = JacobiOperator(lambda k: 1.0, lambda k: 0.0, 1)
    assert np.array_equal(forward_eigenvector(jop, 1.0), np.ones(1))
    assert np.array_equal(block_eigenvectors(jop, np.array([1.0])), np.ones((1, 1)))
