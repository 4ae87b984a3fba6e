"""Array paths of the three-term recurrence against per-point evaluation.

Coefficient streams, family recurrences and ``poly_table`` take arrays;
every entry must be bit-identical to the same quantity computed one scalar
at a time.  The Meixner kernel ``atom_eigenvector`` builds a whole block in
one call; every column, and every rectangular slice, must be bit-identical
to the call that asks for it alone, and the whole block bit-identical to a
sweep that rescales after every row.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiboson import bogoliubov as bg
from multiboson import onemode as om
from multiboson import orthopoly as op
from multiboson import rep
from multiboson import twomode as tm
from multiboson import validation
from multiboson.jacobi import JacobiOperator, atom_eigenvector

SIZES = [1, 2, 500]


def _sector(n, alpha0=1.3):
    return rep.OneModeSector(rep.MultibosonRep(1, (alpha0,)), 0, max(n, 2))


def _operators(n):
    """Every Jacobi-operator constructor, each covering at least n levels."""
    ops = {}
    for mu, nu in ((2.0, 0.5), (0.5, 2.0), (-1.0, 3.0), (0.0, 1.5), (1.0, 0.0),
                   (-4.0, -1.0), (1.5, 1.5)):
        h = om.OneModeHamiltonian(mu, nu, _sector(n))
        ops[f"onemode({mu},{nu})"] = om.jacobi(h)
    ops["hd"] = tm.hd_block_jacobi(tm.DBlock(n - 1, 0.7, 1.9))
    ops["hd-printed"] = validation._printed_hd_block_jacobi(tm.DBlock(n - 1, 0.7, 1.9))
    for K in (3, 0, -4):
        ops[f"hc(K={K})"] = tm.hc_block_jacobi(tm.CBlock(K, 0.7, 1.9, max(n, 2)))
    # a C-block of 593 states and a D-block cut to its last n of 1200 - n
    ops["charge-C"] = tm.window_block("C", 7, 0.7, 1.9, 600)[1]
    ops["charge-D-cut"] = tm.window_block("D", 1199 - n, 0.7, 1.9, 600)[1]
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


def _family_id(family):
    """The class name in snake case: MeixnerPollaczek -> meixner_pollaczek."""
    return re.sub(r"(?<!^)(?=[A-Z])", "_", type(family).__name__).lower()


@pytest.mark.parametrize("family", FAMILIES, ids=_family_id)
def test_recurrence_arrays_match_scalar_calls(family):
    k = np.arange(12, dtype=float)
    a, b = family.recurrence(k)
    for j in range(12):
        aj, bj = family.recurrence(j)
        assert a[j] == aj and b[j] == bj


@pytest.mark.parametrize("family", FAMILIES, ids=_family_id)
def test_poly_table_over_x_matches_scalar_calls(family):
    n_max = family.nmax if family.nmax is not None else 11
    x = np.linspace(-9.0, 14.0, 47)
    table = op.poly_table(family, n_max, x)
    assert table.shape == (n_max + 1, x.size)
    columns = np.stack([op.poly_table(family, n_max, xi) for xi in x], axis=1)
    assert np.array_equal(table, columns)
    for n in range(n_max + 1):
        assert np.array_equal(op.poly_table(family, n, x)[n], table[n])


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


def _per_row_sweep(fam, n_rows, n_cols):
    """The Meixner kernel as a sweep that renormalizes every row: each
    column's value as mantissa * 2**expo after each step, row 0 as a
    column-by-column product."""
    m, width = min(n_rows, n_cols), max(n_rows, n_cols)
    beta, c = fam.beta, fam.c
    a, b = fam.recurrence(np.arange(m, dtype=float))
    x = 2.0 * np.arange(width) + beta
    p = np.empty(width)
    expo = np.empty(width, dtype=int)
    f, e = math.frexp((1.0 - c) ** (0.5 * beta))
    jj = np.arange(width - 1)
    for j, r in enumerate(np.sqrt(c * (beta + jj) / (jj + 1.0)).tolist()):
        p[j], expo[j] = f, e
        f, de = math.frexp(f * r)
        e += de
    p[-1], expo[-1] = f, e
    upper = np.zeros((m, width))
    prev = np.zeros(width)
    for k in range(m):
        upper[k, k:] = np.ldexp(p[k:], expo[k:])
        if k + 1 == m:
            break
        s = slice(k + 1, width)
        nxt = (x[s] - a[k]) * p[s]
        if k:
            nxt -= b[k - 1] * prev[s]
        f, e = np.frexp(nxt / b[k])
        prev[s] = np.ldexp(p[s], -e)
        p[s] = f
        expo[s] += e
    sign = 1.0 - 2.0 * (np.arange(width) % 2)
    out = np.zeros((n_rows, n_cols))
    out[:m] = upper[:, :n_cols]
    out[:, :m] += np.tril(upper[:, :n_rows].T * np.outer(sign[:n_rows], sign[:m]), -1)
    return out


def _assert_per_row_bits(fam, n_rows, n_cols):
    got, want = atom_eigenvector(fam, n_rows, n_cols), _per_row_sweep(fam, n_rows, n_cols)
    assert got.shape == want.shape
    # the same bits, zero signs included
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("fam, n_rows, n_cols", [
    # implementer at a = 1 + 1e-8 (c ~ 2.5e-17): b_k ~ 1e-8 k, so G_k is
    # large and the blocks are short
    (op.Meixner(0.5, bg.meixner_c(1 + 1e-8)), 240, 240),
    (op.Meixner(0.01, 1e-30), 60, 60),
    # one step alone passes the limit: blocks of one row
    (op.Meixner(0.5, 1e-300), 10, 10),
    (op.Meixner(0.01, 1e-12), 100, 4000),
    # row 0 alone, its product split into many runs
    (op.Meixner(0.5, 1e-4), 1, 16000),
    (op.Meixner(30.0, 1 - 1e-6), 400, 400),
])
def test_atom_eigenvector_matches_per_row_sweep_at_extremes(fam, n_rows, n_cols):
    _assert_per_row_bits(fam, n_rows, n_cols)


@settings(max_examples=40, deadline=None)
@given(beta=st.floats(0.01, 30.0), log_c=st.floats(-20.0, -1e-4),
       n_rows=st.integers(1, 400), n_cols=st.integers(1, 1500))
def test_atom_eigenvector_matches_per_row_sweep(beta, log_c, n_rows, n_cols):
    _assert_per_row_bits(op.Meixner(beta, 10.0 ** log_c), n_rows, n_cols)


# tracemalloc peak of this call when the kernel was the per-row sweep above
# (numpy 2.4, CPython 3.11): 52,060,304 B (49.65 MiB) for a 20.48 MB result.
# The blocked sweep keeps no second m x width buffer, so it must not exceed it.
_PER_ROW_PEAK_BYTES = 52_060_304


def test_atom_eigenvector_peak_memory():
    fam = op.Meixner(1.0, 1 / 9)
    atom_eigenvector(fam, 8, 32)
    tracemalloc.start()
    try:
        out = atom_eigenvector(fam, 800, 3200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (800, 3200)
    assert peak <= _PER_ROW_PEAK_BYTES


def test_atom_eigenvector_single_level():
    fam = op.Meixner(1.5, 0.25)
    assert np.array_equal(atom_eigenvector(fam, 1), [[0.75 ** 0.75]])
    row = atom_eigenvector(fam, 1, 3)
    assert row.shape == (1, 3) and row[0, 0] == 0.75 ** 0.75
    jop = JacobiOperator(lambda k: 1.0, lambda k: 0.0, 1)
    assert np.array_equal(op.poly_table(jop, jop.size - 1, 1.0), np.ones(1))
    assert np.array_equal(tm.hd_eigenvectors(tm.DBlock(0, 1.5, 0.25), 0), np.ones(1))
