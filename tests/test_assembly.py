"""Two-mode matrices and their assembly.

``canonical_matrix`` and ``build_h_matrix`` write the nonzero entries of the
Kronecker expansion, read off the per-mode coefficient diagonals, into one
zero dense array, and ``twomode._kron_sum`` stores the same entries as CSR.  ``preset`` sums sparse Kronecker products
of raw ladder matrices and densifies once.  Every entry must equal the dense
``np.kron`` expression below (zeros may differ in sign); the two-mode
builders must also equal, bit for bit and zero signs included, the CSR sum
of ``scipy.sparse.kron`` terms they replaced (``_ref_kron_sum``).  The peak
memory of a call must be one dense result.
"""

import functools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from multiboson import evolution as ev
from multiboson import twomode as tm
from multiboson.bogoliubov import GroupElement
from multiboson.cli import main
from multiboson.rep import MultibosonRep, OneModeSector, sector_matrices

PRESETS = ("HI", "HII", "HIII", "HIV")


# ---------------------------------------------------------------------------
# dense np.kron references: the builders' expressions, term for term

def _ref_preset(name, n):
    a = np.diag(np.sqrt(np.arange(1, n, dtype=float)), 1)
    ad = a.T.copy()
    num = np.diag(np.arange(n, dtype=float))
    eye = np.eye(n)
    k = np.kron
    diag = k(num, eye) + k(eye, num) + 2.0 * k(num, num)
    sq = np.diag(np.sqrt(np.arange(n, dtype=float)))
    x = {"HI": lambda: k(a @ a, a @ a),
         "HII": lambda: k(a @ a, ad @ ad),
         "HIII": lambda: k(sq @ ad, a @ a),
         "HIV": lambda: k(sq @ ad, sq @ ad)}[name]()
    return diag + x + x.T


def _factors(reps, sector, n):
    return (sector_matrices(OneModeSector(reps.rep0, sector[0], n)),
            sector_matrices(OneModeSector(reps.rep1, sector[1], n)))


def _ref_canonical(kind, reps, sector, n):
    (a0, am, ap), (b0, bm, bp) = _factors(reps, sector, n)
    k = np.kron
    if kind == "D":
        return 0.5 * k(a0, b0) + k(ap, bm) + k(am, bp)
    return -(0.5 * k(a0, b0) + k(ap, bp) + k(am, bm))


def _ref_build_h(h, n):
    (a0, am, ap), (b0, bm, bp) = _factors(h.reps, h.sector, n)
    a, s = h.g.a, h.g.sigma
    b, t = h.h.a, h.h.sigma
    c_00 = (a * a + b * b) / (4 * a * b)
    c_pp = -s * t * (a - b) ** 2 / (4 * a * b)
    c_p0 = -s * (a * a - b * b) / (4 * a * b)
    c_0p = t * (a * a - b * b) / (4 * a * b)
    c_pm = -s * t * (a + b) ** 2 / (4 * a * b)
    k = np.kron
    return (c_00 * k(a0, b0)
            + c_pp * (k(ap, bp) + k(am, bm))
            + c_p0 * (k(ap, b0) + k(am, b0))
            + c_0p * (k(a0, bm) + k(a0, bp))
            + c_pm * (k(ap, bm) + k(am, bp)))


def _ref_kron_sum(h, n):
    """The expansion as the CSR sum of sparse Kronecker products of the
    sector matrices, skipping every term whose coefficient is zero."""
    (a0, am, ap), (b0, bm, bp) = _factors(h.reps, h.sector, n)
    a, s = h.g.a, h.g.sigma
    b, t = h.h.a, h.h.sigma
    ab4 = 4 * a * b
    terms = (((a * a + b * b) / ab4, [(a0, b0)]),
             (-s * t * (a - b) ** 2 / ab4, [(ap, bp), (am, bm)]),
             (-s * (a * a - b * b) / ab4, [(ap, b0), (am, b0)]),
             (t * (a * a - b * b) / ab4, [(a0, bm), (a0, bp)]),
             (-s * t * (a + b) ** 2 / ab4, [(ap, bm), (am, bp)]))
    k = functools.partial(sp.kron, format="csr")
    parts = [c * sum((k(x, y) for x, y in pairs[1:]), k(*pairs[0]))
             for c, pairs in terms if c != 0]
    return sum(parts[1:], parts[0])


def _assert_same(got, ref):
    assert isinstance(got, np.ndarray) and got.dtype == np.float64
    assert got.shape == ref.shape
    assert np.array_equal(got, ref)


def _random_reps(rng, l):
    return tm.TwoModeRep(MultibosonRep(l, tuple(rng.uniform(0.2, 3.0, l))),
                         MultibosonRep(l, tuple(rng.uniform(0.2, 3.0, l))))


def _random_element(rng):
    return GroupElement(float(rng.uniform(0.3, 2.5) * rng.choice((-1, 1))),
                        int(rng.choice((-1, 1))))


# ---------------------------------------------------------------------------
# bit identity

@pytest.mark.parametrize("name", PRESETS)
@pytest.mark.parametrize("n", [3, 4, 8, 33, 48])
def test_preset_matches_dense_kron(name, n):
    _assert_same(ev.preset(name, n).matrix, _ref_preset(name, n))


@pytest.mark.parametrize("l", [1, 2, 3])
def test_canonical_matrices_match_dense_kron(l):
    rng = np.random.default_rng(100 + l)
    for _ in range(3):
        reps = _random_reps(rng, l)
        sector = (int(rng.integers(l)), int(rng.integers(l)))
        n = int(rng.integers(2, 20))
        for kind in ("D", "C"):
            _assert_same(tm.canonical_matrix(kind, reps, sector, n),
                         _ref_canonical(kind, reps, sector, n))


@pytest.mark.parametrize("l", [1, 2, 3])
def test_build_h_matrix_matches_dense_kron(l):
    rng = np.random.default_rng(200 + l)
    signs = set()
    for _ in range(8):
        reps = _random_reps(rng, l)
        sector = (int(rng.integers(l)), int(rng.integers(l)))
        g, h = _random_element(rng), _random_element(rng)
        signs.update({(g.a > 0, g.sigma), (h.a > 0, h.sigma)})
        ham = tm.TwoModeHamiltonian(reps, g, h, sector)
        n = int(rng.integers(2, 16))
        _assert_same(tm.build_h_matrix(ham, n), _ref_build_h(ham, n))
    assert len(signs) == 4  # every sign of a and of sigma was drawn


def _assert_bits(got, ref):
    assert got.dtype == ref.dtype == np.float64 and got.shape == ref.shape
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))


def test_assembly_is_bit_identical_to_the_kron_sum():
    rng = np.random.default_rng(400)
    signs, equal_moduli = set(), 0
    for i in range(100):
        l = int(rng.integers(1, 4))
        reps = _random_reps(rng, l)
        sector = (int(rng.integers(l)), int(rng.integers(l)))
        g = _random_element(rng)
        # every fifth case has |a| = |b|, so some terms have coefficient 0
        h = (GroupElement(float(g.a * rng.choice((-1, 1))), int(rng.choice((-1, 1))))
             if i % 5 == 0 else _random_element(rng))
        equal_moduli += abs(g.a) == abs(h.a)
        signs.update({(g.a > 0, g.sigma), (h.a > 0, h.sigma)})
        n = int(rng.integers(2, 24))
        ham = tm.TwoModeHamiltonian(reps, g, h, sector)
        ref = _ref_kron_sum(ham, n)
        got = tm._kron_sum(ham, n)
        assert type(got) is type(ref) and got.has_canonical_format
        assert np.array_equal(got.indptr, ref.indptr)
        assert np.array_equal(got.indices, ref.indices)
        _assert_bits(got.data, ref.data)
        _assert_bits(tm.build_h_matrix(ham, n), ref.toarray())
        for kind in ("D", "C"):
            twists = tm.TwoModeHamiltonian(reps, *tm.CANONICAL_TWISTS[kind], sector)
            canonical = _ref_kron_sum(twists, n).toarray()
            _assert_bits(tm.canonical_matrix(kind, reps, sector, n), canonical)
    assert len(signs) == 4  # every sign of a and of sigma was drawn
    assert equal_moduli >= 20


# ---------------------------------------------------------------------------
# peak memory: one dense result, no n^2 x n^2 temporaries

def _peak_ratio(build):
    tracemalloc.start()
    try:
        out = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    matrix = out.matrix if isinstance(out, ev.PresetModel) else out
    assert matrix.shape == (64 ** 2, 64 ** 2)
    return peak / matrix.nbytes


@pytest.mark.parametrize("name", PRESETS)
def test_preset_peak_memory_is_one_result(name):
    # HI-HIII map onto a window of (n + 1) // 2 cluster states: the
    # matrix itself is on the full n = 64 product basis
    assert _peak_ratio(lambda: ev.preset(name, 64)) <= 1.1


@pytest.mark.parametrize("name", PRESETS)
def test_lazy_preset_matrix_peak_memory_is_one_result(name):
    # the matrix is assembled on first access, under the same bound
    assert _peak_ratio(lambda: ev.preset(name, 64).matrix) <= 1.1


@pytest.mark.parametrize("name", PRESETS)
def test_preset_mapping_allocates_no_matrix(name):
    # the dense preset at cutoff 96 takes 648 MiB; the mapping needs none of it
    tracemalloc.start()
    try:
        mapping = ev.preset(name, 96).mapping
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mapping.n_per_mode in (48, 96)
    assert peak < 5 * 2 ** 20


def test_build_h_matrix_peak_memory_is_one_result():
    reps = tm.TwoModeRep(MultibosonRep(1, (0.7,)), MultibosonRep(1, (1.9,)))
    ham = tm.TwoModeHamiltonian(reps, GroupElement(1.3, -1), GroupElement(-0.6, 1),
                                (0, 0))
    assert _peak_ratio(lambda: tm.build_h_matrix(ham, 64)) <= 1.1


# ---------------------------------------------------------------------------
# preset cutoff check

@pytest.mark.parametrize("name, minimum", [("HI", 3), ("HII", 3), ("HIII", 3),
                                           ("HIV", 2)])
def test_preset_minimum_cutoff(name, minimum):
    pm = ev.preset(name, minimum)
    assert pm.matrix.shape == (minimum ** 2, minimum ** 2)
    assert pm.mapping.n_per_mode == 2
    for n in (minimum - 1, 0, -3):
        with pytest.raises(ValueError, match=rf"preset {name} needs n_per_mode >= "
                                             rf"{minimum}, got {n}"):
            ev.preset(name, n)


def test_cli_evolve_below_minimum_cutoff(capsys):
    code = main(["evolve", "--preset", "HI", "--n-per-mode", "2", "--times", "0"])
    assert code == 2
    err = capsys.readouterr().err
    assert "preset HI needs n_per_mode >= 3, got 2" in err
