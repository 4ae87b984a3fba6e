"""Index windows of the tridiagonal oracle against the full-range solve, its
certified leading-block windows and their fallback, the in-place dense solve
against scipy.linalg.eigh's divide and conquer, and the real-arithmetic spectral
apply against the complex product it replaces."""

import dataclasses
import functools

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import eigh_tridiagonal

from multiboson import jacobi
from multiboson import onemode as om
from multiboson import rep
from multiboson import twomode as tm
from multiboson.bogoliubov import GroupElement
from multiboson.errors import NumericalFailureError, ParameterError
from multiboson.jacobi import Spectral, oracle_eigh, oracle_eigs, spectral_apply
from multiboson.orthopoly import Meixner

EPS = np.finfo(float).eps


def _operator(kind, n):
    """Operator of the given kind whose first n levels are the test matrix
    (C-blocks and one-mode sectors need at least two levels)."""
    if kind == "hc":
        return tm.hc_block_jacobi(tm.CBlock(0, 0.3, 0.3, n_levels=max(n, 2)))
    if kind == "hd":
        return tm.hd_block_jacobi(tm.DBlock(n - 1, 0.5, 0.7))
    # one-mode case 6 (mu < nu < 0): a discrete spectrum bounded above
    sector = rep.OneModeSector(rep.MultibosonRep(1, (1.0,)), 0, max(n, 2))
    return om.jacobi(om.OneModeHamiltonian(-4.0, -1.0, sector))


@functools.lru_cache(maxsize=None)
def _reference(kind, n):
    """Every eigenvalue through the full index range, and ||T||."""
    op = dataclasses.replace(_operator(kind, n), size=n)
    d, e = op.diag_array(), op.offdiag_array()
    w = eigh_tridiagonal(d, e, eigvals_only=True, select="i",
                         select_range=(0, n - 1))
    return w, np.abs(d).max() + 2.0 * np.abs(e).max(initial=0.0)


# every (count, n, kind) cell but the full range at 4000 levels: a count >= n
# ignores ``top``, so those cells made the same full-range bisection twice;
# the full range stays checked bit for bit at 250 and at both ends at 1000
WINDOW_CELLS = [(count, n, kind) for count in (1, 3, "n") for n in (1, 2, 250, 1000, 4000)
                for kind in ("hc", "hd", "onemode") if (count, n) != ("n", 4000)]


@pytest.mark.parametrize("count, n, kind", WINDOW_CELLS,
                         ids=[f"{c}-{n}-{k}" for c, n, k in WINDOW_CELLS])
def test_window_matches_full_range(kind, n, count):
    count = n if count == "n" else count
    ref, norm = _reference(kind, n)
    tol = 2.0 * EPS * norm
    # the truncation size is the operator's own
    op = dataclasses.replace(_operator(kind, n), size=n)
    k = min(count, n)
    low = oracle_eigs(op, count=count)
    high = oracle_eigs(op, count=count, top=True)
    assert low.shape == high.shape == (k,)
    assert np.abs(low - ref[:k]).max() <= tol
    assert np.abs(high - ref[n - k:]).max() <= tol


def test_full_spectrum_request_unchanged():
    # count=None keeps the full index range: bit-identical to the reference
    ref, _ = _reference("hd", 250)
    assert np.array_equal(oracle_eigs(_operator("hd", 250)), ref)
    assert np.array_equal(oracle_eigs(_operator("hd", 250), top=True), ref)


def test_hc_truncation_check_top_window_exact():
    blk = tm.CBlock(0, 0.3, 0.3, n_levels=4000)
    chk = tm.hc_truncation_check(blk)
    count = chk.top_full.size
    assert np.array_equal(chk.top_full, _reference("hc", 4000)[0][-count:])
    # the bound states, the top count - 1 levels, of the full and half windows
    chain = tm.hc_chain(blk)
    n_bound = chain.family.n_atoms()
    assert chain.pairs_top and n_bound == count - 1 >= 1
    full, half = (_reference("hc", n)[0][-n_bound:] for n in (4000, 2000))
    assert chk.agreement == np.abs(full - half).max()


def _onemode_pairing(mu, nu):
    sector = rep.OneModeSector(rep.MultibosonRep(1, (1.3,)), 0, 400)
    return om.jacobi(om.OneModeHamiltonian(mu, nu, sector)), om.classify(mu, nu, 1.3), 5


def _hd_pairing(K, a0, b0):
    blk = tm.DBlock(K, a0, b0)
    return tm.hd_block_jacobi(blk), tm.hd_chain(blk), 3


def _hc_pairing(K, a0, b0):
    blk = tm.CBlock(K, a0, b0, n_levels=1000)
    chain = tm.hc_chain(blk)
    return tm.hc_block_jacobi(blk), chain, chain.family.n_atoms()


# one-mode classes 5-9 with both signs of mu, D-blocks, and C-blocks with
# bound states on the low (u < -1 and -1 < u < 0), middle and high branches
PAIRING = {
    "onemode5": lambda: _onemode_pairing(4.0, 1.0),
    "onemode6": lambda: _onemode_pairing(-4.0, -1.0),
    "onemode7": lambda: _onemode_pairing(1.0, 4.0),
    "onemode8": lambda: _onemode_pairing(-1.0, -4.0),
    "onemode9-pos": lambda: _onemode_pairing(1.5, 1.5),
    "onemode9-neg": lambda: _onemode_pairing(-1.5, -1.5),
    "hd-K10": lambda: _hd_pairing(10, 0.5, 0.7),
    "hd-K40": lambda: _hd_pairing(40, 2.3, 0.4),
    "hc-low-two": lambda: _hc_pairing(0, 4.5, 0.5),
    "hc-low-one": lambda: _hc_pairing(1, 2.6, 0.6),
    "hc-middle": lambda: _hc_pairing(0, 0.3, 0.3),
    "hc-high": lambda: _hc_pairing(0, 0.5, 2.0),
}


@pytest.mark.parametrize("name", sorted(PAIRING))
def test_closed_form_atoms_pair_with_the_window(name):
    # the one pairing rule, Chain.pairs_top, reads the oracle window at the
    # end the atoms pair with; the tolerances are the benchmark's: 1e-9
    # relative for one-mode and D-block atoms, 0.1 for the C-block bound
    # states, whose truncations converge only algebraically
    op, chain, count = PAIRING[name]()
    atoms = chain.atoms(count)
    tol = 0.1 if name.startswith("hc") else 1e-9 * max(1.0, np.abs(atoms).max())
    w = oracle_eigs(op, count=count, top=chain.pairs_top)
    delta = np.abs(atoms - chain.pair(w, count)).max()
    assert chain.oracle_delta(op, count) == delta <= tol
    # the other end of the window misses, so a flipped rule fails here
    other = oracle_eigs(op, count=count, top=not chain.pairs_top)
    assert np.abs(np.sort(atoms) - other).max() > tol


def _whole_spectrum(op):
    """Every eigenvalue by LAPACK's root-free QR (dsterf) through scipy: the
    reference of oracle_delta's whole-spectrum route (one level is its own
    eigenvalue)."""
    d, e = op.diag_array(), op.offdiag_array()
    if op.size == 1:
        return d
    return eigh_tridiagonal(d, e, eigvals_only=True, lapack_driver="sterf")


@pytest.mark.parametrize("K", [0, 1, 7, 30])
def test_oracle_delta_defaults_to_every_level(K):
    blk = tm.DBlock(K, 0.5, 2.7)
    op, chain = tm.hd_block_jacobi(blk), tm.hd_chain(blk)
    delta = chain.oracle_delta(op)
    assert type(delta) is float
    assert delta == np.abs(chain.atoms(K + 1) - _whole_spectrum(op)).max() <= 1e-9 * (K + 3) ** 2


def test_oracle_delta_takes_a_count_past_the_size_as_every_level():
    # a count past the size asks for the whole spectrum, as oracle_eigs
    # reads it; the atoms are taken to the same count
    op = _onemode_operator(4.0, 1.0, 10)
    chain = om.classify(4.0, 1.0, 1.0)
    delta = chain.oracle_delta(op, 20)
    assert delta == chain.oracle_delta(op, 10) == chain.oracle_delta(op)
    assert delta == np.abs(chain.atoms(10) - _whole_spectrum(op)).max()


def test_oracle_delta_of_a_one_level_block_is_its_diagonal(monkeypatch):
    # K 0 is drawn by the two-d box, and dstevd refuses an empty e: the one
    # level is its own eigenvalue, with no LAPACK call
    monkeypatch.setattr(jacobi, "dstevd", None)
    monkeypatch.setattr(jacobi, "dstebz", None)
    blk = tm.DBlock(0, 1.3, 0.4)
    op, chain = tm.hd_block_jacobi(blk), tm.hd_chain(blk)
    assert chain.oracle_delta(op) == abs(chain.atoms(1)[0] - op.diag_array()[0])


def test_whole_block_delta_never_bisects(monkeypatch):
    # a whole-spectrum request is one eigenvalue-only dstevd; a window of
    # fewer levels still bisects
    def refused(*args):
        raise AssertionError("bisected")

    monkeypatch.setattr(jacobi, "_bisect", refused)
    chain, op = _hd(40, 2.3, 0.4)
    assert chain.oracle_delta(op) <= 1e-9 * 50 ** 2
    assert chain.oracle_delta(op, 41) == chain.oracle_delta(op)
    with pytest.raises(AssertionError, match="bisected"):
        chain.oracle_delta(op, 40)


def _norm(op):
    """||T|| = max |a_k| + 2 max |b_k|, the scale of the oracle's error."""
    return np.abs(op.diag_array()).max() + 2.0 * np.abs(op.offdiag_array()).max(initial=0.0)


# over the box the benchmark draws spectrum --model two-d from (K <= 200,
# alpha0 and beta0 in [0.2, 3]): measured worst 13.2 eps ||T|| over 5300
# seeded blocks (K 0 left out), 8.4 at K 2000
WHOLE_BLOCK_EPS = 16.0


def test_whole_block_delta_within_its_stated_bound():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(40):
        K = int(rng.integers(0, 201))
        a0, b0 = (float(x) for x in rng.uniform(0.2, 3.0, size=2))
        chain, op = _hd(K, a0, b0)
        worst = max(worst, chain.oracle_delta(op) / (EPS * _norm(op)))
    assert worst <= WHOLE_BLOCK_EPS
    chain, op = _hd(2000, 0.5, 2.7)
    assert chain.oracle_delta(op) <= WHOLE_BLOCK_EPS * EPS * _norm(op)


@pytest.mark.parametrize("count", [0, -1])
def test_oracle_eigs_rejects_empty_window(count):
    with pytest.raises(ValueError, match="count"):
        oracle_eigs(_operator("hd", 10), count=count)


def _onemode_operator(mu, nu, n):
    sector = rep.OneModeSector(rep.MultibosonRep(1, (1.0,)), 0, n)
    return om.jacobi(om.OneModeHamiltonian(mu, nu, sector))


# (mu, nu) of the discrete classes 5-9 at alpha0 1: classes 5-8 share |a_k|
# and |b_k| with the class-6 operator of _operator("onemode", n), so its
# full-range reference serves all four (negated and reversed for 5 and 7);
# class 9 is diagonal, its eigenvalues exactly its sorted diagonal
DISCRETE = {"class5": (4.0, 1.0), "class6": (-4.0, -1.0), "class7": (1.0, 4.0),
            "class8": (-1.0, -4.0), "class9-pos": (1.5, 1.5), "class9-neg": (-1.5, -1.5)}


@pytest.mark.parametrize("name", sorted(DISCRETE))
@pytest.mark.parametrize("top", [False, True], ids=["bottom", "top"])
@pytest.mark.parametrize("n", [8, 64, 150, 299, 300, 1000, 4000])
def test_certified_windows_match_full_range(name, top, n):
    # the pairing end of classes 5-8 takes the certified windows from 1000
    # levels on (and may below), the far end and class 9 the index window;
    # both are held to full-range bisection at the bound of
    # test_window_matches_full_range
    mu, nu = DISCRETE[name]
    op = _onemode_operator(mu, nu, n)
    d, e = op.diag_array(), op.offdiag_array()
    if name.startswith("class9"):
        ref, norm = np.sort(d), np.abs(d).max()
    else:
        ref, norm = _reference("onemode", n)
        if name in ("class5", "class7"):
            ref = -ref[::-1]
    count = 5
    w = oracle_eigs(op, count=count, top=top)
    assert np.abs(w - (ref[n - count:] if top else ref[:count])).max() <= 2.0 * EPS * norm
    seeded = jacobi._certified_windows(d, e, count, top) is not None
    pairing = not name.startswith("class9") and top == om.classify(mu, nu, 1.0).pairs_top
    assert seeded == pairing or (pairing and n < 1000)


def _solves(monkeypatch):
    """Record the (d, e) of every dstebz call the certificate makes."""
    calls, dstebz = [], jacobi.dstebz

    def recorded(d, e, *args):
        calls.append((d.copy(), e.copy()))
        return dstebz(d, e, *args)

    monkeypatch.setattr(jacobi, "dstebz", recorded)
    return calls


@pytest.mark.parametrize("name", ["class5", "class6"])
def test_certificate_miss_falls_back_to_the_index_window(monkeypatch, name):
    # the leading block's window shifted by ten ABSTOLs disagrees with the
    # moved block's: the certificate refuses it and the one index-window
    # call answers
    mu, nu = DISCRETE[name]
    op = _onemode_operator(mu, nu, 1000)
    top = om.classify(mu, nu, 1.0).pairs_top
    d, e = op.diag_array(), op.offdiag_array()
    lo = 995 if top else 0
    index = eigh_tridiagonal(d, e, eigvals_only=True, select="i", select_range=(lo, lo + 4))
    abstol = EPS * (np.abs(d) + np.abs(np.r_[0.0, e]) + np.abs(np.r_[e, 0.0])).max()
    dstebz, moved = jacobi.dstebz, []

    def shifted(*args):
        found, w, *rest = dstebz(*args)
        moved.append(not moved)
        return (found, w + 10.0 * abstol * moved[-1], *rest)

    monkeypatch.setattr(jacobi, "dstebz", shifted)
    assert np.array_equal(oracle_eigs(op, count=5, top=top), index)
    # two leading-block solves, then the index window
    assert moved == [True, False, False]


@pytest.mark.parametrize("name", sorted(DISCRETE))
@pytest.mark.parametrize("n", range(2, 8))
def test_small_truncations_take_the_index_window(name, n):
    # below 8 levels no window has count < n // 4, so every request declines
    # the certificate in O(1) and makes the one index-window call, bit for bit
    op = _onemode_operator(*DISCRETE[name], n)
    d, e = op.diag_array(), op.offdiag_array()
    for count in range(1, n + 1):
        for top in (False, True):
            lo = n - count if top else 0
            ref = eigh_tridiagonal(d, e, eigvals_only=True, select="i",
                                   select_range=(lo, lo + count - 1))
            assert jacobi._certified_windows(d, e, count, top) is None
            assert np.array_equal(oracle_eigs(op, count=count, top=top), ref)


@pytest.mark.parametrize("kind", ["index", "full"])
@pytest.mark.parametrize("fault", ["info", "short"])
def test_failed_bisection_raises(monkeypatch, kind, fault):
    # a nonzero info or fewer eigenvalues than asked is a typed failure, on
    # the index window (a D-block declines the certificate) and the full range
    op = _operator("hd", 40)
    w = np.zeros(40)
    found, info = (5, 2) if fault == "info" else (4, 0)
    monkeypatch.setattr(jacobi, "dstebz", lambda *args: (found, w, w, w, info))
    with pytest.raises(NumericalFailureError, match="bisection failed"):
        oracle_eigs(op, count=5 if kind == "index" else None)


def test_failed_eigh_raises(monkeypatch):
    w = np.zeros(7)
    monkeypatch.setattr(jacobi, "dstevd", lambda d, e, compute_v: (w, np.eye(7), 3))
    with pytest.raises(NumericalFailureError, match="dstevd info 3"):
        oracle_eigh(_operator("hd", 7))


def test_failed_whole_spectrum_raises(monkeypatch):
    # the eigenvalue-only call reports a failure as the eigendecomposition does
    calls = []
    monkeypatch.setattr(jacobi, "dstevd",
                        lambda d, e, compute_v: calls.append(compute_v) or (d, d[:1], 2))
    chain, op = _hd(6, 0.5, 0.7)
    with pytest.raises(NumericalFailureError, match="dstevd info 2"):
        chain.oracle_delta(op)
    assert calls == [0]


@pytest.mark.parametrize("fault", ["info", "short"])
@pytest.mark.parametrize("solve", [0, 1])
def test_failed_certificate_solve_falls_back_to_the_index_window(monkeypatch, fault, solve):
    # either leading-block solve failing declines the certificate, and the
    # index window answers bit for bit
    op = _onemode_operator(-4.0, -1.0, 1000)
    d, e = op.diag_array(), op.offdiag_array()
    assert jacobi._certified_windows(d, e, 5, True) is not None
    index = eigh_tridiagonal(d, e, eigvals_only=True, select="i", select_range=(995, 999))
    dstebz, calls = jacobi.dstebz, []

    def failing(*args):
        found, w, iblock, isplit, info = dstebz(*args)
        calls.append(args[0].size)
        if len(calls) == solve + 1:
            found, info = (found, 1) if fault == "info" else (found - 1, 0)
        return found, w, iblock, isplit, info

    monkeypatch.setattr(jacobi, "dstebz", failing)
    assert np.array_equal(oracle_eigs(op, count=5, top=True), index)
    assert calls[-1] == 1000 and all(size < 250 for size in calls[:-1])


def _discrete_draw(rng, cls):
    """(mu, nu, alpha0) of one-mode class 5-8, magnitudes as the spectra
    workload draws them."""
    a, b = np.sort(rng.uniform(0.5, 4.0, size=2))
    mu, nu = {5: (b, a), 6: (-b, -a), 7: (a, b), 8: (-a, -b)}[cls]
    return float(mu), float(nu), float(rng.uniform(0.3, 3.0))


@pytest.mark.parametrize("cls", [5, 6, 7, 8])
@pytest.mark.parametrize("top", [False, True], ids=["bottom", "top"])
def test_leading_block_encloses_the_window(monkeypatch, cls, top):
    # lambda_i(T_m - tau E) <= lambda_i(T) <= lambda_i(T_m) at every window
    # index, each side within the bisection bound of
    # test_window_matches_full_range (lambda_i(T) from the whole matrix's
    # index window, as bisection over the full range costs seconds at 2000
    # levels); the far end declines before any solve
    rng = np.random.default_rng([cls, top])
    calls = _solves(monkeypatch)
    for _ in range(3):
        mu, nu, alpha0 = _discrete_draw(rng, cls)
        n, count = int(rng.integers(300, 2001)), int(rng.integers(1, 9))
        sector = rep.OneModeSector(rep.MultibosonRep(1, (alpha0,)), 0, n)
        op = om.jacobi(om.OneModeHamiltonian(mu, nu, sector))
        d, e = op.diag_array(), op.offdiag_array()
        calls.clear()
        w = jacobi._certified_windows(d, e, count, top)
        if top != om.classify(mu, nu, alpha0).pairs_top:
            assert w is None and not calls
            continue
        assert w is not None and len(calls) == 2
        (block, eb), (moved, _) = calls
        m = block.size
        assert 0 < m <= n // 4 and np.array_equal(block[:-1], moved[:-1])
        assert (moved[-1] < block[-1]) != top
        lo = m - count if top else 0
        full = eigh_tridiagonal(d, e, eigvals_only=True, select="i",
                                select_range=(n - count, n - 1) if top else (0, count - 1))
        upper, lower = (eigh_tridiagonal(b, eb, eigvals_only=True, select="i",
                                         select_range=(lo, lo + count - 1))
                        for b in ((moved, block) if top else (block, moved)))
        tol = 2.0 * EPS * (np.abs(d).max() + 2.0 * np.abs(e).max())
        assert np.all(lower - tol <= full) and np.all(full <= upper + tol)
        assert np.abs(w - full).max() <= tol


def test_non_dominant_row_past_a_quarter_declines():
    # one row at n/2 pulled into the window's range: the decay that the
    # leading block needs would start past n/4, so the index window answers
    op = _onemode_operator(-4.0, -1.0, 1000)
    d, e = op.diag_array(), op.offdiag_array()
    assert jacobi._certified_windows(d, e, 5, True) is not None
    d[500] = d[:5].max()
    assert jacobi._certified_windows(d, e, 5, True) is None
    bad = jacobi.JacobiOperator(lambda k: d[k.astype(int)], op.offdiag, 1000)
    ref = eigh_tridiagonal(d, e, eigvals_only=True, select="i", select_range=(995, 999))
    assert np.array_equal(oracle_eigs(bad, count=5, top=True), ref)


@pytest.mark.parametrize("value", [np.inf, np.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("row", [3, 350], ids=["head", "tail"])
@pytest.mark.parametrize("which", ["diag", "offdiag"])
@pytest.mark.parametrize("solve", ["window", "full", "eigh", "delta"])
def test_non_finite_coefficients_raise_before_any_solve(value, row, which, solve):
    # a leading-block solve would not read a tail row: every entry is
    # checked first, with no RuntimeWarning on the way (pyproject makes
    # RuntimeWarning an error)
    op = _onemode_operator(-4.0, -1.0, 400)
    stream = getattr(op, which)
    bad = dataclasses.replace(op, **{which: lambda k: np.where(k == row, value, stream(k))})
    call = {"window": lambda: oracle_eigs(bad, count=5, top=True),
            "full": lambda: oracle_eigs(bad),
            "eigh": lambda: oracle_eigh(bad),
            "delta": lambda: om.classify(-4.0, -1.0, 1.0).oracle_delta(bad)}[solve]
    with pytest.raises(ParameterError, match=f"{which} coefficient {row} ") as info:
        call()
    assert info.value.names == ("diag", "offdiag")


# generic two-mode interactions: twists of both signs, cluster sizes 1 and 2
DENSE_CASES = {
    "l1": (tm.TwoModeRep(rep.MultibosonRep(1, (0.7,)), rep.MultibosonRep(1, (1.3,))),
           GroupElement(1.3, -1), GroupElement(-0.6, 1), (0, 0)),
    "l2": (tm.TwoModeRep(rep.MultibosonRep(2, (0.5, 1.5)), rep.MultibosonRep(2, (0.4, 2.1))),
           GroupElement(-2.0, 1), GroupElement(0.8, -1), (1, 0)),
    "mixed": (tm.TwoModeRep(rep.MultibosonRep(1, (0.7,)), rep.MultibosonRep(2, (0.5, 1.5))),
              GroupElement(0.5, 1), GroupElement(1.7, 1), (0, 1)),
}


@pytest.mark.parametrize("case", sorted(DENSE_CASES))
@pytest.mark.parametrize("n", [4, 9, 16, 24])
def test_dense_eigh_is_scipy_evd_in_place(case, n):
    # the same LAPACK routine on the same triangle (the matrix is exactly
    # symmetric), so the same bits; the eigenvectors overwrite the input
    m = tm.build_h_matrix(tm.TwoModeHamiltonian(*DENSE_CASES[case]), n)
    w_ref, v_ref = scipy.linalg.eigh(m, driver="evd")
    w, v = jacobi.dense_eigh(m)
    assert np.shares_memory(v, m)
    assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)


def test_dense_eigh_failure_is_typed(monkeypatch):
    monkeypatch.setattr(jacobi, "dsyevd", lambda a, **kwargs: (np.zeros(a.shape[0]), a, 2))
    with pytest.raises(NumericalFailureError, match="dsyevd info 2"):
        jacobi.dense_eigh(np.eye(3))


@pytest.mark.parametrize("kind", ["hc", "onemode"])
@pytest.mark.parametrize("n", [50, 400])
@pytest.mark.parametrize("t", [0.7, np.linspace(-1.0, 3.0, 9)], ids=["scalar", "grid"])
def test_spectral_apply_matches_complex_product(kind, n, t):
    # the complex-by-real products the real-arithmetic helpers replace, at a
    # psi with a nonzero imaginary part; measured worst 0.78 eps |psi|
    w, v = oracle_eigh(_operator(kind, n))
    rng = np.random.default_rng(n)
    psi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    spec = Spectral.project(w, v, psi)
    tol = 4 * EPS * np.linalg.norm(psi)
    assert np.abs(spec.coeffs - v.T @ psi).max() <= tol
    ref = (np.exp(-1j * np.multiply.outer(t, w)) * (v.T @ psi)) @ v.T
    got = spectral_apply(spec, t)
    assert got.shape == np.shape(t) + (n,)
    assert np.abs(got - ref).max() <= tol


def _onemode_chain(mu, nu, n, alpha0=1.0):
    """(chain, operator) of the one-mode H at (mu, nu) on an n-level sector."""
    sector = rep.OneModeSector(rep.MultibosonRep(1, (alpha0,)), 0, n)
    return om.classify(mu, nu, alpha0), om.jacobi(om.OneModeHamiltonian(mu, nu, sector))


def _hd(K, a0, b0):
    blk = tm.DBlock(K, a0, b0)
    return tm.hd_chain(blk), tm.hd_block_jacobi(blk)


def _hc(K, a0, b0, n):
    blk = tm.CBlock(K, a0, b0, n_levels=n)
    return tm.hc_chain(blk), tm.hc_block_jacobi(blk)


# requests Chain.eigenvectors cannot serve: (chain and operator, n_rows, n_cols)
REFUSED = {
    **{f"continuum-class{i}": (functools.partial(_onemode_chain, mu, nu, 20), 20, 3)
       for i, (mu, nu) in enumerate([(1.0, 0.0), (0.0, 1.0), (2.0, -1.0), (-2.0, 1.0)], 1)},
    "hd-columns-past-K": (lambda: _hd(4, 1.3, 0.7), 5, 8),
    "hd-rows-past-K": (lambda: _hd(4, 1.3, 0.7), 6, 5),
    "hc-past-n-atoms": (lambda: _hc(0, 4.5, 0.5, 200), 200, 4),
    "diagonal-columns-past-rows": (lambda: _onemode_chain(2.0, 2.0, 50), 50, 60),
}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_eigenvectors_refuse_what_they_cannot_give(name):
    # a continuum chain has no atoms to expand over, a dual Hahn block has
    # K+1 columns, a C-block n_atoms bound states and a diagonal chain one
    # unit column per row: one rule refuses each, naming the block's shape,
    # not junk columns
    make, n_rows, n_cols = REFUSED[name]
    chain, op = make()
    with pytest.raises(ParameterError) as exc:
        chain.eigenvectors(op, n_rows, n_cols)
    assert exc.value.names == ("n_rows", "n_cols")


@pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 3)])
def test_atom_eigenvector_refuses_an_empty_block(shape):
    # a block with no rows or no columns is refused by name, not by an
    # IndexError from the sweep
    with pytest.raises(ParameterError) as exc:
        jacobi.atom_eigenvector(Meixner(1.0, 0.3), *shape)
    assert exc.value.names == ("n_rows", "n_cols")


# one chain of each kind Chain.eigenvectors serves: unit columns, the
# Meixner kernel, the dual Hahn oracle columns and the C-block sweep
KINDS = {
    "diagonal": lambda: _onemode_chain(2.0, 2.0, 50),
    "meixner": lambda: _onemode_chain(4.0, 1.0, 50),
    "dual-hahn": lambda: _hd(4, 1.3, 0.7),
    "continuous-dual-hahn": lambda: _hc(0, 4.5, 0.5, 200),
}


@pytest.mark.parametrize("shape", [(0, 2), (2, 0)], ids=["no-rows", "no-cols"])
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_eigenvectors_refuse_an_empty_request(monkeypatch, kind, shape):
    # one refusal naming both counts, on every chain, before any kernel runs
    def refused(*args):
        raise AssertionError("a kernel ran")

    for kernel in ("atom_eigenvector", "_stevd", "poly_table"):
        monkeypatch.setattr(jacobi, kernel, refused)
    chain, op = KINDS[kind]()
    with pytest.raises(ParameterError) as exc:
        chain.eigenvectors(op, *shape)
    assert exc.value.names == ("n_rows", "n_cols")


def _unit(v):
    return v / np.linalg.norm(v)


# one call for every column against column n of a call for n + 1 columns,
# the request made per column before the one entry point; one-mode and
# C-block columns normalized by their own norm, D-block columns as returned
SERVED = {
    **{f"onemode-class{i}": (functools.partial(_onemode_chain, mu, nu, 60), 60,
                             range(60), _unit)
       for i, (mu, nu) in zip(range(5, 10), [(4.0, 1.0), (-4.0, -1.0), (1.0, 4.0),
                                              (-1.0, -4.0), (2.0, 2.0)])},
    "onemode-class5-past-window": (lambda: _onemode_chain(2.0, 0.5, 800, 1.3), 800,
                                   range(636, 644), _unit),
    **{f"hd-K{K}-{a0}-{b0}": (functools.partial(_hd, K, a0, b0), K + 1, range(K + 1),
                              None)
       for K in range(7) for a0 in (0.5, 1.0, 2.7) for b0 in (0.5, 1.0, 2.7)},
    "hd-K300": (lambda: _hd(300, 0.5, 0.7), 301, (0, 1, 43, 150, 299, 300), None),
    "hc-low-two": (lambda: _hc(0, 4.5, 0.5, 200), 200, range(2), _unit),
    "hc-low-one": (lambda: _hc(1, 2.6, 0.6, 400), 400, range(1), _unit),
    "hc-middle": (lambda: _hc(0, 0.3, 0.3, 1000), 1000, range(1), _unit),
}


@pytest.mark.parametrize("name", sorted(SERVED))
def test_eigenvectors_columns_do_not_depend_on_n_cols(name):
    make, n_rows, cols, norm = SERVED[name]
    chain, op = make()
    norm = norm or (lambda v: v)
    every = chain.eigenvectors(op, n_rows, max(cols) + 1)
    for n in cols:
        alone = chain.eigenvectors(op, n_rows, n + 1)[:, n]
        assert np.array_equal(norm(every[:, n]), norm(alone))
