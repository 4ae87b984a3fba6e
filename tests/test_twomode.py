"""Two-mode Hamiltonian: block structure and the two canonical spectra."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from multiboson import twomode as tm
from multiboson import orthopoly as op
from multiboson.bogoliubov import GroupElement
from multiboson.errors import BoundaryAmbiguityError, NoBoundStateError
from multiboson.jacobi import JacobiOperator, oracle_eigh, oracle_eigs
from multiboson.rep import MultibosonRep


R1 = MultibosonRep(1, (1.0,))


def _two(alpha0=1.0, beta0=1.0, g=(1.0, -1), h=(1.0, 1)):
    reps = tm.TwoModeRep(MultibosonRep(1, (alpha0,)), MultibosonRep(1, (beta0,)))
    return tm.TwoModeHamiltonian(reps, GroupElement(*g), GroupElement(*h), (0, 0))


def _assert_build_h_is_canonical_at_the_twists(kind, seed):
    # random cluster sizes, alpha0 tables, sectors and cutoffs: H at the
    # table's twists is the canonical form bit for bit
    g, h = tm.CANONICAL_TWISTS[kind]
    rng = np.random.default_rng(seed)
    for _ in range(20):
        l0, l1 = (int(l) for l in rng.integers(1, 4, 2))
        reps = tm.TwoModeRep(MultibosonRep(l0, tuple(rng.uniform(0.2, 3.0, l0))),
                             MultibosonRep(l1, tuple(rng.uniform(0.2, 3.0, l1))))
        sector = (int(rng.integers(l0)), int(rng.integers(l1)))
        n = int(rng.integers(2, 24))
        m = tm.build_h_matrix(tm.TwoModeHamiltonian(reps, g, h, sector), n)
        assert np.array_equal(m, tm.canonical_matrix(kind, reps, sector, n))


def test_build_h_matrix_d_pair():
    # (1,-1), (1,1): the pair-creation coefficient vanishes and the matrix
    # is exactly the canonical D-form
    assert tm.CANONICAL_TWISTS["D"] == (GroupElement(1.0, -1), GroupElement(1.0, 1))
    _assert_build_h_is_canonical_at_the_twists("D", 21)
    assert (-1) * (1) * (1.0 - 1.0) ** 2 == 0.0


def test_build_h_matrix_c_pair():
    assert tm.CANONICAL_TWISTS["C"] == (GroupElement(1.0, -1), GroupElement(-1.0, 1))
    _assert_build_h_is_canonical_at_the_twists("C", 22)


def test_canonical_matrix_rejects_other_kinds():
    reps = tm.TwoModeRep(R1, R1)
    for kind in ("E", "d", ""):
        with pytest.raises(ValueError, match=f"kind must be 'D' or 'C', got {kind!r}"):
            tm.canonical_matrix(kind, reps, (0, 0), 4)


def test_build_h_matrix_no_mixing_when_a_equals_b():
    h = _two(g=(1.7, 1), h=(1.7, 1))
    m = tm.build_h_matrix(h, 6)
    # single-mode cluster terms A+- B0 / A0 B+- carry (a^2 - b^2) = 0:
    # entries coupling (k0, k1) -> (k0 +- 1, k1) must vanish
    for k0 in range(5):
        for k1 in range(6):
            assert m[(k0 + 1) * 6 + k1, k0 * 6 + k1] == pytest.approx(0.0, abs=1e-14)


def test_build_h_matrix_symmetric_random():
    rng = np.random.default_rng(3)
    for _ in range(5):
        g = (float(rng.uniform(0.3, 2.5) * rng.choice((-1, 1))), int(rng.choice((-1, 1))))
        h = (float(rng.uniform(0.3, 2.5) * rng.choice((-1, 1))), int(rng.choice((-1, 1))))
        m = tm.build_h_matrix(_two(0.7, 2.1, g, h), 7)
        assert np.abs(m - m.T).max() <= 1e-12


def test_manley_rowe_blocks():
    d2 = tm.DBlock(2, 1.0, 1.0)
    assert d2.basis() == [(0, 2), (1, 1), (2, 0)]
    cm1 = tm.CBlock(-1, 1.0, 1.0, n_levels=4)
    assert cm1.basis()[0] == (0, 1)
    c3 = tm.CBlock(3, 1.0, 1.0, n_levels=4)
    assert c3.basis()[2] == (5, 2)


def test_d0_block_invariance():
    # canonical forms commute with A0 +- B0 on the interior
    reps = tm.TwoModeRep(MultibosonRep(1, (0.7,)), MultibosonRep(1, (1.9,)))
    n = 10
    k0, k1 = np.divmod(np.arange(n * n), n)
    a0b0_sum = np.diag(2 * k0 + 0.7 + 2 * k1 + 1.9)
    a0b0_diff = np.diag((2 * k0 + 0.7) - (2 * k1 + 1.9))
    interior = np.flatnonzero((k0 < n - 2) & (k1 < n - 2))
    for kind, d0 in (("D", a0b0_sum), ("C", a0b0_diff)):
        m = tm.canonical_matrix(kind, reps, (0, 0), n)
        comm = m @ d0 - d0 @ m
        assert np.abs(comm[np.ix_(interior, interior)]).max() <= 1e-10


@pytest.mark.parametrize("kind", ["D", "C"])
@pytest.mark.parametrize("n", [2, 3, 7, 40])
def test_window_blocks_partition_the_window(kind, n):
    # mode 1 a two-boson cluster in its odd sector, so beta0 = 1.5
    reps = tm.TwoModeRep(MultibosonRep(1, (0.7,)), MultibosonRep(2, (0.5, 1.5)))
    m = tm.canonical_matrix(kind, reps, (0, 1), n)
    qs = np.unique(tm.charges(kind, n, np.arange(n * n))).tolist()
    assert qs == (list(range(2 * n - 1)) if kind == "D" else list(range(1 - n, n)))
    seen, sizes = [], {}
    for q in qs:
        idx, op = tm.window_block(kind, q, 0.7, 1.5, n)
        assert np.all(np.diff(idx) > 0) and op.size == idx.size
        assert np.array_equal(tm.charges(kind, n, idx), np.full(idx.size, q))
        seen.append(idx)
        sizes[q] = idx.size
        # the diagonal is the canonical matrix's bit for bit; an off-diagonal
        # entry is a square root of a product there and a product of square
        # roots here, a relative 1.5 eps apart at n 40
        block = m[np.ix_(idx, idx)]
        assert np.array_equal(np.diagonal(block), op.diag_array())
        ref = op.dense()
        assert np.array_equal(block != 0, ref != 0)
        off = ref != 0
        assert np.all(np.abs(block - ref)[off] <= 2 * np.finfo(float).eps * np.abs(ref[off]))
    together = np.concatenate(seen)
    assert np.array_equal(np.sort(together), np.arange(n * n))
    # one-state blocks at the window's corners; the D-blocks q >= n are cut
    # by the window to their last 2n - 1 - q states
    if kind == "D":
        assert sizes[0] == sizes[2 * n - 2] == 1
        assert all(sizes[q] == (q + 1 if q < n else 2 * n - 1 - q) for q in qs)
    else:
        assert sizes[n - 1] == sizes[1 - n] == 1
        assert all(sizes[q] == n - abs(q) for q in qs)


def _two_branch_hc(K, a0, b0):
    """hc_block_jacobi's streams as written before the (s0, s1) offsets,
    one branch per sign of K."""
    if K >= 0:
        return (lambda k: -0.5 * (2.0 * (K + k) + a0) * (2.0 * k + b0),
                lambda k: -np.sqrt((K + k + a0) * (K + k + 1.0) * (k + b0) * (k + 1.0)))
    return (lambda k: -0.5 * (2.0 * k + a0) * (2.0 * (k - K) + b0),
            lambda k: -np.sqrt((k + a0) * (k + 1.0) * (k - K + b0) * (k - K + 1.0)))


def _two_branch_uvw(K, a0, b0):
    """(p, q, edges) of uvw_params as written before the (s0, s1) offsets."""
    d = b0 - a0
    if K >= 0:
        return 0.5 * (d + 1.0), K + 0.5 * (1.0 - d), (-1.0, 2.0 * K + 1.0)
    return -K + 0.5 * (d + 1.0), 0.5 * (1.0 - d), (2.0 * K - 1.0, 1.0)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64).tolist()


def test_c_block_offsets_match_the_two_branch_formulas():
    rng = np.random.default_rng(26)
    k = np.arange(60, dtype=float)
    for K in range(-40, 41):
        draws = [tuple(rng.uniform(0.05, 6.0, 2)) for _ in range(3)]
        # both branch edges hit exactly
        draws += [(2.0 * max(-K, 0) + 3.0, 2.0), (0.5, 2.0 * max(K, 0) + 1.5)]
        for a0, b0 in draws:
            blk = tm.CBlock(K, a0, b0, n_levels=60)
            op = tm.hc_block_jacobi(blk)
            diag, offdiag = _two_branch_hc(K, a0, b0)
            assert _bits(op.diag_array()) == _bits(diag(k))
            assert _bits(op.offdiag_array()) == _bits(offdiag(k[:-1]))
            assert _bits([op.diag(3.0), op.offdiag(3.0)]) == _bits([diag(3.0), offdiag(3.0)])
            start = (K, 0) if K >= 0 else (0, -K)
            assert blk.basis() == [(start[0] + j, start[1] + j) for j in range(60)]
            p, q, edges = _two_branch_uvw(K, a0, b0)
            half_sum = 0.5 * (a0 + b0 - 1.0)
            triples = {"low": (p, q, half_sum), "middle": (half_sum, p, q),
                       "high": (q, half_sum, p)}
            d = b0 - a0
            if d in edges:
                with pytest.raises(BoundaryAmbiguityError) as exc:
                    tm.uvw_params(K, a0, b0)
                pair = ("low", "middle") if d == edges[0] else ("middle", "high")
                assert [(c["branch"], _bits([c["u"], c["v"], c["w"]]))
                        for c in exc.value.candidates] == [
                    (b, _bits(triples[b])) for b in pair]
                continue
            got = tm.uvw_params(K, a0, b0)
            branch = "low" if d < edges[0] else "middle" if d < edges[1] else "high"
            assert got.branch == branch
            assert _bits([got.u, got.v, got.w]) == _bits(triples[branch])


def _printed_hd_block_jacobi(blk):
    """The D-block with the erratum's (K-k+beta0) in the last off-diagonal
    factor instead of the operator's (K-k+beta0-1)."""
    a0, b0, K = blk.alpha0, blk.beta0, blk.K
    return JacobiOperator(tm.hd_block_jacobi(blk).diag,
                          lambda k: np.sqrt((k + 1.0) * (k + a0) * (K - k) * (K - k + b0)),
                          K + 1)


def test_hd_block_jacobi_conventions():
    blk = tm.DBlock(1, 1.0, 1.0)
    jop = tm.hd_block_jacobi(blk)
    assert jop.diag_array().tolist() == [1.5, 1.5]
    assert jop.offdiag_array().tolist() == [1.0]
    jpr = _printed_hd_block_jacobi(blk)
    assert jpr.offdiag_array()[0] == pytest.approx(math.sqrt(2.0))
    blk0 = tm.DBlock(0, 0.4, 2.2)
    assert tm.hd_block_jacobi(blk0).diag_array().tolist() == [0.5 * 0.4 * 2.2]


def _hd_atoms(blk):
    return tm.hd_chain(blk).atoms(blk.K + 1)


def test_hd_spectrum_small_blocks():
    assert _hd_atoms(tm.DBlock(0, 1.0, 1.0)).tolist() == [0.5]
    w = _hd_atoms(tm.DBlock(1, 1.0, 1.0))
    assert np.allclose(w, [0.5, 2.5])
    assert np.allclose(np.linalg.eigvalsh(np.array([[1.5, 1.0], [1.0, 1.5]])), w)
    w2 = _hd_atoms(tm.DBlock(1, 2.0, 1.0))
    assert np.allclose(w2, [1.0, 4.0])
    m = np.array([[3.0, math.sqrt(2.0)], [math.sqrt(2.0), 2.0]])
    assert np.allclose(np.sort(np.linalg.eigvalsh(m)), w2)


def test_hd_closed_form_vs_oracle_grid():
    for K in range(7):
        for a0 in (0.5, 1.0, 2.7):
            for b0 in (0.5, 1.0, 2.7):
                blk = tm.DBlock(K, a0, b0)
                w = oracle_eigs(tm.hd_block_jacobi(blk))
                assert np.abs(w - _hd_atoms(blk)).max() <= 1e-9


def test_hd_printed_convention_regression():
    # pinned erratum: the printed off-diagonal misses the closed-form
    # spectrum by a visible margin on the smallest nontrivial block
    blk = tm.DBlock(1, 1.0, 1.0)
    w = oracle_eigs(_printed_hd_block_jacobi(blk))
    assert np.abs(w - _hd_atoms(blk)).max() >= 0.1


def test_hd_trace_sum_rule():
    for K in range(7):
        for a0, b0 in ((0.5, 2.7), (1.0, 1.0), (2.7, 0.5)):
            blk = tm.DBlock(K, a0, b0)
            tr = tm.hd_block_jacobi(blk).diag_array().sum()
            assert tr == pytest.approx(_hd_atoms(blk).sum(), rel=1e-10)


def test_hd_eigenvectors():
    assert np.allclose(tm.hd_eigenvectors(tm.DBlock(0, 1.0, 1.0), 0), [1.0])
    blk = tm.DBlock(1, 1.0, 1.0)
    v0 = tm.hd_eigenvectors(blk, 0)
    w, vecs = oracle_eigh(tm.hd_block_jacobi(blk))
    assert abs(float(vecs[:, 0] @ v0)) >= 1.0 - 1e-12
    assert np.allclose(np.abs(v0), [1 / math.sqrt(2)] * 2)
    blk = tm.DBlock(3, 0.5, 2.7)
    w, vecs = oracle_eigh(tm.hd_block_jacobi(blk))
    for n in range(4):
        v = tm.hd_eigenvectors(blk, n)
        assert abs(float(vecs[:, n] @ v)) >= 1.0 - 1e-9
    with pytest.raises(ValueError):
        tm.hd_eigenvectors(blk, 4)


@pytest.mark.parametrize("K,a0,b0", [(4, 1.3, 0.6), (6, 0.5, 2.7)])
def test_hd_eigenvectors_match_terminating_hypergeometric(K, a0, b0):
    # independent route: components from the terminating-3F2 representation,
    #   (-1)^k sqrt((a0)_k / k! * (b0)_{K-k} / (K-k)!)
    #         * 3F2(-k, -n, n + a0 + b0 - 1; a0, -K; 1),
    # the weight consistent with the operator-derived block off-diagonal
    blk = tm.DBlock(K, a0, b0)
    for n in range(K + 1):
        raw = []
        for k in range(K + 1):
            pref = math.sqrt(
                math.exp(op.ln_pochhammer(a0, k) - gammaln(k + 1.0))
                * math.exp(op.ln_pochhammer(b0, K - k) - gammaln(K - k + 1.0)))
            raw.append((-1.0) ** k * pref * op.hyp3f2_terminating(
                k, -n, n + a0 + b0 - 1.0, a0, -float(K)))
        raw = np.array(raw)
        raw /= np.linalg.norm(raw)
        # component 0 of raw is positive, as hd_eigenvectors signs it
        assert np.abs(raw - tm.hd_eigenvectors(blk, n)).max() <= 1e-10


# residual bound of a D column against its closed-form energy, in units of
# eps ||J||: measured worst 6.7 over 400 random blocks at K <= 150 and
# blocks up to K 2000
_HD_RESIDUAL = 16.0


def _check_hd_basis_against_oracle(blk):
    # the whole block in one call; hd_eigenvectors returns its columns, the
    # oracle's signed by component 0, and each column solves J v = E_n v at
    # the closed-form energy E_n
    jop = tm.hd_block_jacobi(blk)
    v = tm.hd_chain(blk).eigenvectors(jop, blk.K + 1, blk.K + 1)
    energies = _hd_atoms(blk)
    residual = np.linalg.norm(jop.dense() @ v - v * energies, axis=0)
    assert residual.max() <= _HD_RESIDUAL * np.finfo(float).eps * np.abs(energies).max()
    assert np.abs(v.T @ v - np.eye(blk.K + 1)).max() <= 1e-13
    assert np.all(v[0] > 0)
    _, ref = oracle_eigh(jop)
    for n in {0, blk.K // 2, blk.K}:
        col = tm.hd_eigenvectors(blk, n)
        assert np.array_equal(col, v[:, n])
        assert np.array_equal(col, ref[:, n] * math.copysign(1.0, ref[0, n]))


@pytest.mark.parametrize("a0,b0", [(0.5, 0.5), (0.1, 5.0), (2.7, 1.3)])
@pytest.mark.parametrize("K", [40, 60, 100, 199])
def test_hd_eigenvectors_match_oracle_large_blocks(K, a0, b0):
    # a plain forward recurrence at the closed-form eigenvalues loses the
    # edge eigenvectors from K ~ 60 on; every column must match LAPACK
    _check_hd_basis_against_oracle(tm.DBlock(K, a0, b0))


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 150), st.floats(0.1, 5.0), st.floats(0.1, 5.0))
def test_hd_eigenvectors_match_oracle_sweep(K, a0, b0):
    _check_hd_basis_against_oracle(tm.DBlock(K, a0, b0))


def _forward_recurrence(jop, x):
    """p_0 = 1, p_{k+1} = ((x - a_k) p_k - b_{k-1} p_{k-1}) / b_k, normalized."""
    d, e = jop.diag_array(), jop.offdiag_array()
    p = np.zeros(jop.size)
    p[0] = 1.0
    p[1] = (x - d[0]) / e[0]
    for k in range(1, jop.size - 1):
        p[k + 1] = ((x - d[k]) * p[k] - e[k - 1] * p[k - 1]) / e[k]
    return p / np.linalg.norm(p)


@pytest.mark.parametrize("K,a0,b0,n_levels", [
    (0, 0.3, 0.3, 1000), (0, 0.3, 0.3, 2000), (0, 0.3, 0.3, 4000),
    (-1, 0.3, 0.3, 2000),
    # here the atom sweep's backward stabilizer would engage at k = 0
    (8, 11.0, 9.0, 1000)])
def test_hc_eigenvectors_discrete_is_forward_recurrence(K, a0, b0, n_levels):
    # the bound-state tail decays algebraically: bit for bit the plain
    # forward recurrence
    blk = tm.CBlock(K, a0, b0, n_levels=n_levels)
    p = tm.uvw_params(K, a0, b0)
    e = p.u ** 2 - tm.continuum_shift(a0, b0)
    v = tm.hc_eigenvectors_discrete(blk, 0)
    assert np.array_equal(v, _forward_recurrence(tm.hc_block_jacobi(blk), e))


def test_hc_block_jacobi():
    blk = tm.CBlock(0, 0.3, 0.3, n_levels=8)
    assert tm.hc_block_jacobi(blk).diag(0) == pytest.approx(-0.045)
    blk2 = tm.CBlock(-2, 0.7, 1.1, n_levels=8)
    j2 = tm.hc_block_jacobi(blk2)
    assert j2.diag(1) == pytest.approx(-0.5 * (2 + 0.7) * (6 + 1.1))
    assert j2.offdiag(0) == pytest.approx(
        -math.sqrt(0.7 * 1.0 * (2 + 1.1) * 3.0))


def test_uvw_params():
    p = tm.uvw_params(0, 0.3, 0.3)
    assert (p.u, p.v, p.w) == pytest.approx((-0.2, 0.5, 0.5))
    assert p.branch == "middle"
    # third branch: u = K + (alpha0 - beta0 + 1)/2
    p2 = tm.uvw_params(2, 1.0, 11.0)
    assert p2.u == pytest.approx(2 + 0.5 * (1.0 - 11.0 + 1.0))
    assert p2.branch == "high"
    # every branch returns a permutation of the same three values
    for K in (0, 1, 3):
        for a0, b0 in ((5.0, 1.0), (1.0, 2.5), (1.0, 2 * K + 4.0)):
            p = tm.uvw_params(K, a0, b0)
            vals = sorted((p.u, p.v, p.w))
            expect = sorted((0.5 * (a0 + b0 - 1), 0.5 * (b0 - a0 + 1),
                             K + 0.5 * (a0 - b0 + 1)))
            assert vals == pytest.approx(expect)
    # K < 0 mirror
    p3 = tm.uvw_params(-1, 2.0, 0.5)
    vals = sorted((p3.u, p3.v, p3.w))
    expect = sorted((0.5 * (2.0 + 0.5 - 1), 1 + 0.5 * (0.5 - 2.0 + 1),
                     0.5 * (2.0 - 0.5 + 1)))
    assert vals == pytest.approx(expect)


def test_uvw_boundary_ambiguity():
    with pytest.raises(BoundaryAmbiguityError) as exc:
        tm.uvw_params(1, 1.0, 2.0 * 1 + 1.0 + 1.0)  # d = 2K + 1 exactly
    c1, c2 = exc.value.candidates
    assert {c1["branch"], c2["branch"]} == {"middle", "high"}
    with pytest.raises(BoundaryAmbiguityError):
        tm.uvw_params(0, 2.0, 1.0)  # d = -1 exactly


def test_hc_spectrum_bound_state():
    blk = tm.CBlock(0, 0.3, 0.3, n_levels=100)
    assert tm.continuum_shift(0.3, 0.3) == pytest.approx(-0.005)
    meas = tm.hc_chain(blk).measure()
    assert meas.support == (-math.inf, pytest.approx(0.005))
    assert len(meas.locations) == 1
    assert meas.locations[0] == pytest.approx(0.045)
    # atoms always sit above the continuum edge
    assert meas.locations[0] > meas.support[1]


def test_hc_spectrum_no_atoms():
    blk = tm.CBlock(1, 1.0, 1.0, n_levels=50)
    meas = tm.hc_chain(blk).measure()
    assert meas.locations.size == meas.weights.size == 0


def test_hc_eigenvector_truncation_oracle():
    # the bound-state tail decays only algebraically, so the truncation
    # oracle converges slowly: the overlap deficit shrinks like a small
    # power of the cutoff (measured ~3.1e-3 at 4000 levels, consistent with
    # the ~1.3e-3 eigenvalue error of the same truncation)
    from scipy.linalg import eigh_tridiagonal

    def deficit(n_levels):
        blk = tm.CBlock(0, 0.3, 0.3, n_levels=n_levels)
        v = tm.hc_eigenvectors_discrete(blk, 0)
        jop = tm.hc_block_jacobi(blk)
        w, vec = eigh_tridiagonal(jop.diag_array(), jop.offdiag_array(),
                                  select="i", select_range=(n_levels - 1, n_levels - 1))
        return 1.0 - abs(float(vec[:, 0] @ v))

    d4000 = deficit(4000)
    assert d4000 <= 5e-3
    assert d4000 < deficit(2000) < deficit(1000)
    blk = tm.CBlock(0, 0.3, 0.3, n_levels=4000)
    v = tm.hc_eigenvectors_discrete(blk, 0)
    # magnitudes decay monotonically beyond some index
    mags = np.abs(v)
    assert np.all(np.diff(mags[10:500]) <= 1e-15)
    with pytest.raises(NoBoundStateError):
        tm.hc_eigenvectors_discrete(blk, 1)


def test_hc_truncation_check_richardson():
    blk = tm.CBlock(0, 0.3, 0.3, n_levels=4000)
    chk = tm.hc_truncation_check(blk)
    assert chk.n_bound == 1
    assert chk.converged and chk.agreement <= 1e-3
    assert abs(chk.extrapolated[-1] - 0.045) <= 1e-3
    assert chk.top_full[-2] < 0.005  # everything else below the continuum edge


@pytest.mark.parametrize("n_levels", [2, 3, 4, 7])
def test_hc_truncation_check_rejects_short_quarter(n_levels):
    # the default window (one bound state plus the edge) needs n_levels // 4 >= 2
    with pytest.raises(ValueError, match="n_levels // 4"):
        tm.hc_truncation_check(tm.CBlock(0, 0.3, 0.3, n_levels=n_levels))


def test_cdh_gram_for_block_parameters():
    # three parameter triples spanning the bound-state and pure-continuum regimes
    for K, a0, b0 in ((0, 0.3, 0.3), (1, 1.0, 1.0), (0, 0.5, 3.2)):
        p = tm.uvw_params(K, a0, b0)
        fam = op.ContinuousDualHahn(p.u, p.v, p.w)
        assert op.gram_check(fam, 8) <= 1e-6
