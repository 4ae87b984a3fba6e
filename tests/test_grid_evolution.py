"""Evolution of a whole time grid from one spectral solve.

``run_series`` evolves the initial state to every time of the grid at once.
It must agree with per-time ``evolve_full``, leave the blocks the state does
not occupy exactly zero, and make the same number of spectral solves for a
201-point grid as for a 3-point one: one per occupied block.
``InteractionEvolver.apply`` returns the pair (indices, amplitudes) over the
occupied blocks; tests that compare full vectors scatter it (``_dense``).
The records come from one batched ``observables`` call, which must equal
per-state calls and ``math.fsum`` references bit for bit (also on rows whose
exact sum sits at or next to a float64 tie, and with no extended type), and
never see the free phases.  The generic route (one dense eigendecomposition)
must stay unitary to roundoff and report a LAPACK failure as a typed error.
Every route of ``apply`` refuses a time whose phases overflow the same way,
naming the caller's own time.
"""

import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg

from multiboson import evolution as ev
from multiboson import jacobi
from multiboson import onemode as om
from multiboson import rep
from multiboson import twomode as tm
from multiboson.bogoliubov import GroupElement
from multiboson.errors import NumericalFailureError, ParameterError, TruncationOverflowError

R0 = rep.MultibosonRep(1, (0.7,))
R1 = rep.MultibosonRep(2, (0.5, 1.5))
REPS = tm.TwoModeRep(R0, R1)
SECTOR = (0, 1)

# one-mode (mu, nu) per case: Laguerre, Meixner-Pollaczek, Meixner, diagonal
ONEMODE = {1: (1.2, 0.0), 4: (-0.9, 1.4), 5: (2.0, 0.5), 9: (1.5, 1.5)}

# basis states (k0, k1) of the two-mode window, one to three charge blocks
# (D-charge k0 + k1, C-charge k0 - k1)
CANONICAL_STATES = {
    "D": {"basis": [(5, 9)], "superposition": [(2, 3), (4, 4), (6, 5)]},
    "C": {"basis": [(9, 5)], "superposition": [(2, 3), (4, 4), (6, 2)]},
}


def _onemode_model(case, n=120):
    mu, nu = ONEMODE[case]
    sec = rep.OneModeSector(R0, 0, n)
    h = om.OneModeHamiltonian(mu, nu, sec)
    assert om.classify(mu, nu, sec.alpha0).index == case
    return ev.FullModel(h, (0.8,), tail_tol=math.inf)


def _canonical_model(kind, n=24):
    h = ev.CanonicalInteraction(kind, REPS, SECTOR, n, scale=1.3, offset=-0.4)
    return ev.FullModel(h, (1.0, 0.7), tail_tol=math.inf)


def _generic_model(n=8):
    h = tm.TwoModeHamiltonian(REPS, GroupElement(1.3, -1), GroupElement(-0.6, 1), SECTOR)
    return ev.FullModel(h, (1.0, 0.7), tail_tol=math.inf, n_per_mode=n)


def _state(model, cells):
    """Normalized superposition of the basis states (k0[, k1]) of the window."""
    amps = sum((0.6 + 0.3j * i) * ev.basis_state(model, _occupation(c))
               for i, c in enumerate(cells))
    return amps / np.linalg.norm(amps)


def _occupation(cell):
    """Occupation numbers of the window cell (k0[, k1])."""
    if len(cell) == 1:
        return cell
    return (cell[0] * R0.l + SECTOR[0], cell[1] * R1.l + SECTOR[1])


def _cases():
    out = [(f"onemode{c}", lambda c=c: (_onemode_model(c), [(3,)])) for c in ONEMODE]
    for kind, starts in CANONICAL_STATES.items():
        for which, cells in starts.items():
            out.append((f"canonical{kind}-{which}",
                        lambda kind=kind, cells=cells: (_canonical_model(kind), cells)))
    out.append(("generic", lambda: (_generic_model(), [(2, 1)])))
    return out


CASES = _cases()
IDS = [name for name, _ in CASES]


def _dense(pair, dim):
    """Scatter the (indices, amplitudes) pair of ``InteractionEvolver.apply``
    into full state vectors over the dim-position basis."""
    indices, amps = pair
    out = np.zeros(amps.shape[:-1] + (dim,), dtype=complex)
    out[..., indices] = amps
    return out


@pytest.mark.parametrize("name, make", CASES, ids=IDS)
def test_run_series_matches_per_time_evolve_full(name, make):
    model, cells = make()
    psi0 = _state(model, cells)
    times = np.linspace(0.0, 1.5, 7)
    series = ev.run_series(model, psi0, times)
    assert series.times == times.tolist()
    for t, rec, err in zip(times, series.records, series.norm_errors):
        ref = ev.observables(ev.evolve_full(model, psi0, t), model)
        for got, want in ((rec.means, ref.means), (rec.variances, ref.variances)):
            assert np.abs(np.subtract(got, want)).max() <= 1e-12 * max(1.0, max(want))
        assert abs(err - abs(ref.norm - 1.0)) <= 1e-12


@pytest.mark.parametrize("name, make", CASES, ids=IDS)
def test_grid_apply_matches_scalar_apply(name, make):
    model, cells = make()
    psi0 = _state(model, cells)
    evolver = ev.InteractionEvolver(model)
    times = np.array([0.0, 0.4, -1.1, 2.0])
    grid = _dense(evolver.apply(psi0, times), psi0.size)
    assert grid.shape == (times.size, psi0.size)
    for t, row in zip(times, grid):
        single = _dense(evolver.apply(psi0, t), psi0.size)
        assert single.shape == psi0.shape
        assert np.abs(single - row).max() <= 1e-12
        assert abs(np.linalg.norm(row) - 1.0) <= 1e-10


def _occupied(kind, n, cells):
    """Mask over the n^2 window of the charge blocks of the given cells."""
    k0, k1 = np.divmod(np.arange(n * n), n)
    charge = k0 + k1 if kind == "D" else k0 - k1
    return np.isin(charge, [c[0] + c[1] if kind == "D" else c[0] - c[1] for c in cells])


@pytest.mark.parametrize("kind", ["D", "C"])
@pytest.mark.parametrize("which", ["basis", "superposition"])
def test_unoccupied_blocks_stay_exactly_zero(kind, which):
    model = _canonical_model(kind)
    n = model.interaction.n_per_mode
    cells = CANONICAL_STATES[kind][which]
    psi0 = _state(model, cells)
    occupied = _occupied(kind, n, cells)
    grid = _dense(ev.InteractionEvolver(model).apply(psi0, np.linspace(0.0, 3.0, 11)),
                  n * n)
    assert np.all(grid[:, ~occupied] == 0.0)
    assert np.all(np.abs(grid[1:, occupied]).sum(axis=1) > 0.0)


@pytest.mark.parametrize("kind", ["D", "C"])
@pytest.mark.parametrize("which", ["basis", "superposition"])
def test_apply_returns_the_occupied_block_positions(kind, which):
    model = _canonical_model(kind)
    n = model.interaction.n_per_mode
    cells = CANONICAL_STATES[kind][which]
    psi0 = _state(model, cells)
    occupied = _occupied(kind, n, cells)
    evolver = ev.InteractionEvolver(model)
    indices, amps = evolver.apply(psi0, np.linspace(0.0, 3.0, 11))
    # block by block in ascending charge, ascending within each block
    step = np.diff(tm.charges(kind, n, indices))
    assert np.all(step >= 0) and np.all(np.diff(indices)[step == 0] > 0)
    assert np.array_equal(np.sort(indices), np.flatnonzero(occupied))
    assert amps.shape == (11, indices.size)
    one, amp = evolver.apply(psi0, 0.5)
    assert np.array_equal(one, indices) and amp.shape == (indices.size,)


def test_relative_block_phases_keep_a_conserved_charge_raiser():
    # A+ x 1 - 1 x A+ commutes with the D-form and maps charge q to q + 1, so
    # its expectation pairs neighbouring blocks and is constant only if every
    # block carries its true energy: +0.1 on the odd-charge energies moves it
    # by 8e-4 to 2e-2, while A+ x 1 + 1 x A+ moves by 0.16 to 0.78 anyway
    n = 30
    r0, r1 = rep.MultibosonRep(1, (1.3,)), rep.MultibosonRep(1, (0.7,))
    h = ev.CanonicalInteraction("D", tm.TwoModeRep(r0, r1), (0, 0), n)
    k0, k1 = np.divmod(np.arange(n * n), n)
    occupied = k0 + k1 <= 3
    rng = np.random.default_rng(3)
    psi0 = np.where(occupied, rng.normal(size=n * n) + 1j * rng.normal(size=n * n), 0.0)
    psi0 /= np.linalg.norm(psi0)
    raise0, raise1 = (rep.sector_matrices(rep.OneModeSector(r, 0, n))[2] for r in (r0, r1))
    eye = np.eye(n)
    conserved = np.kron(raise0, eye) - np.kron(eye, raise1)
    moving = np.kron(raise0, eye) + np.kron(eye, raise1)
    model = ev.FullModel(h, (1.0, 1.0), tail_tol=math.inf)
    indices, amps = ev.InteractionEvolver(model).apply(psi0, np.array([0.05, 0.2, 1.0]))
    psi = np.zeros((3, n * n), dtype=complex)
    psi[:, indices] = amps
    # rounding of unit-norm amplitudes, carried through the operator's norm
    # on the occupied positions (sqrt 20)
    bound = 16 * np.finfo(float).eps * np.linalg.norm(conserved[:, occupied], 2)
    for row in psi:
        assert abs(np.vdot(row, conserved @ row) - np.vdot(psi0, conserved @ psi0)) <= bound
        assert abs(np.vdot(row, moving @ row) - np.vdot(psi0, moving @ psi0)) > 0.1


@pytest.mark.parametrize("name, make", CASES, ids=IDS)
def test_evolution_reads_occupations_at_block_positions_only(monkeypatch, name, make):
    model, cells = make()
    psi0 = _state(model, cells)
    orig = ev.FullModel.occupations
    seen = []

    def occupations(self, positions=None):
        seen.append(positions)
        return orig(self, positions)

    monkeypatch.setattr(ev.FullModel, "occupations", occupations)
    ev.run_series(model, psi0, np.linspace(0.0, 1.0, 5))
    ev.evolve_full(model, psi0, 0.5)
    assert len(seen) == 2 and all(p is not None for p in seen)


def _count(monkeypatch, module, name):
    calls = []
    orig = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return orig(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def _solves(monkeypatch, model, psi0, points):
    """(oracle_eigh, atom_eigenvector, dense eigh) calls of one run_series."""
    with monkeypatch.context() as m:
        eigh = _count(m, ev, "oracle_eigh")
        eigh_1 = _count(m, om, "oracle_eigh")
        atoms = _count(m, jacobi, "atom_eigenvector")
        dense = _count(m, jacobi, "dsyevd")
        series = ev.run_series(model, psi0, np.linspace(0.0, 1.0, points))
    assert len(series.records) == points
    return len(eigh) + len(eigh_1), len(atoms), len(dense)


@pytest.mark.parametrize("name, make", CASES, ids=IDS)
def test_spectral_solves_do_not_grow_with_the_grid(monkeypatch, name, make):
    model, cells = make()
    psi0 = _state(model, cells)
    counts = _solves(monkeypatch, model, psi0, 3)
    assert _solves(monkeypatch, model, psi0, 201) == counts
    h = model.interaction
    if isinstance(h, om.OneModeHamiltonian):
        case = om.classify(h.mu, h.nu, h.sector.alpha0).index
        expected = {1: (1, 0, 0), 4: (1, 0, 0), 5: (0, 2, 0), 9: (0, 0, 0)}[case]
    elif isinstance(h, ev.CanonicalInteraction):
        expected = (len(cells), 0, 0)   # one oracle_eigh per occupied block
    else:
        expected = (0, 0, 1)
    assert counts == expected


@pytest.mark.parametrize("name, make, solver, n_solves", [
    ("C", lambda: (_canonical_model("C"), CANONICAL_STATES["C"]["superposition"]),
     (ev, "oracle_eigh"), 3),
    ("generic", lambda: (_generic_model(), [(2, 1)]), (jacobi, "dsyevd"), 1),
], ids=["C", "generic"])
def test_one_apply_solves_only_the_occupied_blocks(monkeypatch, name, make, solver, n_solves):
    # nothing is solved when the evolver is built, only in apply
    model, cells = make()
    psi0 = _state(model, cells)
    calls = _count(monkeypatch, *solver)
    evolver = ev.InteractionEvolver(model)
    assert calls == []
    evolver.apply(psi0, 0.7)
    assert len(calls) == n_solves


@pytest.mark.parametrize("case", sorted(ONEMODE))
def test_onemode_evolve_grid_returns_one_state_per_time(case):
    h = _onemode_model(case).interaction
    psi0 = np.eye(h.sector.n_levels)[3].astype(complex)
    times = np.array([0.0, 0.3, 0.6])
    states = om.evolve(h, psi0, times)
    assert states.shape == (times.size, psi0.size)
    for t, state in zip(times, states):
        one = om.evolve(h, psi0, float(t))
        assert one.shape == psi0.shape
        assert np.abs(state - one).max() <= 1e-12


@pytest.mark.parametrize("case", sorted(ONEMODE))
def test_onemode_apply_is_onemode_evolve(case):
    # apply's one-mode amplitudes are onemode.evolve's at the same t, bit for
    # bit: both apply exp(-i H t)
    model = _onemode_model(case)
    psi0 = _state(model, [(3,), (5,)])
    times = np.linspace(-1.0, 2.0, 7)
    indices, amps = ev.InteractionEvolver(model).apply(psi0, times)
    assert np.array_equal(indices, np.arange(psi0.size))
    assert np.array_equal(amps, om.evolve(model.interaction, psi0, times))
    _, one = ev.InteractionEvolver(model).apply(psi0, 0.4)
    assert np.array_equal(one, om.evolve(model.interaction, psi0, 0.4))


def _overflowing_hiv():
    model = ev.FullModel(ev.preset("HIV", 48).mapping, (1.0, 0.7), tail_tol=math.inf)
    return model, ev.basis_state(model, (2, 3)), 1e305


def _overflowing_generic():
    model = _generic_model(8)
    return model, _state(model, [(2, 1)]), 1e308


def _overflowing_onemode():
    model = ev.FullModel(om.OneModeHamiltonian(3.0, 1.0, rep.OneModeSector(R0, 0, 8)),
                         (0.8,), tail_tol=math.inf)
    return model, _state(model, [(3,)]), 1e308


@pytest.mark.parametrize("make", [_overflowing_hiv, _overflowing_generic, _overflowing_onemode],
                         ids=["canonical", "generic", "onemode"])
def test_apply_refuses_an_overflowing_time_on_every_route(make):
    # a direct apply call, not through run_series or evolve_full: the canonical
    # and generic routes returned NaN rows with overflow warnings, and the
    # one-mode route named the negated time
    model, psi0, t = make()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ParameterError, match=re.escape(f"t = {t} ")) as exc:
            ev.InteractionEvolver(model).apply(psi0, [0.0, t])
    assert exc.value.names == ("t",) and exc.value.row == 1


def test_onemode_evolve_grid_raises_at_the_first_overflowing_time():
    # the one tail monitor: run_series on a one-mode model, omega 0
    sec = rep.OneModeSector(R0, 0, 30)
    model = ev.FullModel(om.OneModeHamiltonian(1.0, 0.0, sec), (0.0,), tail_tol=1e-8)
    psi0 = ev.basis_state(model, (0,))
    with pytest.raises(TruncationOverflowError, match="at t = 50.0"):
        ev.run_series(model, psi0, np.array([0.0, 0.1, 50.0]))
    assert len(ev.run_series(model, psi0, np.array([0.0, 0.1])).records) == 2


@pytest.mark.parametrize("l", [1, 2])
def test_build_h_matrix_exactly_symmetric(l):
    # the generic route hands the matrix to a symmetric eigensolver, which
    # reads one triangle only
    rng = np.random.default_rng(300 + l)
    signs = set()
    for _ in range(10):
        reps = tm.TwoModeRep(rep.MultibosonRep(l, tuple(rng.uniform(0.2, 3.0, l))),
                             rep.MultibosonRep(l, tuple(rng.uniform(0.2, 3.0, l))))
        g, h = (GroupElement(float(rng.uniform(0.3, 2.5) * rng.choice((-1, 1))),
                             int(rng.choice((-1, 1)))) for _ in range(2))
        signs.update({(g.a > 0, g.sigma), (h.a > 0, h.sigma)})
        sector = (int(rng.integers(l)), int(rng.integers(l)))
        m = tm.build_h_matrix(tm.TwoModeHamiltonian(reps, g, h, sector),
                              int(rng.integers(2, 14)))
        assert np.array_equal(m, m.T)
    assert len(signs) == 4  # every sign of a and of sigma was drawn


@pytest.mark.parametrize("t", [0.3, 1.7, -2.4])
def test_generic_evolve_full_matches_expm(t):
    model = _generic_model()
    psi0 = _state(model, [(2, 1), (0, 3)])
    out = ev.evolve_full(model, psi0, t)
    h = tm.build_h_matrix(model.interaction, model.n_per_mode)
    total = sum(w * n for w, n in zip(model.omega, model.occupations()))
    ref = np.exp(-1j * t * total) * (scipy.linalg.expm(-1j * t * h) @ psi0)
    assert np.abs(out - ref).max() <= 1e-12


def test_time_grid_must_be_one_dimensional():
    model = _canonical_model("D")
    psi0 = _state(model, [(1, 1)])
    with pytest.raises(ValueError):
        ev.InteractionEvolver(model).apply(psi0, np.zeros((2, 2)))


def _records_equal(a, b):
    return all(np.array_equal(getattr(a, f), getattr(b, f), equal_nan=True)
               for f in ("means", "variances", "fanos", "norm"))


@pytest.mark.parametrize("name, make", CASES, ids=IDS)
def test_batched_observables_equal_per_state_observables(name, make):
    model, cells = make()
    psi0 = _state(model, cells)
    pair = ev.InteractionEvolver(model).apply(psi0, np.linspace(0.0, 1.5, 7))
    records = ev.observables(pair, model)
    grid = _dense(pair, psi0.size)
    assert len(records) == len(grid)
    for row, rec in zip(grid, records):
        assert _records_equal(rec, ev.observables(row, model))


def test_observables_rejects_a_dense_grid():
    # a dense (n_times, dim) array is not a pair: its two rows must not be
    # read as (indices, amplitudes), and it is not a 1-d state either
    model = _canonical_model("D")
    grid = np.ones((2, 24 * 24), dtype=complex)
    with pytest.raises(ParameterError) as exc:
        ev.observables(grid, model)
    assert exc.value.names == ("psi",)


@pytest.mark.parametrize("name, make", CASES, ids=IDS)
def test_run_series_does_not_see_the_free_phases(name, make):
    model, cells = make()
    psi0 = _state(model, cells)
    times = np.linspace(0.0, 1.5, 7)
    free = dataclasses.replace(model, omega=(0.0,) * len(model.omega))
    a, b = ev.run_series(model, psi0, times), ev.run_series(free, psi0, times)
    assert a.norm_errors == b.norm_errors
    assert all(_records_equal(x, y) for x, y in zip(a.records, b.records))


@pytest.mark.parametrize("name, make", CASES, ids=IDS)
def test_run_series_matches_exact_sums_over_the_full_basis(name, make):
    model, cells = make()
    psi0 = _state(model, cells)
    times = np.linspace(0.0, 1.5, 7)
    series = ev.run_series(model, psi0, times)
    grid = _dense(ev.InteractionEvolver(model).apply(psi0 / np.linalg.norm(psi0), times),
                  psi0.size)
    occs = [occ.astype(float) for occ in model.occupations()]
    for row, rec in zip(np.abs(grid) ** 2, series.records):
        total = math.fsum(row.tolist())
        assert rec.norm == math.sqrt(total)
        assert rec.means == tuple(math.fsum((row * n).tolist()) / total for n in occs)


# rows whose exact sum is a float64 tie, or lies just past one: an extended
# sum rounded to float64 gets the second row wrong (1.0 for 1 + 2^-52)
TIE_ROWS = [[1.0, 2.0**-53, 0.0], [1.0, 2.0**-53, 2.0**-120], [1.0, 2.0**-52, 2.0**-53]]


@pytest.mark.parametrize("wide", [np.longdouble, np.float64])
def test_exact_sums_round_ties_like_fsum(monkeypatch, wide):
    monkeypatch.setattr(ev, "_WIDE", wide)
    rows = np.array(TIE_ROWS)
    got = ev._exact_sums(rows)
    assert got.tolist() == [math.fsum(row) for row in TIE_ROWS]
    assert float(np.longdouble(1.0) + 2.0**-53 + 2.0**-120) != got[1]


@pytest.mark.parametrize("wide", [np.longdouble, np.float64])
def test_observables_on_a_tie_equal_fsum(monkeypatch, wide):
    monkeypatch.setattr(ev, "_WIDE", wide)
    model = _onemode_model(5)
    amps = np.zeros(120, dtype=complex)
    amps[:4] = [1.0, 2.0**-27, 2.0**-27, 2.0**-60]
    p = (np.abs(amps) ** 2)[:4].tolist()      # 1, 2^-54, 2^-54, 2^-120
    total = math.fsum(p)
    assert total == 1.0 + 2.0**-52
    n = model.occupations(np.arange(4))[0].astype(float).tolist()
    rec = ev.observables(amps, model)
    assert rec.norm == math.sqrt(total)
    assert rec.means == (math.fsum(x * k for x, k in zip(p, n)) / total,)


@pytest.mark.parametrize("name, make", CASES, ids=IDS)
def test_records_without_extended_precision_equal_fsum(monkeypatch, name, make):
    # with float64 as the wide type no certificate holds on a row of more
    # than one term, so every sum is math.fsum's; the records must not move
    model, cells = make()
    psi0 = _state(model, cells)
    times = np.linspace(0.0, 1.5, 7)
    series = ev.run_series(model, psi0, times)
    monkeypatch.setattr(ev, "_WIDE", np.float64)
    narrow = ev.run_series(model, psi0, times)
    assert all(_records_equal(a, b) for a, b in zip(series.records, narrow.records))
    grid = _dense(ev.InteractionEvolver(model).apply(psi0 / np.linalg.norm(psi0), times),
                  psi0.size)
    occs = [occ.astype(float) for occ in model.occupations()]
    for row, rec in zip(np.abs(grid) ** 2, narrow.records):
        total = math.fsum(row.tolist())
        assert rec.norm == math.sqrt(total)
        means = [math.fsum((row * n).tolist()) / total for n in occs]
        assert rec.means == tuple(means)
        assert rec.variances == tuple(
            max(math.fsum((row * (n * n)).tolist()) / total - m * m, 0.0)
            for n, m in zip(occs, means))


@pytest.mark.parametrize("name, make", CASES, ids=IDS)
@pytest.mark.parametrize("points", [3, 201])
def test_run_series_takes_the_occupations_once(monkeypatch, name, make, points):
    model, cells = make()
    psi0 = _state(model, cells)
    calls = _count(monkeypatch, ev.FullModel, "occupations")
    series = ev.run_series(model, psi0, np.linspace(0.0, 1.0, points))
    assert len(series.records) == points
    assert len(calls) == 1


@pytest.mark.parametrize("kind, cell", [("D", (150, 200)), ("C", (250, 100))])
def test_canonical_run_series_at_n_per_mode_400(kind, cell):
    r = rep.MultibosonRep(1, (1.0,))
    h = ev.CanonicalInteraction(kind, tm.TwoModeRep(r, r), (0, 0), 400,
                                scale=0.8, offset=0.3)
    model = ev.FullModel(h, (1.0, 0.7), tail_tol=math.inf)
    q = cell[0] + cell[1] if kind == "D" else cell[0] - cell[1]
    series = ev.run_series(model, ev.basis_state(model, cell), np.linspace(0.0, 2.0, 21))
    assert max(series.norm_errors) <= 1e-10
    sign = 1.0 if kind == "D" else -1.0
    drift = max(abs(m0 + sign * m1 - q) for m0, m1 in (rec.means for rec in series.records))
    assert drift <= 1e-8 * q


@pytest.mark.parametrize("kind, cell", [("D", (1000, 999)), ("C", (1000, 1000))])
def test_canonical_run_series_memory_at_n_per_mode_2000(kind, cell):
    # one block of 2000 states out of 4e6: a dense (201, n^2) grid would be
    # 12.9 GB.  Measured peak 61.2 MiB for either kind (numpy 2.4, scipy
    # 1.17, x86_64): the 32 MB block eigenvectors with the eigensolver's
    # workspace, and the (201, 2000) amplitudes; the grid product is real
    # arithmetic against the eigenvectors, which are never copied.  psi0
    # itself (64 MB) is built before tracing starts.
    r = rep.MultibosonRep(1, (1.0,))
    h = ev.CanonicalInteraction(kind, tm.TwoModeRep(r, r), (0, 0), 2000,
                                scale=0.8, offset=0.3)
    model = ev.FullModel(h, (1.0, 0.7), tail_tol=math.inf)
    psi0 = ev.basis_state(model, cell)
    tracemalloc.start()
    try:
        series = ev.run_series(model, psi0, np.linspace(0.0, 2.0, 201))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 80 * 2**20
    assert len(series.records) == 201
    assert max(series.norm_errors) <= 1e-10
    q = cell[0] + cell[1] if kind == "D" else cell[0] - cell[1]
    sign = 1.0 if kind == "D" else -1.0
    drift = max(abs(m0 + sign * m1 - q) for m0, m1 in (rec.means for rec in series.records))
    assert drift <= 1e-8 * max(q, 1)


def test_onemode_continuous_run_series_memory():
    # case 3 at N 800: the LAPACK eigenvectors (5.1 MB) and the eigensolver's
    # n^2 workspace bound the peak, measured 9.85 MiB (numpy 2.4, scipy 1.17,
    # x86_64); a complex copy of the eigenvectors would add 10.2 MB
    sec = rep.OneModeSector(R0, 0, 800)
    model = ev.FullModel(om.OneModeHamiltonian(1.0, -0.6, sec), (1.0,), tail_tol=math.inf)
    assert om.classify(1.0, -0.6, sec.alpha0).index == 3
    psi0 = ev.basis_state(model, (3,))
    tracemalloc.start()
    try:
        series = ev.run_series(model, psi0, np.linspace(0.0, 2.0, 21))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 11 * 2**20
    assert len(series.records) == 21
    assert max(series.norm_errors) <= 1e-10


def test_generic_run_series_memory_at_n_per_mode_40():
    # the 1600 x 1600 matrix (19.5 MiB) is solved in place: its eigenvectors
    # take its buffer, beside dsyevd's 2 n^2 workspace (39.1 MiB).  Measured
    # 58.7 MiB (numpy 2.4, scipy 1.17, x86_64); scipy.linalg.eigh's copy of
    # the matrix read 78.3 MiB
    model = _generic_model(40)
    psi0 = _state(model, [(2, 1)])
    tracemalloc.start()
    try:
        series = ev.run_series(model, psi0, np.linspace(0.0, 1.0, 21))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 60 * 2**20
    assert max(series.norm_errors) <= 1e-14


def _random_generic_models(rng, count):
    """(model, initial state) pairs: generic n-16 interactions with random
    twists, cluster sizes 1 or 2, and a basis state below level 8."""
    out = []
    for _ in range(count):
        l = int(rng.choice((1, 2)))
        reps = tm.TwoModeRep(*(rep.MultibosonRep(l, tuple(rng.uniform(0.3, 3.0, l)))
                               for _ in range(2)))
        g, h = (GroupElement(float(rng.uniform(0.5, 2.0) * rng.choice((-1, 1))),
                             int(rng.choice((-1, 1)))) for _ in range(2))
        sector = (int(rng.integers(l)), int(rng.integers(l)))
        model = ev.FullModel(tm.TwoModeHamiltonian(reps, g, h, sector), (1.0, 0.7),
                             tail_tol=math.inf, n_per_mode=16)
        k0, k1 = rng.integers(0, 8, 2)
        out.append((model, ev.basis_state(model, (int(k0) * l + sector[0],
                                                  int(k1) * l + sector[1]))))
    return out


def test_generic_run_series_stays_unitary_to_roundoff():
    # the eigenvectors of the whole n^2 x n^2 matrix must be orthogonal to
    # roundoff.  Measured worst norm error on these draws (scipy 1.17,
    # OpenBLAS, x86_64): 8.9e-16 with divide and conquer (dsyevd); the MRRR
    # driver (dsyevr) lost 1.4e-13 on one draw and up to 3.8e-15 on the rest
    worst = 0.0
    for model, psi0 in _random_generic_models(np.random.default_rng(2026), 12):
        series = ev.run_series(model, psi0, np.linspace(0.0, 3.0, 21))
        worst = max(worst, max(series.norm_errors))
    assert worst <= 4e-15


def test_generic_eigensolve_failure_is_typed(monkeypatch):
    def failing(a, **kwargs):
        return np.zeros(a.shape[0]), a, 3

    monkeypatch.setattr(jacobi, "dsyevd", failing)
    model = _generic_model()
    with pytest.raises(NumericalFailureError, match="dsyevd info 3"):
        ev.run_series(model, _state(model, [(2, 1)]), np.linspace(0.0, 1.0, 3))
