"""Full-model evolution, observables, and the preset interactions."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from multiboson import evolution as ev
from multiboson import onemode as om
from multiboson import rep
from multiboson import twomode as tm
from multiboson import validation
from multiboson.errors import ParameterError, TruncationOverflowError
from multiboson.orthopoly import hyp0f1
from multiboson.twomode import TwoModeHamiltonian, TwoModeRep
from multiboson.bogoliubov import GroupElement


def test_preset_hiv_framework_equality():
    # on CSR entries: the preset against scale * canonical C-form + offset
    assert validation._framework_deviation("HIV", 40) <= 1e-12
    # diagonal identity: (1/2)(2 n0 + 1)(2 n1 + 1) = 2 n0 n1 + n0 + n1 + 1/2
    for n0, n1 in ((0, 0), (3, 5), (7, 2)):
        assert 0.5 * (2 * n0 + 1) * (2 * n1 + 1) == pytest.approx(
            2 * n0 * n1 + n0 + n1 + 0.5)


def test_preset_hiii_framework_equality():
    # mode 1 carries two-boson clusters: the framework matrix lives on the
    # even-occupation sector, compared on the embedded window
    assert validation._framework_deviation("HIII", 24) <= 1e-12


def test_preset_hi_hii_framework_equality_even_sector():
    for name in ("HI", "HII"):
        assert validation._framework_deviation(name, 24) <= 1e-12


def test_preset_hii_symmetric():
    pm = ev.preset("HII", 16)
    assert np.abs(pm.matrix - pm.matrix.T).max() == 0.0


def test_preset_hi_conserves_total_quanta_mod_4():
    n = 12
    pm = ev.preset("HI", n)
    k0, k1 = np.divmod(np.arange(n * n), n)
    grade = (k0 + k1) % 4
    mism = grade[:, None] != grade[None, :]
    assert np.abs(pm.matrix[mism]).max() == 0.0


def test_preset_unknown_name():
    with pytest.raises(ValueError):
        ev.preset("HV", 8)


def _hiv_model(n=24, tail=math.inf):
    pm = ev.preset("HIV", n)
    return ev.FullModel(pm.mapping, (1.0, 0.7), tail_tol=tail)


def _dense(pair, dim):
    """Scatter the (indices, amplitudes) pair of ``InteractionEvolver.apply``
    into full state vectors over the dim-position basis."""
    indices, amps = pair
    out = np.zeros(amps.shape[:-1] + (dim,), dtype=complex)
    out[..., indices] = amps
    return out


def test_evolve_full_t0_identity():
    model = _hiv_model()
    psi0 = ev.basis_state(model, (2, 3))
    out = ev.evolve_full(model, psi0, 0.0)
    assert np.abs(out - psi0).max() <= 1e-14


def test_free_phases_leave_occupations_invariant():
    model = _hiv_model()
    model0 = ev.FullModel(model.interaction, (0.0, 0.0), tail_tol=math.inf)
    psi0 = ev.basis_state(model, (2, 3))
    t = 0.37
    with_h0 = ev.observables(ev.evolve_full(model, psi0, t), model)
    without = ev.observables(ev.evolve_full(model0, psi0, t), model0)
    assert with_h0.means == pytest.approx(without.means, abs=1e-12)
    assert with_h0.variances == pytest.approx(without.variances, abs=1e-12)


def test_evolution_norm_and_time_reversal():
    model = _hiv_model()
    psi0 = ev.basis_state(model, (2, 3))
    t = 0.8
    out = ev.evolve_full(model, psi0, t)
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-10
    # the two-factor propagator composes to the identity under t -> -t when
    # the free part is absent (or commutes with the interaction)
    pm = ev.preset("HIV", 24)
    bare = ev.FullModel(pm.mapping, (0.0, 0.0), tail_tol=math.inf)
    back = ev.evolve_full(bare, ev.evolve_full(bare, psi0, t), -t)
    assert np.abs(back - psi0).max() <= 1e-9


def test_time_reversal_with_commuting_free_part():
    # diagonal interaction: H commutes with the number operator, so the
    # full two-factor propagator reverses exactly
    sec = rep.OneModeSector(rep.MultibosonRep(1, (1.0,)), 0, 24)
    h = om.OneModeHamiltonian(1.5, 1.5, sec)
    model = ev.FullModel(h, (0.9,))
    amps = (0.5 ** np.arange(24)).astype(complex)
    psi0 = amps / np.linalg.norm(amps)
    back = ev.evolve_full(model, ev.evolve_full(model, psi0, 1.3), -1.3)
    assert np.abs(back - psi0).max() <= 1e-9


def test_block_amplitudes_never_leak():
    model = _hiv_model()
    n = model.interaction.n_per_mode
    psi0 = ev.basis_state(model, (2, 3))
    out = ev.evolve_full(model, psi0, 1.3)
    k0, k1 = np.divmod(np.arange(n * n), n)
    outside = (k0 - k1) != -1
    assert np.abs(out[outside]).max() <= 1e-12


def test_observables_number_state_and_superposition():
    model = _hiv_model()
    rec = ev.observables(ev.basis_state(model, (3, 5)), model)
    assert rec.means == pytest.approx((3.0, 5.0))
    assert rec.variances == pytest.approx((0.0, 0.0))
    assert math.isnan(ev.observables(ev.basis_state(model, (0, 0)), model).fanos[0])
    # one-mode equal superposition (|0> + |2>)/sqrt(2): mean 1, var 1, fano 1
    sec = rep.OneModeSector(rep.MultibosonRep(1, (1.0,)), 0, 12)
    h = om.OneModeHamiltonian(1.0, 1.0, sec)
    m1 = ev.FullModel(h, (1.0,))
    amps = np.zeros(12, dtype=complex)
    amps[0] = amps[2] = 1 / math.sqrt(2)
    rec = ev.observables(amps, m1)
    assert rec.means[0] == pytest.approx(1.0)
    assert rec.variances[0] == pytest.approx(1.0)
    assert rec.fanos[0] == pytest.approx(1.0)


def test_observables_coherent_profile_mean():
    # mean occupation of the unnormalized profile z^k / k! with (1)_k = k!:
    # lam * 0F1(; 2; lam) / 0F1(; 1; lam)
    lam = 1.7
    sec = rep.OneModeSector(rep.MultibosonRep(1, (1.0,)), 0, 60)
    h = om.OneModeHamiltonian(1.0, 1.0, sec)
    model = ev.FullModel(h, (1.0,))
    from multiboson.coherent import coherent_amplitudes
    psi = coherent_amplitudes(math.sqrt(lam), 1.0, 60)
    rec = ev.observables(psi, model)
    assert rec.means[0] == pytest.approx(lam * hyp0f1(2.0, lam) / hyp0f1(1.0, lam),
                                         rel=1e-10)


# rows of an (indices, amplitudes) pair whose squared norm is 0 or not
# finite: a zero row and a NaN row raised a bare "zero state" ValueError (the
# NaN row called "zero"); an inf amplitude, or 1e200 amplitudes whose
# |a|^2 overflows, returned NaN means with norm inf
_BAD_ROWS = {"zero": (0.0, "0.0"), "nan": (math.nan, "nan"), "inf": (math.inf, "inf"),
             "overflow": (1e200, "inf")}


@pytest.mark.parametrize("kind", sorted(_BAD_ROWS))
def test_observables_refuses_a_row_without_a_finite_norm(kind):
    model = ev.FullModel(ev.preset("HIV", 8).mapping, (1.0, 0.7))
    value, cause = _BAD_ROWS[kind]
    amps = np.full((3, 3), 0.5, dtype=complex)
    amps[1] = value
    with pytest.raises(ParameterError, match=re.escape(f"row 1 of psi has squared norm {cause}:")) as exc:
        ev.observables((np.arange(3), amps), model)
    assert exc.value.names == ("psi",)
    # the rows before it alone still give records
    assert len(ev.observables((np.arange(3), amps[:1]), model)) == 1


def test_run_series_constant_for_joint_eigenvector():
    # the D-form vacuum spans the one-dimensional charge-0 block: a joint
    # eigenvector of the interaction and the free part
    reps = TwoModeRep(rep.MultibosonRep(1, (1.0,)), rep.MultibosonRep(1, (1.0,)))
    model = ev.FullModel(ev.CanonicalInteraction("D", reps, (0, 0), 16),
                         (1.0, 0.7), tail_tol=math.inf)
    psi0 = ev.basis_state(model, (0, 0))
    series = ev.run_series(model, psi0, [0.0, 0.5, 1.0])
    for rec in series.records:
        assert rec.means == pytest.approx((0.0, 0.0), abs=1e-13)
        assert rec.variances == pytest.approx((0.0, 0.0), abs=1e-13)
    assert max(series.norm_errors) <= 1e-12


def test_run_series_manley_rowe_invariant():
    model = _hiv_model(n=32)
    psi0 = ev.basis_state(model, (2, 3))
    series = ev.run_series(model, psi0, np.linspace(0.0, 10.0, 11))
    diffs = [r.means[0] - r.means[1] for r in series.records]
    assert max(abs(d + 1.0) for d in diffs) <= 1e-8
    assert max(series.norm_errors) <= 1e-10


@pytest.mark.parametrize("q", [90, 105, 119])
def test_dform_run_series_conserves_high_charge_blocks(q):
    # complete D-blocks up to the window edge (charge n_per_mode - 1) evolve
    # unitarily; limits as in the evolve benchmark
    r2 = rep.MultibosonRep(2, (0.5, 1.5))
    h = ev.CanonicalInteraction("D", TwoModeRep(r2, r2), (0, 0), 120)
    model = ev.FullModel(h, (1.0, 1.3), tail_tol=math.inf)
    for k0 in (q // 4 + 1, q // 2, 3 * q // 4):
        psi0 = ev.basis_state(model, (2 * k0, 2 * (q - k0)))
        series = ev.run_series(model, psi0, np.linspace(0.0, 5.0, 11))
        assert max(series.norm_errors) <= 1e-10
        drift = max(abs((m0 + m1) / 2 - q) for m0, m1 in
                    (r.means for r in series.records))
        assert drift <= 1e-8 * q


@pytest.mark.parametrize("kind", ["D", "C"])
def test_charge_block_indices_match_sorted_partition(kind):
    n = 7
    k0, k1 = np.divmod(np.arange(n * n), n)
    charge = k0 + k1 if kind == "D" else k0 - k1
    # a stable sort keeps each block in ascending flattened index, i.e. k0
    order = np.argsort(charge, kind="stable")
    qs, starts = np.unique(charge[order], return_index=True)
    for q, ref in zip(qs.tolist(), np.split(order, starts[1:])):
        idx, op = tm.window_block(kind, q, 1.0, 1.0, n)
        assert np.array_equal(idx, ref) and op.size == ref.size
        assert np.array_equal(tm.charges(kind, n, ref), np.full(ref.size, q))


def test_interaction_energy_conserved():
    model = _hiv_model(n=28)
    psi0 = ev.basis_state(model, (1, 2))
    e0 = ev.interaction_energy(model, psi0)
    evolver = ev.InteractionEvolver(model)
    for t in (0.2, 0.9, 2.0):
        # strip the free-phase factor: exp(+i H0 t) psi(t) = exp(-i H t) psi0
        bare = _dense(evolver.apply(psi0, t), psi0.size)
        e_t = ev.interaction_energy(model, bare)
        assert abs(e_t - e0) <= 1e-9 * max(1.0, abs(e0))


def test_tail_enforcement_raises():
    model = _hiv_model(n=16, tail=1e-8)
    psi0 = ev.basis_state(model, (2, 3))
    with pytest.raises(TruncationOverflowError):
        ev.evolve_full(model, psi0, 4.0)


def test_tail_enforcement_covers_the_second_mode():
    # from (0, 30) the C-form run moves mass up in k1 only: at t = 3 a
    # quarter of it sits at k1 >= 36, the last tenth of mode 1's window,
    # while the last tenth of the flattened vector (k0 >= 36) stays empty
    model = ev.FullModel(ev.preset("HIV", 40).mapping, (1.0, 0.7), tail_tol=1e-8)
    psi0 = ev.basis_state(model, (0, 30))
    with pytest.raises(TruncationOverflowError, match="at t = 3.0"):
        ev.evolve_full(model, psi0, 3.0)
    with pytest.raises(TruncationOverflowError, match="at t = 3.0"):
        ev.run_series(model, psi0, [0.0, 3.0, 4.0])
    free = ev.FullModel(model.interaction, model.omega, tail_tol=math.inf)
    out = ev.evolve_full(free, psi0, 3.0)
    mass = np.abs(out.reshape(40, 40)) ** 2
    assert mass[36:, :].sum() == 0.0
    assert mass[:, 36:].sum() > 0.2


def _superposition(n_amps, rng):
    amps = np.zeros(n_amps, dtype=complex)
    idx = rng.choice(n_amps, size=12, replace=False)
    amps[idx] = rng.normal(size=12) + 1j * rng.normal(size=12)
    return amps


@pytest.mark.parametrize("kind", ["D", "C"])
def test_canonical_interaction_energy_matches_dense(kind):
    reps = TwoModeRep(rep.MultibosonRep(1, (0.7,)), rep.MultibosonRep(2, (0.5, 1.5)))
    h = ev.CanonicalInteraction(kind, reps, (0, 1), 28, scale=1.3, offset=-0.4)
    model = ev.FullModel(h, (1.0, 0.7), tail_tol=math.inf)
    psi = _superposition(28 * 28, np.random.default_rng(11))
    twists = TwoModeHamiltonian(reps, *tm.CANONICAL_TWISTS[kind], (0, 1))
    h_psi = h.scale * (tm._kron_sum(twists, 28) @ psi) + h.offset * psi
    ref = np.vdot(psi, h_psi).real / np.vdot(psi, psi).real
    assert abs(ev.interaction_energy(model, psi) - ref) <= 1e-12 * abs(ref)


def test_onemode_interaction_energy_matches_dense():
    sec = rep.OneModeSector(rep.MultibosonRep(1, (0.7,)), 0, 28)
    h = om.OneModeHamiltonian(2.0, 0.5, sec)
    model = ev.FullModel(h, (1.0,), tail_tol=math.inf)
    psi = _superposition(28, np.random.default_rng(12))
    ref = np.vdot(psi, om.jacobi(h).dense() @ psi).real / np.vdot(psi, psi).real
    assert abs(ev.interaction_energy(model, psi) - ref) <= 1e-12 * abs(ref)


def test_interaction_energy_conserved_without_a_dense_matrix(monkeypatch):
    def dense(*args, **kwargs):
        raise AssertionError("dense n^2 x n^2 matrix built")

    monkeypatch.setattr(tm, "canonical_matrix", dense)
    monkeypatch.setattr(tm, "build_h_matrix", dense)
    monkeypatch.setattr(ev, "build_h_matrix", dense)
    model = _hiv_model(n=300)
    psi0 = ev.basis_state(model, (2, 3))
    e0 = ev.interaction_energy(model, psi0)
    grid = _dense(ev.InteractionEvolver(model).apply(psi0, np.linspace(0.5, 3.0, 6)),
                  psi0.size)
    for row in grid:
        e_t = ev.interaction_energy(model, row)
        assert abs(e_t - e0) <= 1e-9 * max(1.0, abs(e0))


def _generic_model(n):
    reps = TwoModeRep(rep.MultibosonRep(1, (0.7,)), rep.MultibosonRep(2, (0.5, 1.5)))
    h = TwoModeHamiltonian(reps, GroupElement(1.3, -1), GroupElement(-0.6, 1), (0, 1))
    return ev.FullModel(h, (1.0, 0.7), tail_tol=math.inf, n_per_mode=n)


def test_generic_interaction_energy_matches_dense():
    model = _generic_model(20)
    psi = _superposition(20 * 20, np.random.default_rng(13))
    dense = tm.build_h_matrix(model.interaction, 20)
    ref = np.vdot(psi, dense @ psi).real / np.vdot(psi, psi).real
    assert abs(ev.interaction_energy(model, psi) - ref) <= 1e-12 * abs(ref)


def test_generic_interaction_energy_conserved_without_a_dense_matrix(monkeypatch):
    model = _generic_model(20)
    psi0 = _superposition(20 * 20, np.random.default_rng(14))
    # the generic evolver's one eigh needs the dense matrix; the energies do not
    grid = _dense(ev.InteractionEvolver(model).apply(psi0, np.linspace(0.5, 3.0, 6)),
                  psi0.size)

    def dense(*args, **kwargs):
        raise AssertionError("dense n^2 x n^2 matrix built")

    monkeypatch.setattr(ev, "build_h_matrix", dense)
    monkeypatch.setattr(tm, "build_h_matrix", dense)
    e0 = ev.interaction_energy(model, psi0)
    for row in grid:
        e_t = ev.interaction_energy(model, row)
        assert abs(e_t - e0) <= 1e-9 * max(1.0, abs(e0))


def test_n_per_mode_only_for_a_generic_interaction():
    # a one-mode or a canonical interaction carries its own window: a second
    # cutoff would be ignored, so it is refused
    sec = rep.OneModeSector(rep.MultibosonRep(1, (1.0,)), 0, 10)
    reps = TwoModeRep(rep.MultibosonRep(1, (1.0,)), rep.MultibosonRep(1, (1.0,)))
    for h, omega in ((om.OneModeHamiltonian(4.0, 1.0, sec), (1.0,)),
                     (ev.CanonicalInteraction("C", reps, (0, 0), 10), (1.0, 1.0))):
        with pytest.raises(ValueError, match="carries its own window"):
            ev.FullModel(h, omega, n_per_mode=20)
        assert ev.FullModel(h, omega).n_per_mode is None
    with pytest.raises(ValueError, match="needs n_per_mode"):
        ev.FullModel(_generic_model(20).interaction, (1.0, 0.7))


def test_generic_two_mode_dense_route_matches_canonical():
    reps = TwoModeRep(rep.MultibosonRep(1, (1.0,)), rep.MultibosonRep(1, (1.0,)))
    generic = TwoModeHamiltonian(reps, GroupElement(1.0, -1), GroupElement(1.0, 1),
                                 (0, 0))
    n = 10
    dense_model = ev.FullModel(generic, (0.0, 0.0), tail_tol=math.inf, n_per_mode=n)
    canon = ev.FullModel(ev.CanonicalInteraction("D", reps, (0, 0), n),
                         (0.0, 0.0), tail_tol=math.inf)
    psi0 = ev.basis_state(canon, (1, 1))
    t = 0.6
    a = ev.evolve_full(dense_model, psi0, t)
    b = ev.evolve_full(canon, psi0, t)
    assert np.abs(a - b).max() <= 1e-10


def test_onemode_interaction_route():
    sec = rep.OneModeSector(rep.MultibosonRep(1, (1.0,)), 0, 100)
    h = om.OneModeHamiltonian(4.0, 1.0, sec)
    model = ev.FullModel(h, (0.5,))
    psi0 = np.zeros(100, dtype=complex)
    psi0[0] = 1.0
    t = 0.37
    out = ev.evolve_full(model, psi0, t)
    j = om.jacobi(h).dense()
    h0 = np.diag(0.5 * np.arange(100.0))
    ref = scipy.linalg.expm(-1j * t * h0) @ scipy.linalg.expm(-1j * t * j) @ psi0
    assert np.abs(out - ref).max() <= 1e-7


def test_basis_state_checks_every_occupation_against_the_window():
    # one mode of two-boson clusters on the even sector, 10 levels: Fock
    # occupations 0, 2, ..., 18
    sec = rep.OneModeSector(rep.MultibosonRep(2, (0.5, 1.5)), 0, 10)
    one = ev.FullModel(om.OneModeHamiltonian(1.0, 1.0, sec), (1.0,))
    assert np.array_equal(ev.basis_state(one, (18,)), np.eye(10)[9])
    two = _hiv_model(n=8)
    assert ev.basis_state(two, (7, 0))[56] == 1.0
    for model, occ in ((one, (-2,)), (one, (20,)), (one, (3,)), (one, (0, 0)),
                       (two, (-1, 3)), (two, (3, -8)), (two, (8, 3)), (two, (2,))):
        with pytest.raises(ValueError):
            ev.basis_state(model, occ)


def _unit(size, k=3):
    psi = np.zeros(size, dtype=complex)
    psi[k] = 1.0
    return psi


def test_short_state_in_a_onemode_window_is_refused():
    # 50 amplitudes in a 100-level window once ran as a 50-level model
    sec = rep.OneModeSector(rep.MultibosonRep(1, (1.3,)), 0, 100)
    model = ev.FullModel(om.OneModeHamiltonian(2.0, 0.5, sec), (1.0,))
    with pytest.raises(ParameterError, match="100 amplitudes") as exc:
        ev.run_series(model, _unit(50), [0.0, 1.0])
    assert exc.value.names == ("psi0",)


@pytest.mark.parametrize("nu", [0.5, -0.5])
@pytest.mark.parametrize("state", [_unit(50), _unit(150), _unit(100).reshape(10, 10)],
                         ids=["short", "long", "two-d"])
def test_onemode_evolve_takes_the_sector_window(nu, state):
    # a 50- or 150-entry state once evolved in a 50- or 150-level window of
    # the 100-level sector and returned unit-norm rows
    h = om.OneModeHamiltonian(2.0, nu, rep.OneModeSector(rep.MultibosonRep(1, (1.3,)), 0, 100))
    with pytest.raises(ParameterError, match="100 amplitudes") as exc:
        om.evolve(h, state, [0.0, 1.0])
    assert exc.value.names == ("psi",)
    assert om.evolve(h, _unit(100), [0.0, 1.0]).shape == (2, 100)


@pytest.mark.parametrize("size", [100, 10])
def test_wrong_length_state_in_a_preset_is_refused(size):
    # HIV at cutoff 8 has 64 positions: 100 amplitudes once returned numbers,
    # 10 an untyped IndexError
    model = _hiv_model(n=8)
    with pytest.raises(ParameterError, match="64 amplitudes") as exc:
        ev.run_series(model, _unit(size), [0.0, 1.0])
    assert exc.value.names == ("psi0",)


_BAD_STATES = {
    "long": _unit(65),
    "two-d": _unit(64).reshape(8, 8),
    "nan": np.where(np.arange(64) == 5, np.nan, _unit(64)),
    "inf": np.where(np.arange(64) == 5, np.inf, _unit(64)),
    "zero": np.zeros(64, dtype=complex),
    "norm overflow": np.full(64, 1e300, dtype=complex),
}
_ENTRIES = {
    "run_series": (lambda m, psi: ev.run_series(m, psi, [0.0, 0.5]), "psi0"),
    "evolve_full": (lambda m, psi: ev.evolve_full(m, psi, 0.5), "psi0"),
    "interaction_energy": (ev.interaction_energy, "psi"),
    "observables": (lambda m, psi: ev.observables(psi, m), "psi"),
}


@pytest.mark.parametrize("entry", sorted(_ENTRIES))
@pytest.mark.parametrize("state", sorted(_BAD_STATES))
def test_state_checked_where_it_enters(entry, state):
    call, name = _ENTRIES[entry]
    model = _hiv_model(n=8)
    with pytest.raises(ParameterError) as exc:
        call(model, _BAD_STATES[state])
    assert exc.value.names == (name,)
    # the same entry takes a good state
    call(model, ev.basis_state(model, (2, 3)))


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_evolve_full_refuses_a_non_finite_time(t):
    model = _hiv_model(n=8)
    with pytest.raises(ParameterError) as exc:
        ev.evolve_full(model, ev.basis_state(model, (2, 3)), t)
    assert exc.value.names == ("t",)


@pytest.mark.parametrize("grid", [[], np.zeros(0), np.zeros((0, 3))])
def test_run_series_refuses_an_empty_grid(grid):
    model = _hiv_model(n=8)
    with pytest.raises(ParameterError) as exc:
        ev.run_series(model, ev.basis_state(model, (2, 3)), grid)
    assert exc.value.names == ("t_grid",)


def _onemode_model():
    sec = rep.OneModeSector(rep.MultibosonRep(1, (1.0,)), 0, 100)
    return ev.FullModel(om.OneModeHamiltonian(4.0, 1.0, sec), (0.5,), tail_tol=math.inf)


# a model, and the first time whose interaction phases E t overflow there
_PHASE_MODELS = {"HIV 48": (lambda: _hiv_model(n=48), 1e305),
                 "one-mode": (_onemode_model, 1e307)}


@pytest.mark.parametrize("name", sorted(_PHASE_MODELS))
def test_a_time_whose_phases_overflow_is_refused(name):
    # exp(-iEt) turned NaN: run_series raised a bare "zero state" ValueError
    # and evolve_full returned a NaN state
    make, t = _PHASE_MODELS[name]
    model = make()
    psi0 = np.zeros(ev._layout(model)[2] ** len(model.omega), dtype=complex)
    psi0[3] = 1.0
    with pytest.raises(ParameterError, match=re.escape(f"t = {t}")) as exc:
        ev.run_series(model, psi0, [0.0, 1.0, t])
    assert exc.value.names == ("t_grid",)
    with pytest.raises(ParameterError) as exc:
        ev.evolve_full(model, psi0, t)
    assert exc.value.names == ("t",)
    # a large time whose phases stay finite still evolves
    assert np.isfinite(ev.evolve_full(model, psi0, 1e300)).all()
    assert ev.run_series(model, psi0, [1e300]).norm_errors[0] <= 1e-12


@pytest.mark.parametrize("omega0, t", [(1e300, 1e10), (1.7e308, 1.0)])
def test_free_phases_that_overflow_are_refused(omega0, t):
    # the interaction phases are finite, the free ones (omega n t, or
    # already omega n) are not
    pm = ev.preset("HIV", 8)
    model = ev.FullModel(pm.mapping, (omega0, 0.7), tail_tol=math.inf)
    with pytest.raises(ParameterError) as exc:
        ev.evolve_full(model, ev.basis_state(model, (2, 3)), t)
    assert exc.value.names == ("t", "omega")


@pytest.mark.parametrize("scale, offset", [(1e308, -0.5), (-1e308, 1e308), (math.inf, -0.5),
                                           (math.nan, -0.5), (-1.0, math.nan),
                                           (-1.0, -math.inf)])
def test_a_scale_or_offset_without_finite_energies_is_refused(scale, offset):
    # a non-finite scale or offset was blamed on the time ("t = 0.0"), a
    # finite scale whose block energies overflow raised a RuntimeWarning, and
    # interaction_energy returned -inf there
    entries = {"run_series": lambda model, psi: ev.run_series(model, psi, [0.0, 1.0]),
               "interaction_energy": ev.interaction_energy}
    for name, call in entries.items():
        with pytest.raises(ParameterError) as exc:
            h = replace(ev.preset("HIV", 48).mapping, n_per_mode=8, scale=scale,
                        offset=offset)
            model = ev.FullModel(h, (1.0, 1.0))
            call(model, ev.basis_state(model, (2, 3)))
        assert exc.value.names == ("scale", "offset"), name
