"""Faults that ``validate`` must see: a mutation table.

Each row applies one named fault to one function as the package sees it
(pytest's ``monkeypatch``) and asserts that ``validation.run_all()``
reports at least one failed check (DeMillo, Lipton & Sayward, IEEE Computer
11(4), 1978).  The unpatched row must pass every check.

A row that no check kills yet is a strict xfail naming the ROADMAP item
expected to kill it; that item removes the mark.  ``raises=AssertionError``
keeps a crash under a fault from counting as a kill.  Each such row has a
reach guard: under its fault, the ``evolve_full`` amplitudes of a probe on a
small model of the row's kind move, so the name it patches is still on the
evolution path and the xfail is validate's blindness, not a dead patch.
"""

from dataclasses import replace

import numpy as np
import pytest

from multiboson import evolution, onemode, rep, twomode, validation
from multiboson.jacobi import Chain
from multiboson.orthopoly import DualHahn, Meixner


def _odd_charge_block_energies(monkeypatch):
    """+0.1 on the energies of every odd-charge canonical block."""
    blocks = evolution._occupied_charge_blocks

    def shifted(h, psi):
        for idx, op in blocks(h, psi):
            if twomode.charges(h.kind, h.n_per_mode, idx[:1])[0] % 2:
                op = replace(op, diag=lambda k, d=op.diag: d(k) + 0.1 / h.scale)
            yield idx, op

    monkeypatch.setattr(evolution, "_occupied_charge_blocks", shifted)


def _blocks_at_minus_energy(monkeypatch):
    """Canonical blocks evolved as exp(+i E t)."""
    apply = evolution.spectral_apply
    monkeypatch.setattr(evolution, "spectral_apply",
                        lambda spec, t: apply(spec, -np.asarray(t, dtype=float)))


def _onemode_forward_time(monkeypatch):
    """One-mode evolution as exp(+i H t): ``evolve_onemode`` at -t."""
    evolve = evolution.evolve_onemode
    monkeypatch.setattr(evolution, "evolve_onemode", lambda h, psi, t: evolve(h, psi, -t))


def _free_phase_sign(monkeypatch):
    """Free phases exp(+i t H0) in ``evolve_full``."""
    evolve_full = evolution.evolve_full

    def flipped(model, psi0, t):
        total = sum(w * n for w, n in zip(model.omega, model.occupations()))
        return evolve_full(model, psi0, t) * np.exp(2j * float(t) * total)

    monkeypatch.setattr(evolution, "evolve_full", flipped)


def _meixner_row_sign(monkeypatch):
    """No row sign flip of Meixner eigenvectors when offdiag_sign < 0."""
    eigenvectors = Chain.eigenvectors

    def unflipped(self, op, n_rows, n_cols):
        u = eigenvectors(self, op, n_rows, n_cols)
        if isinstance(self.family, Meixner) and self.offdiag_sign < 0:
            u[1::2] *= -1.0
        return u

    monkeypatch.setattr(Chain, "eigenvectors", unflipped)


def _dual_hahn_column_sign(monkeypatch):
    """Odd-n D-block eigenvector columns negated."""
    eigenvectors = Chain.eigenvectors

    def flipped(self, op, n_rows, n_cols):
        u = eigenvectors(self, op, n_rows, n_cols)
        if isinstance(self.family, DualHahn):
            u[:, 1::2] *= -1.0
        return u

    monkeypatch.setattr(Chain, "eigenvectors", flipped)


def _not_yet(item):
    return pytest.mark.xfail(strict=True, raises=AssertionError, reason=f"item {item}")


ROWS = [
    pytest.param(None, id="unpatched"),
    pytest.param(_odd_charge_block_energies, id="odd-charge-block-energies",
                 marks=_not_yet(16)),
    pytest.param(_blocks_at_minus_energy, id="blocks-at-minus-energy", marks=_not_yet(3)),
    pytest.param(_onemode_forward_time, id="onemode-forward-time", marks=_not_yet(18)),
    pytest.param(_free_phase_sign, id="free-phase-sign", marks=_not_yet(16)),
    pytest.param(_meixner_row_sign, id="meixner-row-sign", marks=_not_yet(18)),
    pytest.param(_dual_hahn_column_sign, id="d-column-sign"),
]


@pytest.mark.parametrize("fault", ROWS)
def test_validate_kills_fault(fault, monkeypatch):
    if fault is not None:
        fault(monkeypatch)
    failed = [c.name for c in validation.run_all() if not c.passed]
    if fault is None:
        assert not failed, failed
    else:
        assert failed


def _canonical_probe():
    """D-form amplitudes at n_per_mode 8 from basis states of charges 3 and 4."""
    reps = twomode.TwoModeRep(rep.MultibosonRep(1, (1.0,)), rep.MultibosonRep(1, (1.5,)))
    model = evolution.FullModel(evolution.CanonicalInteraction("D", reps, (0, 0), 8,
                                                               scale=1.3, offset=-0.4),
                                (0.6, 0.9), tail_tol=np.inf)
    return _amplitudes(model, evolution.basis_state(model, (1, 2))
                       + evolution.basis_state(model, (2, 2)))


def _meixner_probe():
    """Class 7 (Meixner, offdiag_sign < 0) amplitudes at N 12 from level 1."""
    sector = rep.OneModeSector(rep.MultibosonRep(1, (1.2,)), 0, 12)
    model = evolution.FullModel(onemode.OneModeHamiltonian(0.3, 1.4, sector), (0.8,),
                                tail_tol=np.inf)
    return _amplitudes(model, evolution.basis_state(model, (1,)))


def _amplitudes(model, psi0):
    """``evolution.evolve_full`` at t 0.3 and 1.1, looked up on each call."""
    return np.array([evolution.evolve_full(model, psi0, t) for t in (0.3, 1.1)])


# the probe of each strict-xfail row, by row id
PROBES = {"odd-charge-block-energies": _canonical_probe,
          "blocks-at-minus-energy": _canonical_probe,
          "onemode-forward-time": _meixner_probe,
          "free-phase-sign": _meixner_probe,
          "meixner-row-sign": _meixner_probe}


@pytest.mark.parametrize("fault, probe", [pytest.param(row.values[0], PROBES[row.id], id=row.id)
                                          for row in ROWS if row.marks])
def test_fault_reaches_its_probe(fault, probe, monkeypatch):
    before = probe()
    fault(monkeypatch)
    assert np.abs(probe() - before).max() > 1e-6
