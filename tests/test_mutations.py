"""Faults that ``validate`` must see: a mutation table.

Each row applies one named fault to one function as the package sees it
(pytest's ``monkeypatch``) and asserts that ``validation.run_all(quick=True)``
reports at least one failed check (DeMillo, Lipton & Sayward, IEEE Computer
11(4), 1978).  The unpatched row must pass every check.

A row that no check kills yet is a strict xfail naming the ROADMAP item
expected to kill it; that item removes the mark.  ``raises=AssertionError``
keeps a crash under a fault from counting as a kill.
"""

from dataclasses import replace

import numpy as np
import pytest

from multiboson import evolution, twomode, validation
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
                        lambda vectors, energies, coeffs, times:
                        apply(vectors, energies, coeffs, -times))


def _onemode_forward_time(monkeypatch):
    """One-mode evolution at +t."""
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
    failed = [c.name for c in validation.run_all(quick=True) if not c.passed]
    if fault is None:
        assert not failed, failed
    else:
        assert failed
