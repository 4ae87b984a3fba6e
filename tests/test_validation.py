"""The validate suite keeps every check: names and tolerances pinned."""

import json
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from multiboson import bogoliubov, evolution, twomode, validation

# (name, tolerance) of every run_all check, in order
GOLDEN = json.loads((Path(__file__).parent / "data" / "validate_checks.json").read_text())


@pytest.mark.parametrize("mode", ["full", "quick"])
def test_run_all_checks_match_golden(mode):
    results = validation.run_all(quick=mode == "quick")
    got = [[r.name, r.tolerance] for r in results]
    assert [g[0] for g in got] == [g[0] for g in GOLDEN[mode]]
    for (name, tol), (_, gold_tol) in zip(got, GOLDEN[mode]):
        # twomode.hd.regression_pin_gap takes a measured eigenvalue gap as
        # its tolerance, so tolerances are compared to a relative 1e-12
        assert tol == pytest.approx(gold_tol, rel=1e-12, abs=0.0), name
    assert all(r.passed for r in results)


def test_implementer_grid_builds_each_distinct_block_once(monkeypatch):
    # 24 grid elements share 9 (alpha0, c) blocks: c does not depend on
    # sigma, and a = 1/2 and a = 2 give the same c
    calls = []
    kernel = bogoliubov.atom_eigenvector
    monkeypatch.setattr(bogoliubov, "atom_eigenvector",
                        lambda *args: calls.append(args) or kernel(*args))
    bogoliubov._meixner_block.cache_clear()
    validation.run_all(quick=True)
    assert len(calls) == 1
    calls.clear()
    validation.run_all()
    assert len(calls) == 9
    # the memo holds one block, and a run's first block is not its last, so
    # a second run rebuilds all nine
    validation.run_all()
    assert len(calls) == 18


@pytest.mark.parametrize("n", [12, 40])
def test_hiv_framework_deviation_is_bit_identical(n):
    # the dense comparison the CSR one replaced
    pm = evolution.preset("HIV", n)
    m = pm.mapping
    canon = twomode.canonical_matrix(m.kind, m.reps, m.sector, m.n_per_mode) * m.scale
    canon[np.diag_indices_from(canon)] += m.offset
    old = np.abs(pm.matrix - canon).max()
    new = validation._framework_deviation("HIV", n)
    assert np.float64(new).view(np.int64) == np.float64(old).view(np.int64)


def test_hiv_framework_deviation_forms_no_dense_array():
    # the dense comparison formed one (40 * 40)^2 * 8 = 20.48 MB array; the
    # CSR one stays below 1 MiB
    tracemalloc.start()
    try:
        validation._framework_deviation("HIV", 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 ** 20


def test_run_all_forms_no_dense_preset():
    # 22.4 MiB while the HIV check was dense; 4.7 MiB on CSR entries
    validation.run_all(quick=True)
    tracemalloc.start()
    try:
        validation.run_all()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2 ** 20


def test_hiv_framework_equality_keeps_the_csr_deviation():
    # the charge-block oracle folded into the check sits far below the n 40
    # deviation, which the report keeps bit for bit
    assert validation._canonical_block_deviation(12) <= 1e-16
    dev = validation._framework_deviation("HIV", 40)
    check = {r.name: r for r in validation.run_all(quick=True)}["evolution.hiv_framework_equality"]
    assert np.float64(check.deviation).view(np.int64) == np.float64(dev).view(np.int64)


def _canonical(name, n=12):
    ci = replace(evolution.preset(name, n).mapping, n_per_mode=n)
    return ci, twomode.canonical_matrix(ci.kind, ci.reps, ci.sector, n)


@pytest.mark.parametrize("name", ["HI", "HII", "HIII", "HIV"])
def test_charge_block_oracle_fails_on_one_off_block_entry(name):
    ci, m = _canonical(name)
    assert validation._charge_block_gap(ci, m) <= 1e-16
    # (k0, k1) = (0, 0) and (1, 0) lie in different blocks of either kind,
    # and a tiny entry there fails as surely as a large one
    bad = m.copy()
    bad[0, 12] = bad[12, 0] = 1e-300
    assert validation._charge_block_gap(ci, bad) == math.inf
    # so does an in-block entry off by a relative 1e-9
    bad = m.copy()
    bad[13, 13] *= 1.0 + 1e-9
    assert 1e-12 < validation._charge_block_gap(ci, bad) < 1e-8


def test_run_all_fails_when_a_canonical_matrix_leaks_between_blocks(monkeypatch):
    build = twomode.canonical_matrix

    def leaky(*args):
        m = build(*args)
        m[0, -1] = m[-1, 0] = 1.0
        return m

    monkeypatch.setattr(twomode, "canonical_matrix", leaky)
    check = {r.name: r for r in validation.run_all(quick=True)}["evolution.hiv_framework_equality"]
    assert not check.passed and check.deviation == math.inf
