"""The validate suite keeps every check: names and tolerances pinned."""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from multiboson import bogoliubov, evolution, validation

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
    pm = evolution.preset("HIV", n)
    old = np.abs(pm.matrix - pm.mapping.matrix()).max()
    new = validation._hiv_framework_deviation(n)
    assert np.float64(new).view(np.int64) == np.float64(old).view(np.int64)


def test_hiv_framework_deviation_forms_one_dense_array():
    dense = (40 * 40) ** 2 * 8   # 20.48 MB
    tracemalloc.start()
    try:
        validation._hiv_framework_deviation(40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * dense
