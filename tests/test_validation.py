"""The validate suite keeps every check: names and tolerances pinned."""

import json
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from multiboson import bogoliubov, evolution, rep, twomode, validation

# (name, tolerance) of every run_all check, in order
GOLDEN = json.loads((Path(__file__).parent / "data" / "validate_checks.json").read_text())


def test_run_all_checks_match_golden():
    results = validation.run_all()
    got = [[r.name, r.tolerance] for r in results]
    assert [g[0] for g in got] == [g[0] for g in GOLDEN["full"]]
    for (name, tol), (_, gold_tol) in zip(got, GOLDEN["full"]):
        # twomode.hd.regression_pin_gap takes a measured eigenvalue gap as
        # its tolerance, so tolerances are compared to a relative 1e-12
        assert tol == pytest.approx(gold_tol, rel=1e-12, abs=0.0), name
    assert all(r.passed for r in results)


def test_run_all_is_the_sections_concatenated():
    sections = list(validation.run_sections())
    flat = [c for checks in sections for c in checks]
    results = validation.run_all()
    assert ([(r.name, r.tolerance, r.note, r.passed) for r in results]
            == [(c.name, c.tolerance, c.note, c.passed) for c in flat])
    assert [_bits(r.deviation) for r in results] == [_bits(c.deviation) for c in flat]
    # each section stamps its one wall time on all its checks
    for checks in sections:
        assert len({c.seconds for c in checks}) == 1 and checks[0].seconds > 0.0


def test_sections_are_the_recorded_table():
    # the 14 sections whose first checks name the section rows of the
    # checked-in bench record
    record = json.loads((Path(__file__).parents[1] / "BENCH_27.json").read_text())
    cases = [r["case"] for r in record["rows"]
             if r["tree"] == "change" and r["case"].startswith("validate section ")]
    sections = list(validation.run_sections())
    assert len(validation.SECTIONS) == len(sections) == 14
    assert all(sections)
    assert [f"validate section {checks[0].name}" for checks in sections] == cases


def test_implementer_grid_builds_each_distinct_block_once(monkeypatch):
    # 24 grid elements share 6 (alpha0, c) blocks: c does not depend on
    # sigma, a and 1/a give the same c, and the grid takes a and 1/a in turn
    calls = []
    kernel = bogoliubov.atom_eigenvector
    monkeypatch.setattr(bogoliubov, "atom_eigenvector",
                        lambda *args: calls.append(args) or kernel(*args))
    bogoliubov._meixner_block.cache_clear()
    validation.run_all()
    assert len(calls) == 6
    # the memo holds one block, and a run's first block is not its last, so
    # a second run rebuilds all six
    validation.run_all()
    assert len(calls) == 12


def _bits(x):
    return np.float64(x).view(np.int64)


def _dense_commutator_residual(l, table, n):
    """The dense matrix products that the weighted shifts replace."""
    r = rep.MultibosonRep(l, table)
    a0, am, ap = rep.build_generators_full(r, n)
    interior = n - 2 * l
    dev = 0.0
    for lhs, rhs in ((am @ ap - ap @ am, a0), (a0 @ am - am @ a0, -2 * am),
                     (a0 @ ap - ap @ a0, 2 * ap)):
        dev = max(dev, np.abs((lhs - rhs)[:interior, :interior]).max())
    return dev


def _dense_casimir_residual(l, table, n):
    r = rep.MultibosonRep(l, table)
    a0, am, ap = rep.build_generators_full(r, n)
    cas = 0.5 * a0 @ a0 - am @ ap - ap @ am
    interior = n - 2 * l
    return np.abs(cas[:interior, :interior]
                  - np.diag([rep.casimir_value(r, m % l) for m in range(interior)])).max()


@pytest.mark.parametrize("n", [64, 100, 240])
@pytest.mark.parametrize("l", [1, 2, 3])
def test_shift_residuals_equal_the_dense_products(l, n):
    rng = np.random.default_rng(1000 * l + n)
    for _ in range(4):
        table = tuple(rng.uniform(0.2, 3.0, size=l))
        assert (_bits(validation._commutator_residual(l, table, n))
                == _bits(_dense_commutator_residual(l, table, n)))
        assert (_bits(validation._casimir_residual(l, table, n))
                == _bits(_dense_casimir_residual(l, table, n)))


@pytest.mark.parametrize("n", [64, 100, 240])
def test_shift_conjugation_image_equals_the_dense_products(n):
    # U X and U X U^T - (m0 A0 + m1 A- + m2 A+) on the interior block, for
    # an implementer and a random row block, against the dense sector
    # matrices
    rng = np.random.default_rng(n)
    for al, a, sg in ((rng.uniform(0.2, 3.0), 1 / 3, 1), (rng.uniform(0.2, 3.0), 2.0, -1),
                      (rng.uniform(0.2, 3.0), None, 1)):
        sector = rep.OneModeSector(rep.MultibosonRep(1, (al,)), 0, n)
        xs = rep.sector_matrices(sector)
        diag, lowering, _ = rep.sector_coeffs(sector)
        k = np.arange(n, dtype=float)
        d, b = diag(k), lowering(k[1:])
        if a is None:
            ui, m = rng.standard_normal((n // 3, n)), rng.standard_normal((3, 3))
        else:
            g = bogoliubov.GroupElement(a, sg)
            u, info = bogoliubov.implementer(g, al, n)
            ui, m = u[:info.interior_rows], bogoliubov.action_matrix(g)
        ii = ui.shape[0]
        block = [x[:ii, :ii] for x in xs]
        for i, ux in enumerate(validation._times_generators(ui, d, b)):
            want = ui @ xs[i]
            assert np.array_equal(ux.view(np.int64), want.view(np.int64))
            img = m[i, 0] * block[0] + m[i, 1] * block[1] + m[i, 2] * block[2]
            dense = np.abs(want @ ui.T - img).max()
            assert _bits(validation._tridiagonal_gap(ux @ ui.T, m[i], d, b)) == _bits(dense)


@pytest.mark.parametrize("n", [64, 100, 240])
def test_apply_lowering_equals_the_dense_product(n):
    rng = np.random.default_rng(n)
    for al in rng.uniform(0.2, 3.0, size=3):
        sector = rep.OneModeSector(rep.MultibosonRep(1, (al,)), 0, n)
        _, am, _ = rep.sector_matrices(sector)
        for psi in (rng.standard_normal(n),
                    rng.standard_normal(n) + 1j * rng.standard_normal(n)):
            got, want = rep.apply_lowering(sector, psi), am @ psi
            assert got.dtype == want.dtype
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            z = complex(*rng.standard_normal(2))
            assert (_bits(np.linalg.norm(got - z * psi))
                    == _bits(np.linalg.norm(want - z * psi)))


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
    # 22.4 MiB while the HIV check was dense; 4.7 MiB on CSR entries; 2.15
    # MiB with the generators applied as weighted shifts (bound: plus 50 %)
    validation.run_all()
    tracemalloc.start()
    try:
        validation.run_all()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2.15 * 2 ** 20


def test_hiv_framework_equality_keeps_the_csr_deviation():
    # the charge-block oracle folded into the check sits far below the n 40
    # deviation, which the report keeps bit for bit
    assert validation._canonical_block_deviation(12) <= 1e-16
    dev = validation._framework_deviation("HIV", 40)
    check = {r.name: r for r in validation.run_all()}["evolution.hiv_framework_equality"]
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
    check = {r.name: r for r in validation.run_all()}["evolution.hiv_framework_equality"]
    assert not check.passed and check.deviation == math.inf
