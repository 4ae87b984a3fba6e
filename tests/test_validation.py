"""The validate suite keeps every check: names and tolerances pinned."""

import json
from pathlib import Path

import pytest

from multiboson import validation

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
