"""The helpers of the bench scripts that every recorded and bit-for-bit
claim cites: the order-statistic interval, the per-case measurement and
the float-hex tokens."""

import dataclasses
import importlib.util
import os
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).parents[1] / "bench"


@pytest.fixture(scope="module")
def bench():
    # record.py pins the BLAS thread variables in os.environ when imported,
    # and bits.py imports record by name
    saved = dict(os.environ)
    modules = {}
    try:
        for name in ("record", "bits"):
            spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
            modules[name] = sys.modules[name] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(modules[name])
    finally:
        os.environ.clear()
        os.environ.update(saved)
    yield SimpleNamespace(**modules)
    for name in modules:
        sys.modules.pop(name, None)


def test_median_interval_needs_six_ratios(bench):
    ratios = [1.3, 0.9, 1.1, 1.0, 1.2]
    assert bench.record.median_interval(ratios) == (1.1, None, None)
    assert bench.record.median_interval(ratios + [0.8]) == (1.05, 0.8, 1.3)


def test_median_interval_of_ten_is_the_second_and_ninth(bench):
    ratios = [1.9, 1.0, 1.7, 1.2, 1.5, 1.1, 1.3, 1.8, 1.4, 1.6]
    assert bench.record.median_interval(ratios) == (1.45, 1.1, 1.8)


def test_measure_scores_the_traced_call_after_tracing(bench, monkeypatch):
    monkeypatch.setattr(bench.record, "MIN_SAMPLE", 1e-4)
    calls = []
    scored = []

    def score(result):
        scored.append((result, tracemalloc.is_tracing()))
        return 0.5

    seconds, repeat, peak, accuracy = bench.record.measure(
        lambda: calls.append(None) or len(calls), score)
    assert repeat >= 1 and seconds > 0 and peak >= 0 and accuracy == 0.5
    # warm-up, REPEATS samples of repeat calls, then the traced call
    assert len(calls) == 2 + bench.record.REPEATS * repeat
    assert scored == [(len(calls), False)]


def test_measure_runs_each_sample_at_least_once(bench, monkeypatch):
    monkeypatch.setattr(bench.record, "MIN_SAMPLE", 0.0)
    seconds, repeat, peak, accuracy = bench.record.measure(lambda: np.float64(0.25))
    assert repeat == 1 and type(accuracy) is float and accuracy == 0.25


def test_record_has_no_tree_option(bench):
    with pytest.raises(SystemExit) as exc:
        bench.record.parse_args(["--tree", "x", "--out", "BENCH.json"])
    assert exc.value.code == 2


@dataclasses.dataclass
class _Point:
    x: float
    tags: tuple


def test_tokens_are_float_hex_by_path(bench):
    out = {"a": [1.5, np.float64(0.1)], "z": 1 - 2j, "arr": np.array([[0.5, 2.0]]),
           "p": _Point(3.0, (True, None, "s", np.int64(4)))}
    assert list(bench.bits.tokens(out)) == [
        ".a[0]: 0x1.8000000000000p+0",
        f".a[1]: {(0.1).hex()}",
        ".z.re: 0x1.0000000000000p+0",
        ".z.im: -0x1.0000000000000p+1",
        ".arr[0][0]: 0x1.0000000000000p-1",
        ".arr[0][1]: 0x1.0000000000000p+1",
        ".p.x: 0x1.8000000000000p+1",
        ".p.tags[0]: True",
        ".p.tags[1]: None",
        ".p.tags[2]: 's'",
        ".p.tags[3]: 4",
    ]
