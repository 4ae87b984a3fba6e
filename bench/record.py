#!/usr/bin/env python3
"""Record how long multiboson takes, end to end and per layer, as JSON rows.

Usage (from the repository root):

    python3 bench/record.py --tree change --out BENCH.json
    python3 bench/record.py --tree parent --src /path/to/other/checkout/src --out BENCH.json

Every case runs in this process, with BLAS pinned to one thread: one warm-up
call, ``REPEATS`` untraced calls (their median wall time is ``seconds``)
and one more call under tracemalloc (its peak of traced bytes, numpy buffers
included, is ``peak_bytes``).  A row is

    {tree, case, layer, size, seconds, peak_bytes, accuracy}

where ``size`` is the case's problem size (n_levels, cutoff or block order
n; null for validate sections and the whole-validate cases) and
``accuracy`` is the case's own error figure (lower is better), described
under "accuracy" in the output file.  Oracle-window rows also carry
``path``: "certified windows" or "index window", the route
``jacobi.oracle_eigs`` took (a tree without certified windows always takes
the index window).  Rows of the same tree already in
``--out`` are replaced; rows of other trees are kept, so two trees (say a
change and its parent) can be recorded into one file and compared row by row.

Cases: the CLI commands ``validate --quick``, ``validate``, ``spectrum
--model two-c`` at n_levels 4000 and ``evolve --preset HIV`` at cutoffs 48
and 96; the Meixner block of the implementer at n 240; the implementer grid
of ``validate``; the oracle windows ``jacobi.oracle_eigs`` takes for the
atoms of one-mode class 5 (bottom) and class 6 (top) at n_levels 500, 2000
and 4000 with count 5, and for the 4000-level C-block of ``spectrum --model
two-c`` (top, the window ``hc_truncation_check`` takes at full size, which
is never seeded); and each section of the validate suite, as the table
``validation.SECTIONS`` yields them through ``validation.run_sections``, so
only trees that have that table can be recorded.
"""

import os

# before numpy is imported anywhere
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import importlib
import io
import json
import statistics
import sys
import tempfile
import time
import tracemalloc

import numpy as np

REPEATS = 5
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# what each case's accuracy figure is, by case name (validate sections by prefix)
ACCURACY = {
    "cli validate": "largest deviation / tolerance over the report's checks",
    "cli spectrum two-c": "results.oracle_delta: closed-form bound state against the "
                          "LAPACK oracle of the truncated block",
    "cli evolve HIV": "diagnostics.max_norm_error",
    "meixner block": "largest entry of |U^T U - I| on the converged columns",
    "implementer grid": "largest entry of |U^T U - I| on the converged columns, "
                        "over the grid",
    "validate section": "largest deviation / tolerance over the section's checks",
    "oracle window": "largest |closed-form atom - paired eigenvalue| over the window's "
                     "atoms (the C-block's bound state; its continuum edge has no atom)",
}
ORACLE_COUNT = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--tree", required=True, help="label of the recorded source tree")
    p.add_argument("--src", default=os.path.join(ROOT, "src"),
                   help="directory holding the multiboson package (default: this checkout's)")
    p.add_argument("--out", required=True, help="JSON file to write the rows into")
    return p.parse_args(argv)


def measure(fn):
    """(median seconds of ``REPEATS`` calls, traced peak bytes, accuracy)
    after one warm-up call; fn returns the accuracy figure."""
    fn()
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    tracemalloc.start()
    try:
        accuracy = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return statistics.median(times), peak, accuracy


def cli_cases(cli, tmp):
    def run(argv):
        # validate writes JSON to --out and prints its text report
        path = os.path.join(tmp, "out.json")
        fmt = [] if argv[0] == "validate" else ["--format", "json"]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv + fmt + ["--out", path])
        if code != 0:
            raise RuntimeError(f"{argv} exited {code}")
        with open(path) as f:
            return json.load(f)

    def validate(*flags):
        def fn():
            report = run(["validate", *flags])
            return max(r["deviation"] / r["tolerance"] for r in report["results"])
        return fn

    def spectrum():
        return run(["spectrum", "--model", "two-c", "--K", "0", "--alpha0", "0.3",
                    "--beta0", "0.3", "--n-levels", "4000"])["results"]["oracle_delta"]

    def evolve(n):
        return lambda: run(["evolve", "--preset", "HIV", "--n-per-mode", str(n)]
                           )["diagnostics"]["max_norm_error"]

    yield "cli validate --quick", "cli.main", None, validate("--quick")
    yield "cli validate", "cli.main", None, validate()
    yield "cli spectrum two-c", "cli.main", 4000, spectrum
    for n in (48, 96):
        yield "cli evolve HIV", "cli.main", n, evolve(n)


def _gram_error(u, nc):
    return float(np.abs(u[:, :nc].T @ u[:, :nc] - np.eye(nc)).max())


def layer_cases(bg):
    def block():
        # the memo holds one block: clearing it makes every call build
        bg._meixner_block.cache_clear()
        u, info = bg.implementer(bg.GroupElement(2.0, 1), 1.0, 240)
        return _gram_error(u, info.converged_cols)

    def grid():
        # the full validate grid, a and 1/a taken in turn
        bg._meixner_block.cache_clear()
        worst = 0.0
        for al in (0.5, 1.0, 2.7):
            for a in (1 / 3, 3.0, 0.5, 2.0):
                for sg in (1, -1):
                    u, info = bg.implementer(bg.GroupElement(a, sg), al, 240)
                    worst = max(worst, _gram_error(u, info.converged_cols))
        return worst

    yield "meixner block", "bogoliubov.implementer", 240, block
    yield "implementer grid", "bogoliubov.implementer", 240, grid


def oracle_cases(jacobi, onemode, rep, twomode):
    """(case, size, path, fn) for each oracle window; fn returns the
    window's largest distance to its closed-form atoms."""
    def window(op, chain, count, n_atoms):
        top = chain.pairs_top
        certified = getattr(jacobi, "_certified_windows", None)
        seeded = certified is not None and certified(
            op.diag_array(), op.offdiag_array(), count, top) is not None

        def fn():
            w = jacobi.oracle_eigs(op, count, top=top)
            return float(np.abs(chain.atoms(n_atoms) - chain.pair(w, n_atoms)).max())
        return ("certified windows" if seeded else "index window"), fn

    for case, mu, nu in (("class 5 bottom", 4.0, 1.0), ("class 6 top", -4.0, -1.0)):
        for n in (500, 2000, 4000):
            sector = rep.OneModeSector(rep.MultibosonRep(1, (1.3,)), 0, n)
            op = onemode.jacobi(onemode.OneModeHamiltonian(mu, nu, sector))
            chain = onemode.classify(mu, nu, 1.3)
            yield (f"oracle window {case}", n,
                   *window(op, chain, ORACLE_COUNT, ORACLE_COUNT))
    blk = twomode.CBlock(0, 0.3, 0.3, n_levels=4000)
    chain = twomode.hc_chain(blk)
    n_atoms = chain.family.n_atoms()
    yield ("oracle window C-block top", 4000,
           *window(twomode.hc_block_jacobi(blk), chain, n_atoms + 1, n_atoms))


def section_rows(validation, tree):
    """One row per section of ``validation.run_sections`` (full): the median
    of its section times, and the traced peak during the section (read and
    reset as each section's checks arrive, so it counts what earlier
    sections' results still hold)."""
    validation.run_all()
    runs = [list(validation.run_sections()) for _ in range(REPEATS)]
    rows = []
    tracemalloc.start()
    try:
        for i, checks in enumerate(validation.run_sections()):
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            rows.append({"tree": tree, "case": f"validate section {checks[0].name}",
                         "layer": "validation.run_all", "size": None,
                         "seconds": statistics.median(run[i][0].seconds for run in runs),
                         "peak_bytes": peak,
                         "accuracy": max(c.deviation / c.tolerance for c in checks)})
    finally:
        tracemalloc.stop()
    return rows


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from multiboson import bogoliubov, cli, onemode, rep, twomode, validation
    # the module: older trees bind the package attribute to onemode.jacobi
    jacobi = importlib.import_module("multiboson.jacobi")
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for case, layer, size, fn in (*cli_cases(cli, tmp), *layer_cases(bogoliubov)):
            seconds, peak, accuracy = measure(fn)
            rows.append({"tree": args.tree, "case": case, "layer": layer, "size": size,
                         "seconds": seconds, "peak_bytes": peak, "accuracy": accuracy})
            print(json.dumps(rows[-1]), file=sys.stderr)
    for case, size, path, fn in oracle_cases(jacobi, onemode, rep, twomode):
        seconds, peak, accuracy = measure(fn)
        rows.append({"tree": args.tree, "case": case, "layer": "jacobi.oracle_eigs",
                     "size": size, "seconds": seconds, "peak_bytes": peak,
                     "accuracy": accuracy, "path": path})
        print(json.dumps(rows[-1]), file=sys.stderr)
    rows += section_rows(validation, args.tree)
    record = {"about": __doc__.split("\n\n")[0], "accuracy": ACCURACY, "rows": []}
    if os.path.exists(args.out):
        with open(args.out) as f:
            record["rows"] = [r for r in json.load(f)["rows"] if r["tree"] != args.tree]
    record["rows"] += rows
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
