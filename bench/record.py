#!/usr/bin/env python3
"""Record how long multiboson takes, end to end and per layer, as JSON rows.

Usage (from the repository root):

    python3 bench/record.py --tree change --out BENCH.json
    python3 bench/record.py --tree parent --src /path/to/other/checkout/src --out BENCH.json
    python3 bench/record.py --against REV [--rounds R] --out AB.json

Every case runs in this process, with BLAS pinned to one thread: one timed
warm-up call, ``REPEATS`` untraced samples and one more call under
tracemalloc (its peak of traced bytes, numpy buffers included, is
``peak_bytes``).  Each sample calls the case ``repeat`` times in a row,
ceil(``MIN_SAMPLE`` / the warm-up call's time) and at least once, so a
sample lasts about 50 ms however fast the case; ``seconds`` is the median
sample's wall time per call.  A row is

    {tree, case, layer, size, seconds, repeat, peak_bytes, accuracy}

where ``size`` is the case's problem size (n_levels, cutoff or block order
n, K + 1 for a D-block; null for validate sections and the whole-validate
case) and
``accuracy`` is the case's own error figure (lower is better), described
under "accuracy" in the output file.  Oracle-window rows also carry
``path``: "certified windows" or "index window", the route
``jacobi.oracle_eigs`` took (a tree without certified windows always takes
the index window).  Rows of the same tree already in
``--out`` are replaced; rows of other trees are kept, so two trees (say a
change and its parent) can be recorded into one file and compared row by row.

Cases: the CLI commands ``validate``, ``spectrum --model two-c`` at
n_levels 4000 and ``evolve --preset HIV`` at cutoffs 48
and 96; the Meixner block of the implementer at n 240; the implementer grid
of ``validate``; the oracle windows ``jacobi.oracle_eigs`` takes for the
atoms of one-mode class 5 (bottom) and class 6 (top) at n_levels 500, 2000
and 4000 with count 5, and for the 4000-level C-block of ``spectrum --model
two-c`` (top, the window ``hc_truncation_check`` takes at full size, which
is never seeded); the whole eigenvector matrix of a D-block at K 500 and
2000 (``hd_chain(block).eigenvectors``); ``run_series`` over 21 times on a
generic two-mode interaction at n_per_mode 40 (its ``peak_bytes`` is the
dense eigensolve's) and on a C-form interaction at n_per_mode 200 from a
state spread over the whole window (every charge block occupied), and on
the continuous one-mode classes 3 at n_levels 780 over 21 times and 1 at
n_levels 275 over 201 times (the costliest operations of the benchmark's
evolve workload); and each section of the validate suite's table
``validation.SECTIONS``, timed alone from the state of the suite's
generator at the section's start (read from one ``validation.run_sections``
run), so only trees that have that table can be recorded.

Rows whose code a change did not touch have moved by 0.74-1.56x between
two trees recorded one after the other on a 2-vCPU x86_64 VM, so one
recording per tree reads only a change well outside that range.
``--against REV`` compares instead: it checks REV out into a temporary
directory by a local ``git clone --shared`` (no network), removed on exit,
and runs R rounds (``--rounds``, default 10).  Each round records both
trees, ``--src`` ("change", by default this checkout's) and REV's
("parent"), each in its
own subprocess of this script, in random order and under an environment
padded to a random size (stack layout alone moves timings: Mytkowicz et
al., ASPLOS 2009).  Each row then reports the median over rounds of the
change/parent ratio of ``seconds`` and of ``peak_bytes``, with a
distribution-free interval of at least 95 % for that median from the order
statistics of the R ratios (the 2nd and 9th of 10; Kalibera & Jones,
ISMM 2013), and both trees' accuracy.  Against itself (``--against HEAD``
on a clean checkout) every interval should hold 1.
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
import math
import random
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc

import numpy as np

REPEATS = 5
MIN_SAMPLE = 0.05   # seconds: the sample length a case is repeated to
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# what each case's accuracy figure is, by case name (run_series and validate
# sections by prefix)
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
    "D-block eigenvectors": "max(largest entry of |V^T V - I|, largest |J v_n - E_n v_n| "
                            "/ max |E_n|), E_n the closed-form energies; the error is "
                            "computed once, outside the timed calls",
    "run_series": "largest norm error over the grid (ObservableSeries.norm_errors)",
}
ORACLE_COUNT = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--tree", help="label of the recorded source tree")
    p.add_argument("--src", default=os.path.join(ROOT, "src"),
                   help="directory holding the multiboson package (default: this checkout's)")
    p.add_argument("--out", required=True, help="JSON file to write the rows into")
    p.add_argument("--against", metavar="REV",
                   help="compare --src with git revision REV, interleaved")
    p.add_argument("--rounds", type=int, default=10,
                   help="rounds of an --against comparison (default 10)")
    args = p.parse_args(argv)
    if (args.tree is None) == (args.against is None):
        p.error("give exactly one of --tree and --against")
    if args.rounds < 1:
        p.error("--rounds must be at least 1")
    return args


def measure(fn):
    """(seconds per call, repeat, traced peak bytes, accuracy): the median
    over ``REPEATS`` samples of ``repeat`` calls each, repeat set by the
    timed warm-up call (module docstring); fn returns the accuracy figure."""
    t0 = time.perf_counter()
    fn()
    repeat = max(1, math.ceil(MIN_SAMPLE / (time.perf_counter() - t0)))
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(repeat):
            fn()
        times.append((time.perf_counter() - t0) / repeat)
    tracemalloc.start()
    try:
        accuracy = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return statistics.median(times), repeat, peak, accuracy


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

    def validate():
        report = run(["validate"])
        return max(r["deviation"] / r["tolerance"] for r in report["results"])

    def spectrum():
        return run(["spectrum", "--model", "two-c", "--K", "0", "--alpha0", "0.3",
                    "--beta0", "0.3", "--n-levels", "4000"])["results"]["oracle_delta"]

    def evolve(n):
        return lambda: run(["evolve", "--preset", "HIV", "--n-per-mode", str(n)]
                           )["diagnostics"]["max_norm_error"]

    yield "cli validate", "cli.main", None, validate
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


def series_cases(bogoliubov, evolution, onemode, rep, twomode):
    """(case, layer, size, fn) for the ``run_series`` loads, over 21 times
    unless one says otherwise; fn returns the largest norm error."""
    times = np.linspace(0.0, 2.0, 21)

    def series(model, psi0, grid=times):
        return lambda: max(evolution.run_series(model, psi0, grid).norm_errors)

    g = bogoliubov.GroupElement
    reps = twomode.TwoModeRep(rep.MultibosonRep(1, (0.7,)), rep.MultibosonRep(2, (0.5, 1.5)))
    h = twomode.TwoModeHamiltonian(reps, g(1.3, -1), g(-0.6, 1), (0, 1))
    model = evolution.FullModel(h, (1.0, 0.7), tail_tol=math.inf, n_per_mode=40)
    yield ("run_series generic", "evolution.run_series", 40,
           series(model, evolution.basis_state(model, (2, 3))))
    one = rep.MultibosonRep(1, (1.0,))
    h = evolution.CanonicalInteraction("C", twomode.TwoModeRep(one, one), (0, 0), 200,
                                       scale=0.8, offset=0.3)
    model = evolution.FullModel(h, (1.0, 0.7), tail_tol=math.inf)
    rng = np.random.default_rng(17)
    psi0 = rng.standard_normal(200 * 200) + 1j * rng.standard_normal(200 * 200)
    yield ("run_series C-form spread", "evolution.run_series", 200,
           series(model, psi0 / np.linalg.norm(psi0)))
    # continuous one-mode classes (one LAPACK eigendecomposition each), from
    # the basis state a quarter into the window
    for case, (mu, nu, alpha0), n, points in (("3", (1.39, -1.64, 2.04), 780, 21),
                                              ("1", (0.975, 0.0, 1.37), 275, 201)):
        sector = rep.OneModeSector(rep.MultibosonRep(1, (alpha0,)), 0, n)
        model = evolution.FullModel(onemode.OneModeHamiltonian(mu, nu, sector), (1.0,),
                                    tail_tol=math.inf)
        yield (f"run_series one-mode class {case} {points} times", "evolution.run_series", n,
               series(model, evolution.basis_state(model, (n // 4,)),
                      np.linspace(0.0, 2.0, points)))


def oracle_chains(onemode, rep, twomode):
    """(case, size, op, chain, count, n_atoms) for each oracle window: the
    window is ``jacobi.oracle_eigs(op, count, top=chain.pairs_top)``, and its
    first n_atoms paired entries meet the chain's atoms."""
    for case, mu, nu in (("class 5 bottom", 4.0, 1.0), ("class 6 top", -4.0, -1.0)):
        for n in (500, 2000, 4000):
            sector = rep.OneModeSector(rep.MultibosonRep(1, (1.3,)), 0, n)
            op = onemode.jacobi(onemode.OneModeHamiltonian(mu, nu, sector))
            yield (f"oracle window {case}", n, op, onemode.classify(mu, nu, 1.3),
                   ORACLE_COUNT, ORACLE_COUNT)
    blk = twomode.CBlock(0, 0.3, 0.3, n_levels=4000)
    chain = twomode.hc_chain(blk)
    n_atoms = chain.family.n_atoms()
    yield ("oracle window C-block top", 4000, twomode.hc_block_jacobi(blk), chain,
           n_atoms + 1, n_atoms)


def oracle_cases(jacobi, onemode, rep, twomode):
    """(case, size, path, fn) for each oracle window of ``oracle_chains``;
    fn returns the window's largest distance to its closed-form atoms."""
    certified = getattr(jacobi, "_certified_windows", None)
    for case, n, op, chain, count, n_atoms in oracle_chains(onemode, rep, twomode):
        top = chain.pairs_top
        seeded = certified is not None and certified(
            op.diag_array(), op.offdiag_array(), count, top) is not None

        def fn(op=op, chain=chain, count=count, n_atoms=n_atoms, top=top):
            w = jacobi.oracle_eigs(op, count, top=top)
            return float(np.abs(chain.atoms(n_atoms) - chain.pair(w, n_atoms)).max())
        yield case, n, ("certified windows" if seeded else "index window"), fn


def dblock_rows(twomode, tree):
    """One row per D-block size: the timed call is the block's whole
    eigenvector matrix, and its error is taken afterwards from the traced
    call's result (V^T V alone costs more than the solve at K 2000)."""
    rows = []
    for K in (500, 2000):
        blk = twomode.DBlock(K, 0.5, 2.7)
        op, chain = twomode.hd_block_jacobi(blk), twomode.hd_chain(blk)
        seconds, repeat, peak, v = measure(lambda: chain.eigenvectors(op, K + 1, K + 1))
        d, e, energies = op.diag_array(), op.offdiag_array()[:, None], chain.atoms(K + 1)
        jv = d[:, None] * v
        jv[:-1] += e * v[1:]
        jv[1:] += e * v[:-1]
        residual = np.linalg.norm(jv - v * energies, axis=0).max() / np.abs(energies).max()
        rows.append({"tree": tree, "case": "D-block eigenvectors",
                     "layer": "jacobi.Chain.eigenvectors", "size": K + 1,
                     "seconds": seconds, "repeat": repeat, "peak_bytes": peak,
                     "accuracy": max(_gram_error(v, K + 1), float(residual))})
        print(json.dumps(rows[-1]), file=sys.stderr)
    return rows


def section_rows(validation, tree):
    """One row per section of ``validation.SECTIONS``, each measured alone
    and called with the generator state the suite reaches it with: one
    ``validation.run_sections`` run, its table wrapped for that run, reads
    each section's state and further arguments (older trees pass more)."""
    starts = []

    def wrap(section):
        def run(rng, *args):
            starts.append((section, rng.bit_generator.state, args))
            return section(rng, *args)
        return run

    sections = validation.SECTIONS
    validation.SECTIONS = tuple(map(wrap, sections))
    try:
        names = [checks[0].name for checks in validation.run_sections()]
    finally:
        validation.SECTIONS = sections
    rows = []
    for name, (section, state, args) in zip(names, starts):
        rng = np.random.default_rng()

        def fn(section=section, state=state, args=args, rng=rng):
            rng.bit_generator.state = state
            return max(c.deviation / c.tolerance for c in section(rng, *args))
        seconds, repeat, peak, accuracy = measure(fn)
        rows.append({"tree": tree, "case": f"validate section {name}",
                     "layer": "validation.run_all", "size": None, "seconds": seconds,
                     "repeat": repeat, "peak_bytes": peak, "accuracy": accuracy})
        print(json.dumps(rows[-1]), file=sys.stderr)
    return rows


def record(args):
    sys.path.insert(0, os.path.abspath(args.src))
    from multiboson import bogoliubov, cli, evolution, onemode, rep, twomode, validation
    # the module: older trees bind the package attribute to onemode.jacobi
    jacobi = importlib.import_module("multiboson.jacobi")
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for case, layer, size, fn in (*cli_cases(cli, tmp), *layer_cases(bogoliubov),
                                      *series_cases(bogoliubov, evolution, onemode, rep,
                                                    twomode)):
            seconds, repeat, peak, accuracy = measure(fn)
            rows.append({"tree": args.tree, "case": case, "layer": layer, "size": size,
                         "seconds": seconds, "repeat": repeat, "peak_bytes": peak,
                         "accuracy": accuracy})
            print(json.dumps(rows[-1]), file=sys.stderr)
    for case, size, path, fn in oracle_cases(jacobi, onemode, rep, twomode):
        seconds, repeat, peak, accuracy = measure(fn)
        rows.append({"tree": args.tree, "case": case, "layer": "jacobi.oracle_eigs",
                     "size": size, "seconds": seconds, "repeat": repeat,
                     "peak_bytes": peak, "accuracy": accuracy, "path": path})
        print(json.dumps(rows[-1]), file=sys.stderr)
    rows += dblock_rows(twomode, args.tree)
    rows += section_rows(validation, args.tree)
    record = {"about": __doc__.split("\n\n")[0], "accuracy": ACCURACY, "rows": []}
    if os.path.exists(args.out):
        with open(args.out) as f:
            record["rows"] = [r for r in json.load(f)["rows"] if r["tree"] != args.tree]
    record["rows"] += rows
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")


def median_interval(ratios):
    """(median, low, high) of the ratios; (low, high) are the order
    statistics k and R + 1 - k, with k the largest rank whose binomial tail
    P(B < k), B ~ Bin(R, 1/2), is at most 0.025, so the interval holds the
    median with probability at least 0.95 whatever the distribution (None
    for both when R < 6 leaves no such k)."""
    x = sorted(ratios)
    n = len(x)
    tail, k = 0.0, 0
    while tail + math.comb(n, k) / 2 ** n <= 0.025:
        tail += math.comb(n, k) / 2 ** n
        k += 1
    if k == 0:
        return statistics.median(x), None, None
    return statistics.median(x), x[k - 1], x[n - k]


def checkout(rev, tmp):
    """(commit id, directory) of git revision ``rev`` of this repository,
    checked out into the directory ``tmp``/parent by a local ``git clone
    --shared`` (no network)."""
    rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", rev + "^{commit}"],
                         check=True, capture_output=True, text=True).stdout.strip()
    parent = os.path.join(tmp, "parent")
    subprocess.run(["git", "clone", "--quiet", "--shared", "--no-checkout", ROOT, parent],
                   check=True)
    subprocess.run(["git", "-C", parent, "checkout", "--quiet", "--detach", rev], check=True)
    return rev, parent


def compare(args):
    """The interleaved A/B record of ``--against`` (module docstring)."""
    rng = random.Random()
    rounds = {"change": [], "parent": []}
    with tempfile.TemporaryDirectory() as tmp:
        rev, parent = checkout(args.against, tmp)
        srcs = {"change": os.path.abspath(args.src), "parent": os.path.join(parent, "src")}
        for i in range(args.rounds):
            for tree in rng.sample(sorted(srcs), 2):
                out = os.path.join(tmp, f"{tree}-{i}.json")
                env = dict(os.environ, RECORD_PAD="x" * rng.randrange(4096))
                subprocess.run([sys.executable, os.path.abspath(__file__), "--tree", tree,
                                "--src", srcs[tree], "--out", out],
                               check=True, env=env, stderr=subprocess.DEVNULL)
                with open(out) as f:
                    rounds[tree].append({(r["case"], r["size"]): r for r in json.load(f)["rows"]})
                print(f"round {i + 1}/{args.rounds}: {tree}", file=sys.stderr)
    rows = []
    for key, first in rounds["change"][0].items():
        if key not in rounds["parent"][0]:
            continue
        row = {"case": key[0], "size": key[1], "layer": first["layer"]}
        for metric in ("seconds", "peak_bytes"):
            ratios = [c[key][metric] / p[key][metric]
                      for c, p in zip(rounds["change"], rounds["parent"])]
            med, low, high = median_interval(ratios)
            row[metric] = {"ratio": med, "interval": [low, high]}
        row["accuracy"] = {tree: rounds[tree][0][key]["accuracy"] for tree in srcs}
        rows.append(row)
        print(f"{key[0]:<58} {str(key[1]):>5}  seconds {_span(row['seconds'])}  "
              f"peak {_span(row['peak_bytes'])}")
    record = {"about": "change/parent ratios over interleaved rounds (bench/record.py "
                       "--against)", "against": rev, "rounds": args.rounds,
              "accuracy": ACCURACY, "rows": rows}
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")


def _span(metric):
    low, high = metric["interval"]
    if low is None:
        return f"{metric['ratio']:.3f} (no interval)"
    return f"{metric['ratio']:.3f} [{low:.3f}, {high:.3f}]"


def main(argv=None):
    args = parse_args(argv)
    if args.against is not None:
        compare(args)
    else:
        record(args)


if __name__ == "__main__":
    main()
