#!/usr/bin/env python3
"""Record how long multiboson takes, end to end and per layer, as JSON rows.

Usage (from the repository root):

    python3 bench/record.py [--src DIR] --out BENCH.json
    python3 bench/record.py --against REV [--rounds R] --out AB.json

Every case runs in this process, with BLAS pinned to one thread: one timed
warm-up call, ``REPEATS`` untraced samples and one more call under
tracemalloc (its peak of traced bytes, numpy buffers included, is
``peak_bytes``).  Each sample calls the case ``repeat`` times in a row,
ceil(``MIN_SAMPLE`` / the warm-up call's time) and at least once, so a
sample lasts about 50 ms however fast the case; ``seconds`` is the median
sample's wall time per call.  A row is

    {case, layer, size, seconds, repeat, peak_bytes, accuracy}

where ``size`` is the case's problem size (n_levels, cutoff or block order
n, K + 1 for a D-block, the top degree for ``gram_check``; null for
validate sections and the whole-validate case) and ``accuracy`` is the
case's own error figure (lower is better), described under "accuracy" in
the output file.  Oracle-window rows also carry
``path``: "certified windows" or "index window", the route
``jacobi.oracle_eigs`` took.  The rows of the package under ``--src``
(default: this checkout's) go into a fresh ``--out`` file.

Cases: the CLI commands ``validate``, ``spectrum --model two-c`` at
n_levels 4000, ``spectrum --model two-d`` at K 200, ``spectrum --mu 4 --nu
1`` (one-mode class 5) at n_levels 1000 with count 8, a query of the
spectra workload's kind whose front end (reading flags, writing JSON)
weighs a large share of its time, ``evolve --preset HIV`` at cutoffs 48
and 96, and the spectra workload's ``coherent`` query at n_levels 80 (its
moment checks run the radial quadrature); the Meixner block of the
implementer at n 240; the implementer grid of ``validate``; the quadrature
of ``orthopoly.gram_check`` on Laguerre(-0.5) at n 10; the coefficient
streams (``JacobiOperator.diag_array`` and ``offdiag_array``) of the
4000-level C-block of ``spectrum --model two-c``; the block apply
``jacobi.spectral_apply`` on the ``jacobi.Spectral`` record of the class-1
``run_series`` row below (275 levels, 201 times); ``run_series`` over
21 times on a generic two-mode interaction at n_per_mode 40 (its ``peak_bytes`` is the
dense eigensolve's) and on a C-form interaction at n_per_mode 200 from a
state spread over the whole window (every charge block occupied), and on
the continuous one-mode classes 3 at n_levels 780 over 21 times and 1 at
n_levels 275 over 201 times (the costliest operations of the benchmark's
evolve workload), with the one ``jacobi.oracle_eigh`` call of the class-3
row timed alone beside it (the LAPACK floor of that row); the oracle windows ``jacobi.oracle_eigs`` takes for the
atoms of one-mode class 5 (bottom) and class 6 (top) at n_levels 500, 2000
and 4000 with count 5, and for the 4000-level C-block of ``spectrum --model
two-c`` (top, the window ``hc_truncation_check`` takes at full size, which
is never seeded); the whole eigenvector matrix of a D-block at K 500 and
2000 (``hd_chain(block).eigenvectors``); the whole spectrum of the K 2000
D-block against its closed form (``hd_chain(block).oracle_delta``); and
each section of the validate suite's table ``validation.SECTIONS``, called
alone (each seeds its own draws).  Every case yields ``(row, fn[,
score])`` to one loop that measures it (``measure``) and writes its row.

Rows whose code a change did not touch have moved by 0.74-1.56x between
two trees recorded one after the other on a 2-vCPU x86_64 VM, so one
recording per tree reads only a change well outside that range.
``--against REV`` compares instead, through ``run_trees``: it checks REV
out into a temporary directory by a local ``git clone --shared`` (no
network), removed on exit, and runs R rounds (``--rounds``, default 10).
Each round records both trees, ``--src`` ("change") and REV's ("parent"),
each in its own subprocess of this script, in random order and under an
environment padded to a random size (stack layout alone moves timings:
Mytkowicz et al., ASPLOS 2009).  Each row then reports the median over
rounds of the change/parent ratio of ``seconds`` and of ``peak_bytes``,
with a distribution-free interval of at least 95 % for that median from
the order statistics of the R ratios (the 2nd and 9th of 10; Kalibera &
Jones, ISMM 2013), and both trees' accuracy.  Both trees run this script,
so REV's validate sections must take no argument: every tree since each
section seeds its own draws (from 15c0bfb until then a section took the
suite's generator).  Against itself (``--against HEAD`` on a clean
checkout) every interval should hold 1.
"""

import os

# before numpy is imported anywhere
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import itertools
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

# what each case's accuracy figure is, by case name (run_series, oracle
# windows, gram_check and validate sections by prefix)
ACCURACY = {
    "cli validate": "largest deviation / tolerance over the report's checks",
    "cli spectrum two-c": "results.oracle_delta: closed-form bound state against the "
                          "LAPACK oracle of the truncated block",
    "cli spectrum two-d": "results.oracle_delta: closed-form block energies against the "
                          "LAPACK oracle's whole spectrum of the block",
    "cli spectrum onemode": "results.oracle_delta: the first five closed-form class-5 "
                            "(Meixner) atoms against the LAPACK oracle's lowest "
                            "eigenvalues of the truncated chain",
    "cli evolve HIV": "diagnostics.max_norm_error",
    "cli coherent": "largest results.moments[].rel_error: the radial measure's moments "
                    "against k! (alpha0)_k",
    "meixner block": "largest entry of |U^T U - I| on the converged columns",
    "implementer grid": "largest entry of |U^T U - I| on the converged columns, "
                        "over the grid",
    "gram_check": "the deviation gram_check returns: largest |<P_i, P_j> - delta_ij|",
    "coefficient streams": "largest |stream coefficient - the mapped family's recurrence "
                           "coefficient| over both arrays, relative to max |a_k|",
    "block apply": "largest |norm of the evolved state - 1| over the 201 times",
    "validate section": "largest deviation / tolerance over the section's checks",
    "oracle window": "largest |closed-form atom - paired eigenvalue| over the window's "
                     "atoms (the C-block's bound state; its continuum edge has no atom)",
    "D-block eigenvectors": "max(largest entry of |V^T V - I|, largest |J v_n - E_n v_n| "
                            "/ max |E_n|), E_n the closed-form energies; the error is "
                            "computed once, outside the timed calls",
    "D-block spectrum": "Chain.oracle_delta: largest |closed-form energy - eigenvalue| "
                        "over the whole block",
    "run_series": "largest norm error over the grid (ObservableSeries.norm_errors)",
    "oracle_eigh": "largest entry of |V^T V - I| of the eigenvectors",
}
ORACLE_COUNT = 5
# the continuous one-mode run_series rows: (class, (mu, nu, alpha0), n_levels,
# times), each from the basis state a quarter into the window
ONEMODE_SERIES = (("3", (1.39, -1.64, 2.04), 780, 21), ("1", (0.975, 0.0, 1.37), 275, 201))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", default=os.path.join(ROOT, "src"),
                   help="directory holding the multiboson package (default: this checkout's)")
    p.add_argument("--out", required=True, help="JSON file to write the rows into")
    p.add_argument("--against", metavar="REV",
                   help="compare --src with git revision REV, interleaved")
    p.add_argument("--rounds", type=int, default=10,
                   help="rounds of an --against comparison (default 10)")
    args = p.parse_args(argv)
    if args.rounds < 1:
        p.error("--rounds must be at least 1")
    return args


def measure(fn, score=float):
    """(seconds per call, repeat, traced peak bytes, accuracy): the median
    over ``REPEATS`` samples of ``repeat`` calls each, repeat set by the
    timed warm-up call (module docstring); the accuracy is ``score`` of the
    traced call's result, taken after tracing stops."""
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
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return statistics.median(times), repeat, peak, score(result)


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

    def two_d():
        return run(["spectrum", "--model", "two-d", "--K", "200", "--alpha0", "0.5",
                    "--beta0", "2.7"])["results"]["oracle_delta"]

    def onemode():
        return run(["spectrum", "--mu", "4", "--nu", "1", "--n-levels", "1000",
                    "--count", "8"])["results"]["oracle_delta"]

    def evolve(n):
        return lambda: run(["evolve", "--preset", "HIV", "--n-per-mode", str(n)]
                           )["diagnostics"]["max_norm_error"]

    def coherent():
        moments = run(["coherent", "--zeta-re", "0.5", "--zeta-im", "0.3", "--alpha0", "1.7",
                       "--n-levels", "80", "--k-max", "6"])["results"]["moments"]
        return max(m["rel_error"] for m in moments)

    yield dict(case="cli validate", layer="cli.main", size=None), validate
    yield dict(case="cli spectrum two-c", layer="cli.main", size=4000), spectrum
    yield dict(case="cli spectrum two-d", layer="cli.main", size=201), two_d
    yield dict(case="cli spectrum onemode", layer="cli.main", size=1000), onemode
    for n in (48, 96):
        yield dict(case="cli evolve HIV", layer="cli.main", size=n), evolve(n)
    yield dict(case="cli coherent", layer="cli.main", size=80), coherent


def _gram_error(u, nc):
    return float(np.abs(u[:, :nc].T @ u[:, :nc] - np.eye(nc)).max())


def layer_cases(bg, orthopoly):
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

    yield dict(case="meixner block", layer="bogoliubov.implementer", size=240), block
    yield dict(case="implementer grid", layer="bogoliubov.implementer", size=240), grid
    yield (dict(case="gram_check Laguerre(-0.5)", layer="orthopoly.gram_check", size=10),
           lambda: orthopoly.gram_check(orthopoly.Laguerre(-0.5), 10))


def stream_apply_cases(jacobi, onemode, rep, twomode):
    """The coefficient streams of the 4000-level C-block, scored against the
    block's chain, and ``jacobi.spectral_apply`` on the spectral data of the
    class-1 ``run_series`` row, formed once outside the timed call; each fn
    returns its arrays, scored after the traced call."""
    blk = twomode.CBlock(0, 0.3, 0.3, n_levels=4000)
    op, chain = twomode.hc_block_jacobi(blk), twomode.hc_chain(blk)

    def stream_error(arrays):
        a, b = chain.recurrence(np.arange(op.size, dtype=float))
        d, e = arrays
        return float(max(np.abs(d - a).max(), np.abs(e - b[:-1]).max()) / np.abs(a).max())
    yield (dict(case="coefficient streams", layer="jacobi.JacobiOperator", size=op.size),
           lambda: (op.diag_array(), op.offdiag_array()), stream_error)
    _, (mu, nu, alpha0), n, points = ONEMODE_SERIES[1]
    sector = rep.OneModeSector(rep.MultibosonRep(1, (alpha0,)), 0, n)
    energies, vecs = jacobi.oracle_eigh(onemode.jacobi(onemode.OneModeHamiltonian(mu, nu, sector)))
    psi = np.eye(n)[n // 4].astype(complex)
    times = np.linspace(0.0, 2.0, points)
    if hasattr(jacobi, "Spectral"):
        args = (jacobi.Spectral.project(energies, vecs, psi), times)
    else:
        # a tree from before the spectral record: the coefficients of the
        # basis state, V^T psi, are one row of V
        args = (vecs, energies, vecs[n // 4].astype(complex), times)
    yield (dict(case="block apply", layer="jacobi.spectral_apply", size=n),
           lambda: jacobi.spectral_apply(*args),
           lambda amps: float(np.abs(np.linalg.norm(amps, axis=1) - 1.0).max()))


def series_cases(bogoliubov, evolution, jacobi, onemode, rep, twomode):
    """The ``run_series`` loads, over 21 times unless one says otherwise;
    fn returns the largest norm error.  Beside the class-3 row, the one
    ``jacobi.oracle_eigh`` call that row makes, alone: the LAPACK floor of
    the evolve workload's costliest operations."""
    times = np.linspace(0.0, 2.0, 21)

    def series(case, n, model, psi0, grid=times):
        return (dict(case=case, layer="evolution.run_series", size=n),
                lambda: max(evolution.run_series(model, psi0, grid).norm_errors))

    g = bogoliubov.GroupElement
    reps = twomode.TwoModeRep(rep.MultibosonRep(1, (0.7,)), rep.MultibosonRep(2, (0.5, 1.5)))
    h = twomode.TwoModeHamiltonian(reps, g(1.3, -1), g(-0.6, 1), (0, 1))
    model = evolution.FullModel(h, (1.0, 0.7), tail_tol=math.inf, n_per_mode=40)
    yield series("run_series generic", 40, model, evolution.basis_state(model, (2, 3)))
    one = rep.MultibosonRep(1, (1.0,))
    h = evolution.CanonicalInteraction("C", twomode.TwoModeRep(one, one), (0, 0), 200,
                                       scale=0.8, offset=0.3)
    model = evolution.FullModel(h, (1.0, 0.7), tail_tol=math.inf)
    rng = np.random.default_rng(17)
    psi0 = rng.standard_normal(200 * 200) + 1j * rng.standard_normal(200 * 200)
    yield series("run_series C-form spread", 200, model, psi0 / np.linalg.norm(psi0))
    # continuous one-mode classes (one LAPACK eigendecomposition each)
    for case, (mu, nu, alpha0), n, points in ONEMODE_SERIES:
        sector = rep.OneModeSector(rep.MultibosonRep(1, (alpha0,)), 0, n)
        model = evolution.FullModel(onemode.OneModeHamiltonian(mu, nu, sector), (1.0,),
                                    tail_tol=math.inf)
        yield series(f"run_series one-mode class {case} {points} times", n, model,
                     evolution.basis_state(model, (n // 4,)), np.linspace(0.0, 2.0, points))
        if case == "3":
            op = onemode.jacobi(model.interaction)
            yield (dict(case=f"oracle_eigh one-mode class {case}", layer="jacobi.oracle_eigh",
                        size=n), lambda op=op: jacobi.oracle_eigh(op),
                   lambda wv, n=n: _gram_error(wv[1], n))


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
    """The oracle windows of ``oracle_chains``, each row naming its path;
    fn returns the window's largest distance to its closed-form atoms."""
    for case, n, op, chain, count, n_atoms in oracle_chains(onemode, rep, twomode):
        top = chain.pairs_top
        seeded = jacobi._certified_windows(op.diag_array(), op.offdiag_array(), count,
                                           top) is not None

        def fn(op=op, chain=chain, count=count, n_atoms=n_atoms, top=top):
            w = jacobi.oracle_eigs(op, count, top=top)
            return float(np.abs(chain.atoms(n_atoms) - chain.pair(w, n_atoms)).max())
        yield (dict(case=case, layer="jacobi.oracle_eigs", size=n,
                    path="certified windows" if seeded else "index window"), fn)


def dblock_cases(twomode):
    """One case per D-block size whose timed call is the block's whole
    eigenvector matrix, its error scored from the traced call's result (V^T V
    alone costs more than the solve at K 2000); then the whole spectrum of
    the K 2000 block, whose call returns its own error."""
    for K in (500, 2000):
        blk = twomode.DBlock(K, 0.5, 2.7)
        op, chain = twomode.hd_block_jacobi(blk), twomode.hd_chain(blk)

        def score(v, op=op, chain=chain):
            d, e, energies = op.diag_array(), op.offdiag_array()[:, None], chain.atoms(op.size)
            jv = d[:, None] * v
            jv[:-1] += e * v[1:]
            jv[1:] += e * v[:-1]
            residual = np.linalg.norm(jv - v * energies, axis=0).max() / np.abs(energies).max()
            return max(_gram_error(v, op.size), float(residual))
        yield (dict(case="D-block eigenvectors", layer="jacobi.Chain.eigenvectors", size=K + 1),
               lambda op=op, chain=chain: chain.eigenvectors(op, op.size, op.size), score)
    # op and chain are the last block's, K 2000
    yield (dict(case="D-block spectrum", layer="jacobi.Chain.oracle_delta", size=op.size),
           lambda: chain.oracle_delta(op))


def section_cases(validation):
    """One case per section of ``validation.SECTIONS``, each called alone,
    named by its first check in one ``validation.run_sections`` pass."""
    names = [checks[0].name for checks in validation.run_sections()]
    for name, section in zip(names, validation.SECTIONS):
        yield (dict(case=f"validate section {name}", layer="validation.run_all", size=None),
               lambda section=section: max(c.deviation / c.tolerance for c in section()))


def record(args):
    sys.path.insert(0, os.path.abspath(args.src))
    from multiboson import (bogoliubov, cli, evolution, jacobi, onemode, orthopoly, rep,
                            twomode, validation)
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for row, *case in itertools.chain(
                cli_cases(cli, tmp), layer_cases(bogoliubov, orthopoly),
                stream_apply_cases(jacobi, onemode, rep, twomode),
                series_cases(bogoliubov, evolution, jacobi, onemode, rep, twomode),
                oracle_cases(jacobi, onemode, rep, twomode), dblock_cases(twomode),
                section_cases(validation)):
            seconds, repeat, peak, accuracy = measure(*case)
            rows.append({**row, "seconds": seconds, "repeat": repeat, "peak_bytes": peak,
                         "accuracy": accuracy})
            print(json.dumps(rows[-1]), file=sys.stderr)
    with open(args.out, "w") as f:
        json.dump({"about": __doc__.split("\n\n")[0], "accuracy": ACCURACY, "rows": rows},
                  f, indent=1)
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


def run_trees(rev, src, command, rounds):
    """(commit id, {"change": [...], "parent": [...]}): per round, the JSON
    that this interpreter, run on the argv ``command(src, out)``, writes to
    ``out`` for the package tree ``src`` ("change") and for git revision
    ``rev`` ("parent"), interleaved as ``--against`` does (module docstring).
    A failing subprocess's stderr is printed and CalledProcessError raised."""
    rng = random.Random()
    outputs = {"change": [], "parent": []}
    with tempfile.TemporaryDirectory() as tmp:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", rev + "^{commit}"],
                             check=True, capture_output=True, text=True).stdout.strip()
        parent = os.path.join(tmp, "parent")
        subprocess.run(["git", "clone", "--quiet", "--shared", "--no-checkout", ROOT, parent],
                       check=True)
        subprocess.run(["git", "-C", parent, "checkout", "--quiet", "--detach", rev],
                       check=True)
        srcs = {"change": os.path.abspath(src), "parent": os.path.join(parent, "src")}
        out = os.path.join(tmp, "out.json")
        for i in range(rounds):
            for tree in rng.sample(sorted(srcs), 2):
                env = dict(os.environ, RECORD_PAD="x" * rng.randrange(4096))
                run = subprocess.run([sys.executable, *command(srcs[tree], out)], env=env,
                                     stderr=subprocess.PIPE, text=True)
                if run.returncode != 0:
                    print(run.stderr, end="", file=sys.stderr)
                    run.check_returncode()
                with open(out) as f:
                    outputs[tree].append(json.load(f))
                print(f"round {i + 1}/{rounds}: {tree}", file=sys.stderr)
    return rev, outputs


def compare(args):
    """The interleaved A/B record of ``--against`` (module docstring)."""
    rev, records = run_trees(args.against, args.src, lambda src, out: [
        os.path.abspath(__file__), "--src", src, "--out", out], args.rounds)
    rounds = {tree: [{(r["case"], r["size"]): r for r in record["rows"]} for record in recs]
              for tree, recs in records.items()}
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
        row["accuracy"] = {tree: rounds[tree][0][key]["accuracy"] for tree in rounds}
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
