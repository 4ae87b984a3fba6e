#!/usr/bin/env python3
"""Compare multiboson outputs of two source trees bit for bit.

Usage (from the repository root):

    python3 bench/bits.py --against REV [--src DIR]
    python3 bench/bits.py --dump OUT [--src DIR]

``--dump`` runs a fixed corpus on the package under ``--src`` (default: this
checkout's) and writes every output to OUT as JSON, one list of tokens per
output, each token "path: value" with every float in float hex.  The
corpus:

- the evolve and spectra operations of ``perfbench.workloads.make_round``,
  seeds 1-5, rounds 0-1 (this checkout's ``perfbench``, imported read-only,
  for either tree): the raw output of each, parsed JSON for a CLI command;
- every check deviation and tolerance of ``validation.run_all``;
- ``multiboson evolve --format json``, ``coherent`` and ``spectrum --model
  two-d`` and ``two-c`` at their defaults, ``spectrum --mu 4 --nu 1`` (one
  mode, which has no default labels), and ``evolve --format json`` for the
  presets HI-HIV at cutoff 96;
- ``evolution.evolve_full`` at two times on the nine one-mode classes, a D-
  and a C-form canonical interaction, a generic two-mode interaction and
  the HIV preset at cutoff 48;
- the ``jacobi.oracle_eigs`` window arrays of ``bench/record.py``'s
  ``oracle_chains`` (one-mode classes 5 and 6 at 500, 2000 and 4000 levels,
  the 4000-level C-block top), and the full-range spectrum of the D-block
  at K 200, alpha0 0.5, beta0 2.7.

An output that raises is the token "raises <type>: <message>".

``--against REV`` dumps the corpus of both trees, each in its own subprocess
of this script, through one round of ``bench/record.py``'s ``run_trees`` (REV
checked out by a local ``git clone --shared``, no network), and prints for
every output "equal" or the first token where the trees differ, then one
summary line.  The exit status is 1 when some output differs.
Against itself (``--against HEAD`` on a clean checkout) every output is equal.
"""

import os
import sys

# pins BLAS to one thread before numpy is imported
from record import ROOT, oracle_chains, run_trees

import argparse
import contextlib
import dataclasses
import io
import json
import tempfile

import numpy as np

SEEDS = range(1, 6)
ROUNDS = range(2)
# (mu, nu) of each one-mode class
ONEMODE_LABELS = {1: (1.0, 0.0), 2: (0.0, 1.0), 3: (1.0, -0.6), 4: (-1.0, 0.6),
                  5: (1.25, 0.6), 6: (-1.25, -0.6), 7: (0.6, 1.25), 8: (-0.6, -1.25),
                  9: (1.0, 1.0)}
TIMES = (0.3, 2.0)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", default=os.path.join(ROOT, "src"),
                   help="directory holding the multiboson package (default: this checkout's)")
    p.add_argument("--dump", metavar="OUT", help="write the corpus outputs of --src to OUT")
    p.add_argument("--against", metavar="REV", help="compare --src with git revision REV")
    args = p.parse_args(argv)
    if (args.dump is None) == (args.against is None):
        p.error("give exactly one of --dump and --against")
    return args


def tokens(x, path=""):
    """The tokens "path: value" of a nested output, floats in float hex."""
    if dataclasses.is_dataclass(x):
        x = {f.name: getattr(x, f.name) for f in dataclasses.fields(x)}
    if isinstance(x, np.ndarray):
        x = x.tolist()
    if isinstance(x, (bool, np.bool_, str)) or x is None:
        yield f"{path}: {x!r}"
    elif isinstance(x, (int, np.integer)):
        yield f"{path}: {int(x)}"
    elif isinstance(x, (float, np.floating)):
        yield f"{path}: {float(x).hex()}"
    elif isinstance(x, (complex, np.complexfloating)):
        yield from tokens({"re": x.real, "im": x.imag}, path)
    elif isinstance(x, dict):
        for key, value in x.items():
            yield from tokens(value, f"{path}.{key}")
    else:
        for i, value in enumerate(x):
            yield from tokens(value, f"{path}[{i}]")


def _cli(cli, argv):
    """(exit code, stdout parsed as JSON where it is, stderr) of cli.main."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return _cli_raw((code, out.getvalue(), err.getvalue()))


def _output(raw):
    """A workload operation's raw output, a CLI command's stdout parsed."""
    return _cli_raw(raw) if isinstance(raw, tuple) else raw


def _cli_raw(raw):
    code, out, err = raw
    with contextlib.suppress(ValueError):
        out = json.loads(out)
    return {"exit": code, "stdout": out, "stderr": err}


def _evolve_full_cases(evolution, onemode, rep, twomode, GroupElement):
    """(name, model, psi0) of the evolve_full corpus."""
    sector = rep.OneModeSector(rep.MultibosonRep(2, (0.5, 1.5)), 1, 40)
    for index, (mu, nu) in ONEMODE_LABELS.items():
        model = evolution.FullModel(onemode.OneModeHamiltonian(mu, nu, sector), (0.7,),
                                    tail_tol=np.inf)
        psi0 = evolution.basis_state(model, (7,)) + 0.5 * evolution.basis_state(model, (11,))
        yield f"class {index}", model, psi0
    reps = twomode.TwoModeRep(rep.MultibosonRep(1, (1.0,)), rep.MultibosonRep(2, (0.7, 1.3)))
    for kind in ("D", "C"):
        h = evolution.CanonicalInteraction(kind, reps, (0, 1), 24, scale=1.3, offset=-0.4)
        model = evolution.FullModel(h, (0.6, 0.9), tail_tol=np.inf)
        psi0 = evolution.basis_state(model, (2, 3)) - 0.7j * evolution.basis_state(model, (5, 1))
        yield kind, model, psi0
    h = twomode.TwoModeHamiltonian(reps, GroupElement(1.3, 1), GroupElement(-0.8, -1), (0, 1))
    model = evolution.FullModel(h, (0.6, 0.9), tail_tol=np.inf, n_per_mode=10)
    yield "generic", model, evolution.basis_state(model, (2, 3))
    model = evolution.FullModel(evolution.preset("HIV", 48).mapping, (1.0, 1.0),
                                tail_tol=np.inf)
    yield "HIV 48", model, evolution.basis_state(model, (2, 3))


def corpus(tmp):
    """(name, callable) of every corpus output, in a fixed order."""
    from multiboson import cli, evolution, jacobi, onemode, rep, twomode, validation
    from multiboson.bogoliubov import GroupElement
    from perfbench import workloads

    for workload in ("evolve", "spectra"):
        for seed in SEEDS:
            for index in ROUNDS:
                ops = workloads.make_round(workload, seed, index, tmp, shuffle=False)
                for i, op in enumerate(ops):
                    yield (f"{workload} seed {seed} round {index} op {i} {op.kind}",
                           lambda op=op: _output(op.run()))
    yield "validate", lambda: [(c.name, c.deviation, c.tolerance, c.passed)
                               for c in validation.run_all()]
    for argv in (["evolve", "--format", "json"], ["coherent"], ["spectrum", "--model", "two-d"],
                 ["spectrum", "--model", "two-c"], ["spectrum", "--mu", "4", "--nu", "1"]):
        yield f"cli {' '.join(argv)}", lambda argv=argv: _cli(cli, argv)
    for name in ("HI", "HII", "HIII", "HIV"):
        yield (f"cli evolve {name} 96",
               lambda name=name: _cli(cli, ["evolve", "--preset", name, "--n-per-mode", "96",
                                            "--format", "json"]))
    for name, model, psi0 in _evolve_full_cases(evolution, onemode, rep, twomode, GroupElement):
        yield (f"evolve_full {name}",
               lambda model=model, psi0=psi0: [evolution.evolve_full(model, psi0, t)
                                               for t in TIMES])
    for case, n, op, chain, count, _ in oracle_chains(onemode, rep, twomode):
        yield (f"{case} {n}",
               lambda op=op, chain=chain, count=count: jacobi.oracle_eigs(
                   op, count, top=chain.pairs_top))
    blk = twomode.DBlock(200, 0.5, 2.7)
    yield ("oracle full range D-block K 200",
           lambda: jacobi.oracle_eigs(twomode.hd_block_jacobi(blk)))


def dump(args):
    sys.path[:0] = [os.path.abspath(args.src), ROOT]
    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, run in corpus(tmp):
            try:
                outputs[name] = list(tokens(run()))
            except Exception as exc:
                outputs[name] = [f"raises {type(exc).__name__}: {exc}"]
    with open(args.dump, "w") as f:
        json.dump(outputs, f)


def compare(args):
    """Dump both trees and report every output (module docstring)."""
    rev, dumps = run_trees(args.against, args.src, lambda src, out: [
        os.path.abspath(__file__), "--src", src, "--dump", out], 1)
    (change,), (parent,) = dumps["change"], dumps["parent"]
    equal = 0
    for name in {**change, **parent}:
        a, b = change.get(name), parent.get(name)
        if a == b:
            equal += 1
            print(f"{name}: equal")
        elif a is None or b is None:
            print(f"{name}: only in the {'parent' if a is None else 'change'}")
        else:
            i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
            print(f"{name}: differs at token {i}: change {a[i] if i < len(a) else 'ends'}"
                  f" | parent {b[i] if i < len(b) else 'ends'}")
    total = len({**change, **parent})
    print(f"{equal} of {total} outputs equal bit for bit against {rev}")
    return 0 if equal == total else 1


def main(argv=None):
    args = parse_args(argv)
    if args.against is not None:
        return compare(args)
    dump(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
