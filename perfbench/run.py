#!/usr/bin/env python3
"""Benchmark of multiboson: seeded workloads, checked outputs, per-layer trace.

Usage (from the repository root):

    python3 perfbench/run.py --workload spectra --seed 1 --seconds 20 --trace 0

``--workload`` is ``spectra``, ``evolve``, ``validate`` or ``all``.  One client
issues each operation after the previous one returns (closed loop, nothing
queues), in this process, with BLAS pinned to one thread.  A run is a fixed
number of whole rounds of operations, sized so that it takes about
``--seconds``.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
runs the same rounds untraced and then traced and prints the per-layer
metrics and the tracing overhead.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; a full record goes to ``perfbench/out/``.  See
perfbench/README.md.
"""

import os

# before numpy is imported anywhere: one BLAS thread, recorded below
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import collections
import ctypes
import glob
import json
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("spectra", "evolve", "validate")
SETUP_REPEATS = 5
# Seconds one round takes on a 2-vCPU x86_64 VM.  The number of rounds in a
# run follows from --seconds and these figures alone, never from a clock, so
# every run of a workload does the same kinds of operations and fails the
# same number of them, whatever the seed or the load of the host.
ROUND_S = {"spectra": 11.0, "evolve": 15.0, "validate": 14.0}
P90_MIN_BEYOND = 10


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="import multiboson, generate the first round, exit")
    return p.parse_args(argv)


def import_program():
    if not os.path.isfile(os.path.join(SRC, "multiboson", "__init__.py")):
        sys.exit(f"error: no multiboson sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads
    return workloads


def measure_setup(workload, seed, repeats) -> list[float]:
    """Wall time of fresh processes that import multiboson and generate inputs."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        # no timeout: with one, subprocess polls for the exit in steps of up to 50 ms
        subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-probe",
                        "--workload", workload, "--seed", str(seed), "--seconds", "0"],
                       check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return times


def blas_threads() -> dict:
    """Threads reported by each OpenBLAS copy bundled with numpy and scipy."""
    found = {}
    for pkg in ("numpy", "scipy"):
        mod = sys.modules.get(pkg) or __import__(pkg)
        libdir = os.path.join(os.path.dirname(os.path.dirname(mod.__file__)), pkg + ".libs")
        for lib in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[pkg] = fn()
                    break
    return found


def environment(seed) -> dict:
    import numpy
    import scipy
    return {"seed": seed, "nproc": os.cpu_count(),
            "blas_threads": blas_threads(),
            "blas_env": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine()}


def evaluate(wl, op, raw, exc, latency) -> dict:
    """Check one operation's output; name the cause of any failure."""
    rec = {"kind": op.kind, "latency_s": latency, "checks": [], "failure": None}
    if exc is not None:
        rec["failure"] = ("truncation-overflow" if isinstance(exc, wl.TruncationOverflowError)
                          else op.defect([type(exc).__name__])
                          or f"unexplained: {type(exc).__name__}: {exc}")
        rec["params"] = op.params
        return rec
    try:
        checks = op.check(raw)
    except Exception as err:  # the output could not be read or checked
        rec["failure"] = f"unexplained: check raised {type(err).__name__}: {err}"
        return rec
    rec["checks"] = [[name, float(err), float(tol), acc] for name, err, tol, acc in checks]
    failed = [name for name, err, tol, _ in checks if not err <= tol]
    if failed:
        rec["failure"] = op.defect(failed) or f"unexplained: failed {','.join(failed)}"
        rec["params"] = op.params
    else:
        rec["digits"] = [wl.digits(err, tol) for _, err, tol, use in checks if use]
    return rec


def round_count(workload, seconds) -> int:
    return max(1, round(seconds / ROUND_S[workload]))


def run_rounds(wl, workload, seed, rounds, tracer=None):
    """Run rounds 0 .. ``rounds`` - 1 of the workload; one record per operation."""
    records = []
    for index in range(rounds):
        for op in wl.make_round(workload, seed, index, OUT_DIR):
            if tracer is not None:
                tracer.op = len(records)
            raw = exc = None
            t0 = time.perf_counter()
            try:
                raw = op.run()
            except Exception as err:  # counted as a failed operation
                exc = err
            latency = time.perf_counter() - t0
            records.append(evaluate(wl, op, raw, exc, latency))
    return records


def warm_up(wl, workload):
    for op in wl.warmup_round(workload):
        op.run()


def summarize(records) -> dict:
    lat = sorted(r["latency_s"] for r in records)
    failed = [r for r in records if r["failure"]]
    digits = [d for r in records for d in r.get("digits", ())]
    out = {"attempted": len(records), "failed": len(failed),
           "ops_per_s": len(lat) / sum(lat), "op_p50_s": statistics.median(lat),
           "fail_frac": len(failed) / len(records),
           "accuracy_digits": statistics.median(digits) if digits else None,
           "accuracy_digits_min": min(digits) if digits else None,
           "failures": dict(collections.Counter(r["failure"] for r in failed))}
    if len(lat) >= P90_MIN_BEYOND * 10:
        p90 = statistics.quantiles(lat, n=10)[-1]
        out["op_p90_s"] = p90
        out["op_p90_samples_beyond"] = sum(x > p90 for x in lat)
    out["samples"] = len(lat)
    return out


def end_to_end(summary, setup) -> dict:
    return {"setup_s": (statistics.median(setup), "s"),
            "ops_per_s": (summary["ops_per_s"], "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "accuracy_digits": (summary["accuracy_digits"], "digits")}


def per_layer(wl, tracing, args, rounds, records, problems):
    """Run the same rounds again with wrappers installed; returns the
    per-layer metrics and the traced records, and appends to ``problems``."""
    layers = tracing.load_layers()["layers"]
    tracer = tracing.Tracer(layers)
    with tracer:
        missed = tracer.unwrapped_bindings()
        traced = run_rounds(wl, args.workload, args.seed, rounds, tracer=tracer)
    if missed:
        problems.append(f"wrappers missing in: {missed}")
    if [(r["kind"], r["checks"]) for r in traced] != [(r["kind"], r["checks"]) for r in records]:
        problems.append("traced accuracy outputs differ from untraced ones")
    metrics = tracer.aggregate(rounds)
    base = sum(r["latency_s"] for r in records)
    metrics["trace.overhead_frac"] = (sum(r["latency_s"] for r in traced) / base - 1.0, "frac")
    for name, moves in layers.items():
        if args.workload in moves and metrics[f"{name}.calls"][0] < 1:
            problems.append(f"layer {name} records no call on {args.workload}")
    tracer.write_spans(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-spans.csv"))
    return metrics, traced


def run_workload(args) -> int:
    wl = import_program()
    import tracing
    os.makedirs(OUT_DIR, exist_ok=True)
    # set-up probes before and after the rounds, so that their median spans the
    # run and not one phase of a shared host
    setup = [] if args.trace else measure_setup(args.workload, args.seed,
                                                SETUP_REPEATS - SETUP_REPEATS // 2)
    warm_up(wl, args.workload)
    rounds = round_count(args.workload, args.seconds / 2 if args.trace else args.seconds)
    records = run_rounds(wl, args.workload, args.seed, rounds)
    if not args.trace:
        setup += measure_setup(args.workload, args.seed, SETUP_REPEATS // 2)
    summary = summarize(records)
    problems = [f"unexplained failure: {k}" for k in summary["failures"]
                if k.startswith("unexplained")]
    result = {"workload": args.workload, "why": wl.WHY,
              "environment": environment(args.seed), "seconds": args.seconds,
              "trace": args.trace, "rounds": rounds, "setup_runs_s": setup,
              "load": "closed loop, one client, in-process; no queueing",
              "summary": summary,
              "defects": {k: wl.DEFECTS[k] for k in summary["failures"] if k in wl.DEFECTS}}
    if args.trace:
        metrics, traced = per_layer(wl, tracing, args, rounds, records, problems)
        result["traced_summary"] = summarize(traced)
        records = records + traced
    else:
        metrics = end_to_end(summary, setup)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result["problems"] = problems
    result["records"] = records
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1, default=str)
    report(result, summary, path)
    failed = sum(1 for r in records if r["failure"])
    print(json.dumps({"correct": not problems, "attempted": len(records),
                      "failed": failed, "metrics": result["metrics"]}))
    return 0


def report(result, summary, path):
    env = result["environment"]
    print(f"workload {result['workload']}: {result['why'][result['workload']]}")
    print(f"seed {env['seed']}  nproc {env['nproc']}  blas threads {env['blas_threads']}  "
          f"python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}")
    print(f"rounds {result['rounds']}  operations {summary['attempted']}  "
          f"failed {summary['failed']}  fail_frac {summary['fail_frac']:.4f}")
    for name, count in sorted(summary["failures"].items()):
        print(f"  failure {name}: {count}  {result['defects'].get(name, '')}")
    print(f"op_p50_s {summary['op_p50_s']:.6g} s")
    if "op_p90_s" in summary:
        print(f"op_p90_s {summary['op_p90_s']:.6g} s  "
              f"({summary['op_p90_samples_beyond']} of {summary['samples']} samples beyond)")
    else:
        print(f"op_p90_s not reported: {summary['samples']} samples, "
              f"fewer than {P90_MIN_BEYOND} beyond the 90th percentile")
    print(f"accuracy_digits_min {summary['accuracy_digits_min']} digits")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for problem in result["problems"]:
        print(f"PROBLEM: {problem}")
    print(f"record: {os.path.relpath(path, ROOT)}")


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        last = json.loads(lines[-1])
        merged["correct"] &= last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        merged["metrics"].update({f"{workload}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        wl = import_program()
        wl.make_round(args.workload, args.seed, 0, OUT_DIR)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
