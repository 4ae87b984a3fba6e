"""Command-line front end: spectrum queries, evolution runs, validation.

Subcommands: ``validate``, ``spectrum``, ``evolve``, ``coherent``.  A JSON
config file (``--config``) supplies defaults; explicit flags override it.
Exit codes: 0 success, 1 numerical/validation failure, 2 usage errors.

The argparse tree is built once per process, on the first ``main`` call,
and reused by every later call; ``parse_args`` returns a fresh namespace
each time and every option defaults to None, so no state carries from one
call to the next.  Callers must not mutate what ``build_parser()`` returns.
"""

import argparse
import csv
import functools
import io
import json
import math
import sys

import numpy as np

from . import __version__, coherent, evolution, onemode, rep, twomode, validation
from .errors import BoundaryAmbiguityError
from .jacobi import oracle_eigs

USAGE_ERROR = 2
FAILURE = 1

_KNOWN_KEYS = {
    "validate": {"quick"},
    "spectrum": {"model", "mu", "nu", "alpha0_table", "l", "r", "n_levels",
                 "count", "K", "alpha0", "beta0", "format"},
    "evolve": {"preset", "n_per_mode", "omega0", "omega1", "state", "times",
               "tail_tol", "format"},
    "coherent": {"zeta_re", "zeta_im", "alpha0", "n_levels", "k_max", "format"},
}


def _fmt(x) -> str:
    return f"{x:.17g}"


def _config(args: argparse.Namespace) -> dict:
    """The ``--config`` file overlaid with every flag given on the command
    line; both take the keys ``_KNOWN_KEYS[args.command]``."""
    cfg = {}
    if args.config is not None:
        with open(args.config) as fh:
            cfg = json.load(fh)
    unknown = set(cfg) - _KNOWN_KEYS[args.command]
    if unknown:
        raise ValueError(f"unknown config keys for {args.command}: {sorted(unknown)}")
    for key in sorted(_KNOWN_KEYS[args.command]):
        val = getattr(args, key)
        if val is not None:
            cfg[key] = val
    return cfg


def _emit(payload: dict, fmt: str, out_path, csv_rows=None, csv_header=None):
    if fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True, default=_json_default)
        text += "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(csv_header)
        for row in csv_rows:
            writer.writerow([_fmt(v) if isinstance(v, float) else v for v in row])
        buf.write("# config: " + json.dumps(payload["config"], sort_keys=True,
                                            default=_json_default) + "\n")
        buf.write(f"# version: {payload['version']}\n")
        text = buf.getvalue()
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not serializable: {type(obj)}")


def _at_least(flag: str, value: int, low: int) -> int:
    """``value`` unchanged, or a usage error naming ``flag`` below ``low``."""
    if value < low:
        raise ValueError(f"{flag} must be >= {low}, got {value}")
    return value


def _positive(flag: str, value: float) -> float:
    """``value`` unchanged, or a usage error naming ``flag`` unless it is > 0."""
    if not value > 0:
        raise ValueError(f"{flag} must be > 0, got {value}")
    return value


def cmd_validate(args) -> int:
    cfg = _config(args)
    quick = bool(cfg.get("quick", False))
    results = validation.run_all(quick=quick)
    report = validation.format_report(results)
    payload = {
        "config": {"command": "validate", "quick": quick},
        "version": __version__,
        "results": [r.to_dict() for r in results],
        "diagnostics": {"n_checks": len(results),
                        "n_passed": sum(r.passed for r in results)},
    }
    if args.out:
        _emit(payload, "json", args.out)
    print(report)
    return 0 if all(r.passed for r in results) else FAILURE


def cmd_spectrum(args) -> int:
    cfg = _config(args)
    if args.alpha0_table is not None:
        try:
            cfg["alpha0_table"] = [float(x) for x in args.alpha0_table.split(",")]
        except ValueError as exc:
            raise ValueError(f"--alpha0-table: {exc}") from None
    model = cfg.get("model", "onemode")
    count = _at_least("--count", int(cfg.get("count", 8)), 1)
    fmt = cfg.get("format", "json")
    results = {}
    diagnostics = {}
    if model == "onemode":
        missing = [f"--{key}" for key in ("mu", "nu") if key not in cfg]
        if missing:
            raise ValueError(f"--model onemode needs {' and '.join(missing)}")
        l = _at_least("--l", int(cfg.get("l", 1)), 1)
        r = int(cfg.get("r", 0))
        if not 0 <= r < l:
            raise ValueError(f"--r must be in [0, {l}) for --l {l}, got {r}")
        table = cfg.get("alpha0_table", [1.0] * l)
        try:
            mrep = rep.MultibosonRep(l, tuple(table))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"--alpha0-table: {exc}") from None
        n = _at_least("--n-levels", int(cfg.get("n_levels", 100)), 2)
        if count > n and "count" in cfg:
            raise ValueError(f"--count {count} exceeds --n-levels {n}")
        count = min(count, n)
        sector = rep.OneModeSector(mrep, r, n)
        h = onemode.OneModeHamiltonian(float(cfg["mu"]), float(cfg["nu"]), sector)
        chain = onemode.classify(h.mu, h.nu, sector.alpha0)
        try:
            meas = chain.measure(count)
        except ValueError as exc:
            raise ValueError(f"--count {count} reaches atoms whose weight "
                             f"underflows: {exc}") from None
        results["case_index"] = chain.index
        results["family"] = type(chain.family).__name__ if chain.family else "diagonal"
        results["family_params"] = dict(vars(chain.family)) if chain.family else {}
        results["scale"] = chain.scale
        results["atoms"] = [{"location": loc, "weight": w}
                            for loc, w in meas.atoms]
        if meas.continuous is not None:
            results["continuum"] = list(meas.continuous.support)
        else:
            m = min(count, 5)
            w = oracle_eigs(onemode.jacobi(h), count=m, top=chain.pairs_top)
            gap = meas.atom_locations()[:m] - chain.pair(w, m)
            results["oracle_delta"] = float(np.abs(gap).max())
    elif model in ("two-d", "two-c"):
        a0 = _positive("--alpha0", float(cfg.get("alpha0", 1.0)))
        b0 = _positive("--beta0", float(cfg.get("beta0", 1.0)))
        K = int(cfg.get("K", 0))
        if model == "two-d":
            blk = twomode.DBlock(_at_least("--K", K, 0), a0, b0)
            ev = twomode.hd_chain(blk).atoms(K + 1)
            w = oracle_eigs(twomode.hd_block_jacobi(blk))
            results["eigenvalues"] = ev.tolist()
            results["oracle_delta"] = float(np.abs(ev - w).max())
        else:
            n = _at_least("--n-levels", int(cfg.get("n_levels", 4000)), 2)
            blk = twomode.CBlock(K, a0, b0, n_levels=n)
            try:
                chain = twomode.hc_chain(blk)
            except BoundaryAmbiguityError as exc:
                results["warning"] = str(exc)
                results["uvw_candidates"] = list(exc.candidates)
            else:
                meas = chain.measure()
                results["uvw"] = dict(vars(twomode.uvw_params(K, a0, b0)))
                results["atoms"] = [{"location": loc, "weight": w}
                                    for loc, w in meas.atoms]
                results["continuum"] = list(meas.continuous.support)
                m = len(meas.atoms)
                if m:
                    try:
                        chk = twomode.hc_truncation_check(blk)
                    except ValueError as exc:
                        raise ValueError(f"--n-levels {n} is too small: {exc}") from None
                    diagnostics["truncation_top"] = chk.top_full.tolist()
                    diagnostics["richardson"] = chk.extrapolated.tolist()
                    diagnostics["agreement"] = chk.agreement
                    gap = chain.pair(chk.extrapolated, m) - meas.atom_locations()
                    results["oracle_delta"] = float(np.abs(gap).max())
    else:
        raise ValueError(f"unknown model {model!r}")
    payload = {"config": {"command": "spectrum", **cfg}, "version": __version__,
               "results": results, "diagnostics": diagnostics}
    rows = None
    if fmt == "csv":
        rows = [(k, json.dumps(v, sort_keys=True, default=_json_default), "")
                for k, v in results.items()]
    _emit(payload, fmt, args.out, rows, ("key", "value", ""))
    return 0


def cmd_evolve(args) -> int:
    cfg = _config(args)
    name = cfg.get("preset", "HIV")
    n = int(cfg.get("n_per_mode", 48))
    try:
        pm = evolution.preset(name, n)
    except ValueError as exc:
        raise ValueError(f"--preset {name} --n-per-mode {n}: {exc}") from None
    tail = float(cfg.get("tail_tol", math.inf))
    model = evolution.FullModel(pm.mapping,
                                (float(cfg.get("omega0", 1.0)),
                                 float(cfg.get("omega1", 1.0))),
                                tail_tol=tail)
    state = cfg.get("state")
    if state is None:
        # (2, 3), each occupation n rounded down into its mode's sector r mod l
        m = pm.mapping
        ls = (m.reps.rep0.l, m.reps.rep1.l)
        state = ",".join(str(n - (n - r) % l) for n, l, r in zip((2, 3), ls, m.sector))
    try:
        psi0 = evolution.basis_state(model, tuple(int(x) for x in str(state).split(",")))
    except ValueError as exc:
        raise ValueError(f"--state {state!r} is not a basis state: {exc}") from None
    times = _parse_times(cfg.get("times", "0:10:21"))
    series = evolution.run_series(model, psi0, times)
    rows = []
    for t, rec, err in zip(series.times, series.records, series.norm_errors):
        rows.append((t, rec.means[0], rec.variances[0], rec.fanos[0],
                     rec.means[1], rec.variances[1], rec.fanos[1], err))
    header = ("t", "mean_n0", "var_n0", "fano_n0",
              "mean_n1", "var_n1", "fano_n1", "norm_error")
    payload = {"config": {"command": "evolve", **cfg}, "version": __version__,
               "results": [dict(zip(header, row)) for row in rows],
               "diagnostics": {"max_norm_error": max(series.norm_errors)}}
    _emit(payload, cfg.get("format", "csv"), args.out, rows, header)
    return 0


def _parse_times(arg) -> list[float]:
    """The evolve time grid: a list, "lo:hi:num" (num evenly spaced times)
    or comma-separated times.  A grid must hold at least one time."""
    try:
        if isinstance(arg, (list, tuple)):
            times = [float(t) for t in arg]
        elif ":" in str(arg):
            lo, hi, num = str(arg).split(":")
            times = np.linspace(float(lo), float(hi), max(int(num), 0)).tolist()
        else:
            times = [float(t) for t in str(arg).split(",")]
    except (TypeError, ValueError) as exc:
        raise ValueError(f"--times {arg!r} is not a time grid: {exc}") from None
    if not times:
        raise ValueError(f"--times {arg!r} holds no times; give at least one")
    return times


def cmd_coherent(args) -> int:
    cfg = _config(args)
    zeta = complex(float(cfg.get("zeta_re", 1.0)), float(cfg.get("zeta_im", 0.0)))
    al = _positive("--alpha0", float(cfg.get("alpha0", 1.0)))
    n = _at_least("--n-levels", int(cfg.get("n_levels", 80)), 2)
    k_max = _at_least("--k-max", int(cfg.get("k_max", 6)), 0)
    state = coherent.coherent_amplitudes(zeta, al, n)
    sector = rep.OneModeSector(rep.MultibosonRep(1, (al,)), 0, n)
    _, am, _ = rep.sector_matrices(sector)
    resid = float(np.linalg.norm(am @ state.amplitudes - zeta * state.amplitudes)
                  / state.norm())
    norm2 = state.norm() ** 2
    kern = coherent.kernel(abs(zeta) ** 2, al)
    try:
        meas = coherent.radial_measure(al, k_checked=k_max)
    except ValueError as exc:
        raise ValueError(f"--k-max {k_max} is too large: {exc}") from None
    moments = [{"k": k, "value": meas.moment(k), "target": meas.target_moment(k),
                "rel_error": meas.moment_error(k)}
               for k in range(k_max + 1)]
    results = {
        "eigenstate_residual": resid,
        "norm_sq": norm2,
        "kernel_norm_sq": float(np.real(kern)),
        "kernel_identity_error": float(abs(norm2 - kern)),
        "moments": moments,
    }
    payload = {"config": {"command": "coherent", **cfg}, "version": __version__,
               "results": results, "diagnostics": {}}
    rows = [("eigenstate_residual", resid, ""), ("norm_sq", norm2, ""),
            ("kernel_identity_error", float(abs(norm2 - kern)), "")]
    rows += [("moment_rel_error_k%d" % m["k"], m["rel_error"], "") for m in moments]
    _emit(payload, cfg.get("format", "json"), args.out, rows, ("key", "value", ""))
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="multiboson",
                                description="cluster-model spectra and evolution")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("validate", help="run the cross-module invariant suite")
    pv.add_argument("--quick", action="store_const", const=True)

    ps = sub.add_parser("spectrum", help="closed-form spectra with oracle deltas")
    ps.add_argument("--model", choices=("onemode", "two-d", "two-c"))
    ps.add_argument("--mu", type=float)
    ps.add_argument("--nu", type=float)
    ps.add_argument("--alpha0-table", dest="alpha0_table")
    ps.add_argument("--l", type=int)
    ps.add_argument("--r", type=int)
    ps.add_argument("--n-levels", dest="n_levels", type=int)
    ps.add_argument("--count", type=int)
    ps.add_argument("--K", type=int)
    ps.add_argument("--alpha0", type=float)
    ps.add_argument("--beta0", type=float)

    pe = sub.add_parser("evolve", help="observable series under a preset")
    pe.add_argument("--preset", choices=("HI", "HII", "HIII", "HIV"))
    pe.add_argument("--n-per-mode", dest="n_per_mode", type=int)
    pe.add_argument("--omega0", type=float)
    pe.add_argument("--omega1", type=float)
    pe.add_argument("--state")
    pe.add_argument("--times")
    pe.add_argument("--tail-tol", dest="tail_tol", type=float)

    pc = sub.add_parser("coherent", help="coherent-state diagnostics")
    pc.add_argument("--zeta-re", dest="zeta_re", type=float)
    pc.add_argument("--zeta-im", dest="zeta_im", type=float)
    pc.add_argument("--alpha0", type=float)
    pc.add_argument("--n-levels", dest="n_levels", type=int)
    pc.add_argument("--k-max", dest="k_max", type=int)

    for sp in (pv, ps, pe, pc):
        sp.add_argument("--config")
        sp.add_argument("--out")
    for sp in (ps, pe, pc):
        sp.add_argument("--format", choices=("json", "csv"))
    return p


_COMMANDS = {
    "validate": cmd_validate,
    "spectrum": cmd_spectrum,
    "evolve": cmd_evolve,
    "coherent": cmd_coherent,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception as exc:  # numerical failures
        print(f"failure: {exc}", file=sys.stderr)
        return FAILURE


if __name__ == "__main__":
    sys.exit(main())
