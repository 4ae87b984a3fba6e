"""Command-line front end: spectrum queries, evolution runs, validation.

Subcommands ``validate``, ``spectrum``, ``evolve`` and ``coherent`` each
take ``--config`` (a JSON file of flag values) and ``--out``.  Every other
flag is declared once, in ``_FLAGS``, under its config key (the flag with
"_" for "-"): its subcommands, one converter that fixes its type and range,
and its default (per model or subcommand where it varies).  The argparse
tree, the config-key check, the defaults and every single-flag usage error
come from that table; config values pass the same converters, flags
override them, and a null is not given.  Reals are finite, but
``--tail-tol`` may be inf, its default.  Rules across flags stay in the
commands; the library checks each value where it enters, raising
``errors.ParameterError`` with its parameter names, mapped to flags here.

Exit codes: 0 success; 2 a usage error naming the flags at fault (the given
ones, if any); 1 a failure of another ``errors`` type, printed after its
name; any other exception is a defect and is not caught.  Exit-0 output
holds finite numbers but for two documented tokens: the infinite ends of a
continuum support (``-Infinity``, ``Infinity`` on a half line) and the
``NaN`` of an undefined Fano factor; the config echo repeats --tail-tol inf.
The parser is built once per process and must not be mutated; every option
defaults to None, so no state carries from one call to the next.

Dense LAPACK solves run at OpenBLAS's default thread count, while the
benchmark pins one: a generic n_per_mode 16 ``run_series`` took 7.8-15.9 ms
against 4.3-5.9 ms at one thread (2-vCPU VM); set OPENBLAS_NUM_THREADS=1.
"""

import argparse
import csv
import functools
import io
import json
import math
import sys

import numpy as np

from . import __version__, coherent, errors, evolution, onemode, rep, twomode, validation
from .errors import ParameterError

USAGE_ERROR = 2
FAILURE = 1
# every errors type but ParameterError, which is caught first, is a failure
_FAILURES = tuple(getattr(errors, name) for name in errors.__all__)


def _number(kind, low=-math.inf, inf=False):
    """Converter to a ``kind`` (int or float) x in (low, inf), or (low, inf] if ``inf``."""
    def convert(raw):
        if isinstance(raw, (bool, float) if kind is int else bool):
            raise TypeError(f"expected {kind.__name__}")
        x = kind(raw)
        if not (low < x < math.inf or inf and x == math.inf):
            raise ValueError(f"must lie in ({low}, inf{']' if inf else ')'}")
        return x
    return convert


def _choice(*options):
    def convert(raw):
        if raw not in options:
            raise ValueError(f"must be one of {', '.join(options)}")
        return raw
    return convert


def _items(raw) -> list:
    """A comma-separated string, a list or one value, as a list."""
    return raw.split(",") if isinstance(raw, str) else raw if isinstance(raw, list) else [raw]


def _parse_times(raw) -> list[float]:
    """Times "lo:hi:num" (num evenly spaced), comma-separated or listed; >= 1, finite."""
    if isinstance(raw, str) and ":" in raw:
        lo, hi, num = raw.split(":")
        lo, hi = _REAL(lo), _REAL(hi)
        if not math.isfinite(hi - lo):
            raise ValueError("hi - lo must be finite")
        times = np.linspace(lo, hi, max(int(num), 0)).tolist()
    else:
        times = [_REAL(t) for t in _items(raw)]
    if not times:
        raise ValueError("holds no times; give at least one")
    return times


def _as_written(parse):
    """Converter checking a value by ``parse`` and keeping it as written, for the echo."""
    return lambda raw: (parse(raw), raw)[1]


_REAL, _POSITIVE = _number(float), _number(float, 0.0)
# config key: (subcommands, converter, default or {model or subcommand: default})
_FLAGS = {
    "model": (("spectrum",), _choice("onemode", "two-d", "two-c"), "onemode"),
    "mu": (("spectrum",), _REAL, None),
    "nu": (("spectrum",), _REAL, None),
    "alpha0_table": (("spectrum",), lambda raw: [_POSITIVE(x) for x in _items(raw)], None),
    "l": (("spectrum",), _number(int, 0), 1),
    "r": (("spectrum",), _number(int, -1), 0),
    "n_levels": (("spectrum", "coherent"), _number(int, 1),
                 {"onemode": 100, "two-c": 4000, "coherent": 80}),
    "count": (("spectrum",), _number(int, 0), 8),
    "K": (("spectrum",), _number(int), 0),
    "alpha0": (("spectrum", "coherent"), _POSITIVE, 1.0),
    "beta0": (("spectrum",), _POSITIVE, 1.0),
    "preset": (("evolve",), _choice("HI", "HII", "HIII", "HIV"), "HIV"),
    "n_per_mode": (("evolve",), _number(int, 1), 48),
    "state": (("evolve",), _as_written(lambda raw: [_number(int)(x) for x in _items(raw)]),
              None),
    "times": (("evolve",), _as_written(_parse_times), "0:10:21"),
    "tail_tol": (("evolve",), _number(float, 0.0, inf=True), math.inf),
    "zeta_re": (("coherent",), _REAL, 1.0),
    "zeta_im": (("coherent",), _REAL, 0.0),
    "k_max": (("coherent",), _number(int, -1), 6),
    "format": (("spectrum", "evolve", "coherent"), _choice("json", "csv"),
               {"evolve": "csv", "spectrum": "json", "coherent": "json"}),
}
_KEYS = {c: tuple(k for k, f in _FLAGS.items() if c in f[0])
         for c in ("validate", "spectrum", "evolve", "coherent")}
# library parameter names -> the config keys that set them (a name that is a
# key maps to itself); a one-mode sector's alpha0 is an --alpha0-table entry
_API_KEYS = {"n": ("n_levels",), "n_atoms": ("count",), "k_checked": ("k_max",),
             "zeta": ("zeta_re", "zeta_im"), "alpha0": ("alpha0", "alpha0_table"),
             "alpha0_init": ("alpha0_table",), "beta": ("alpha0_table",),
             "alpha": ("alpha0_table",), "lam": ("alpha0_table",), "c": ("mu", "nu"),
             "phi": ("mu", "nu"), "name": ("preset",), "t_grid": ("times",),
             "occupations": ("state",),
             **dict.fromkeys("uvw", ("alpha0", "beta0", "K"))}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _flags(names, args, given) -> str:
    """The flags setting the parameters ``names``: those given, if any was."""
    keys = [k for k in dict.fromkeys(k for n in names for k in _API_KEYS.get(n, (n,)))
            if k in _KEYS[args.command] + ("config", "out")]
    named = [k for k in keys if k in given or k in ("config", "out") and getattr(args, k)]
    return ", ".join(map(_flag, named or keys)) or str(names)


def _config(args: argparse.Namespace) -> tuple[dict, dict]:
    """(values, given): ``given`` holds the converted value of each key set
    in ``--config`` or by a flag (which wins), ``values`` adds the defaults."""
    keys = _KEYS[args.command]
    raw = {}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ParameterError(("config",), str(exc)) from exc
        unknown = set(raw) - set(keys) if isinstance(raw, dict) else {"(not an object)"}
        if unknown:
            raise ParameterError(("config",), f"unknown config keys for "
                                 f"{args.command}: {sorted(unknown)}")
    raw.update((k, getattr(args, k)) for k in keys if getattr(args, k) is not None)
    given = {}
    for key, value in raw.items():
        if value is not None:
            try:
                given[key] = _FLAGS[key][1](value)
            except (TypeError, ValueError) as exc:
                raise ParameterError((key,), f"{value!r} is not admissible: {exc}") from exc
    values = {}
    for key in keys:
        default = _FLAGS[key][2]
        if isinstance(default, dict):
            default = default.get(args.command, default.get(given.get("model", "onemode")))
        values[key] = given.get(key, default)
    return values, given


def _emit(config: dict, results, diagnostics: dict, fmt: str, out_path,
          csv_rows=None, csv_header=("key", "value", "")):
    """Print or write the payload; CSV rows default to one JSON value per result."""
    payload = {"config": config, "version": __version__, "results": results,
               "diagnostics": diagnostics}
    if fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True)
        text += "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(csv_header)
        if csv_rows is None:
            csv_rows = [(k, json.dumps(v, sort_keys=True), "") for k, v in results.items()]
        for row in csv_rows:
            writer.writerow([f"{v:.17g}" if isinstance(v, float) else v for v in row])
        buf.write("# config: " + json.dumps(payload["config"], sort_keys=True) + "\n")
        buf.write(f"# version: {payload['version']}\n")
        text = buf.getvalue()
    if not out_path:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParameterError(("out",), str(exc)) from exc


def cmd_validate(cfg: dict, given: dict, out) -> int:
    results = validation.run_all()
    if out:
        _emit({"command": "validate"}, [r.to_dict() for r in results],
              {"n_checks": len(results), "n_passed": sum(r.passed for r in results)},
              "json", out)
    print(validation.format_report(results))
    return 0 if all(r.passed for r in results) else FAILURE


def _atom_rows(meas) -> list:
    return [{"location": x, "weight": w}
            for x, w in zip(meas.locations.tolist(), meas.weights.tolist())]


def cmd_spectrum(cfg: dict, given: dict, out) -> int:
    model, count = cfg["model"], cfg["count"]
    results, diagnostics = {}, {}
    if model == "onemode":
        missing = tuple(key for key in ("mu", "nu") if key not in given)
        if missing:
            raise ParameterError(missing, "--model onemode needs --mu and --nu")
        l, r, n = cfg["l"], cfg["r"], cfg["n_levels"]
        if r >= l:
            raise ParameterError(("r", "l"), f"--r {r} must be below --l {l}")
        if count > n and "count" in given:
            raise ParameterError(("count", "n_levels"), f"--count {count} > --n-levels {n}")
        count = min(count, n)
        mrep = rep.MultibosonRep(l, tuple(cfg["alpha0_table"] or [1.0] * l))
        sector = rep.OneModeSector(mrep, r, n)
        h = onemode.OneModeHamiltonian(cfg["mu"], cfg["nu"], sector)
        chain = onemode.classify(h.mu, h.nu, sector.alpha0)
        meas = chain.measure(count)
        results["case_index"] = chain.index
        results["family"] = type(chain.family).__name__ if chain.family else "diagonal"
        results["family_params"] = dict(vars(chain.family)) if chain.family else {}
        results["scale"] = chain.scale
        results["atoms"] = _atom_rows(meas)
        if meas.support is not None:
            results["continuum"] = list(meas.support)
        else:
            results["oracle_delta"] = chain.oracle_delta(onemode.jacobi(h), min(count, 5))
    else:
        a0, b0, K = cfg["alpha0"], cfg["beta0"], cfg["K"]
        if model == "two-d":
            blk = twomode.DBlock(K, a0, b0)
            chain = twomode.hd_chain(blk)
            results["eigenvalues"] = chain.atoms(K + 1).tolist()
            results["oracle_delta"] = chain.oracle_delta(twomode.hd_block_jacobi(blk))
        else:
            blk = twomode.CBlock(K, a0, b0, n_levels=cfg["n_levels"])
            fam, branch = twomode.uvw_params(K, a0, b0)
            chain = twomode.hc_chain(blk)
            # the window check first: it bounds the atom count
            m = chain.family.n_atoms()
            chk = twomode.hc_truncation_check(blk) if m else None
            meas = chain.measure()
            results["uvw"] = {**vars(fam), "branch": branch}
            results["atoms"] = _atom_rows(meas)
            results["continuum"] = list(meas.support)
            if m:
                diagnostics["truncation_top"] = chk.top_full.tolist()
                diagnostics["richardson"] = chk.extrapolated.tolist()
                diagnostics["agreement"] = chk.agreement
                gap = chain.pair(chk.extrapolated, m) - meas.locations
                results["oracle_delta"] = float(np.abs(gap).max())
    _emit({"command": "spectrum", **given}, results, diagnostics, cfg["format"], out)
    return 0


def cmd_evolve(cfg: dict, given: dict, out) -> int:
    pm = evolution.preset(cfg["preset"], cfg["n_per_mode"])
    # the printed occupation moments and norms do not see the free phases
    model = evolution.FullModel(pm.mapping, (1.0, 1.0), tail_tol=cfg["tail_tol"])
    if cfg["state"] is None:
        # (2, 3), each occupation n rounded down into its mode's sector r mod l
        m = pm.mapping
        ls = (m.reps.rep0.l, m.reps.rep1.l)
        occupations = tuple(n - (n - r) % l for n, l, r in zip((2, 3), ls, m.sector))
    else:
        occupations = tuple(map(int, _items(cfg["state"])))
    psi0 = evolution.basis_state(model, occupations)
    series = evolution.run_series(model, psi0, _parse_times(cfg["times"]))
    rows = [(t, r.means[0], r.variances[0], r.fanos[0], r.means[1], r.variances[1],
             r.fanos[1], err) for t, r, err in zip(series.times, series.records,
                                                   series.norm_errors)]
    header = ("t", "mean_n0", "var_n0", "fano_n0",
              "mean_n1", "var_n1", "fano_n1", "norm_error")
    _emit({"command": "evolve", **given}, [dict(zip(header, row)) for row in rows],
          {"max_norm_error": max(series.norm_errors)}, cfg["format"], out, rows, header)
    return 0


def cmd_coherent(cfg: dict, given: dict, out) -> int:
    zeta = complex(cfg["zeta_re"], cfg["zeta_im"])
    al, n, k_max = cfg["alpha0"], cfg["n_levels"], cfg["k_max"]
    # the measure first: its alpha0 range is the narrowest
    meas = coherent.radial_measure(al, k_checked=k_max)
    state = coherent.coherent_amplitudes(zeta, al, n)
    sector = rep.OneModeSector(rep.MultibosonRep(1, (al,)), 0, n)
    norm = float(np.linalg.norm(state))
    resid = float(np.linalg.norm(rep.apply_lowering(sector, state) - zeta * state) / norm)
    norm2 = norm ** 2
    kern = coherent.kernel(abs(zeta) ** 2, al)
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
    rows = [(k, results[k], "") for k in ("eigenstate_residual", "norm_sq",
                                          "kernel_identity_error")]
    rows += [("moment_rel_error_k%d" % m["k"], m["rel_error"], "") for m in moments]
    _emit({"command": "coherent", **given}, results, {}, cfg["format"], out, rows)
    return 0


_COMMANDS = {
    "validate": (cmd_validate, "run the cross-module invariant suite"),
    "spectrum": (cmd_spectrum, "closed-form spectra with oracle deltas"),
    "evolve": (cmd_evolve, "observable series under a preset"),
    "coherent": (cmd_coherent, "coherent-state diagnostics"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The tree of ``_FLAGS``: each flag stores its string under its key."""
    p = argparse.ArgumentParser(prog="multiboson",
                                description="cluster-model spectra and evolution")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)
    for command, (_, text) in _COMMANDS.items():
        sp = sub.add_parser(command, help=text)
        for key in _KEYS[command]:
            sp.add_argument(_flag(key), dest=key)
        sp.add_argument("--config")
        sp.add_argument("--out")
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    given = {}
    try:
        cfg, given = _config(args)
        return _COMMANDS[args.command][0](cfg, given, args.out)
    except ParameterError as exc:
        print(f"error: {_flags(exc.names, args, given)}: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except _FAILURES as exc:
        print(f"failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return FAILURE


if __name__ == "__main__":
    sys.exit(main())
