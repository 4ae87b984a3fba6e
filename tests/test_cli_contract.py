"""The command-line input contract, over seeded draws of every subcommand's
flags at extreme values.

Each draw passes some flags on the command line and others through a
``--config`` file, and ``main`` must then keep one of three promises:

* exit 0 prints only finite numbers, apart from the documented non-finite
  tokens: the ±Infinity ends of a continuum support, the NaN of an undefined
  Fano factor, and the echo of ``--tail-tol inf``;
* exit 2 names on stderr a flag that was given (on the command line or as a
  config key), or the required flag that was missing;
* exit 1 comes from an exception type of ``multiboson.errors``, whose name
  the failure message leads with.

Any other exception escapes ``main`` and fails the draw.  Sizes are capped
so that no draw builds more than about 100 MB or runs for more than about
a second: ``--n-levels`` <= 4000, ``--n-per-mode`` <= 16, ``--k-max`` <= 40,
small ``--count``.
"""

import contextlib
import csv
import io
import json
import math
import re

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from multiboson import errors
from multiboson.cli import main

# the values the draws take for real flags, as written on a command line
EXTREMES = ("0", "1", "-1", "1e300", "-1e300", "1e-300", "inf", "-inf", "nan",
            "1e6", "0.5", "-0.5", "2.5")
REALS = st.sampled_from(EXTREMES) | st.sampled_from(("4", "1.5", "0.3", "-2", "0.7"))
INTS = st.sampled_from(("0", "1", "-1", "2", "3", "0.5", "1e6", "x"))


def _ints(*valid):
    return st.sampled_from(tuple(map(str, valid))) | INTS


def _grid():
    lo_hi = st.tuples(REALS, REALS, st.sampled_from(("0", "1", "3", "-3", "21")))
    return (lo_hi.map(":".join)
            | st.lists(REALS, min_size=1, max_size=3).map(",".join))


# per subcommand, each flag's config key and the strategy of its values
FLAGS = {
    "spectrum": {
        "model": st.sampled_from(("onemode", "two-d", "two-c", "bogus")),
        "mu": REALS, "nu": REALS,
        "alpha0_table": st.lists(REALS, min_size=1, max_size=3).map(",".join),
        "l": _ints(1, 2, 3), "r": _ints(0, 1, 2),
        "n_levels": _ints(2, 10, 100, 400, 4000),
        "count": _ints(1, 3, 8, 40),
        "K": _ints(0, 1, 3, 40, 200, -2),
        "alpha0": REALS, "beta0": REALS,
        "format": st.sampled_from(("json", "csv", "xml")),
    },
    "evolve": {
        "preset": st.sampled_from(("HI", "HII", "HIII", "HIV", "bogus")),
        "n_per_mode": _ints(2, 3, 8, 16),
        "state": st.sampled_from(("2,3", "2,2", "1,1", "0,0", "-1,3", "2", "200,3",
                                  "x,1", "1e300,1")),
        "times": _grid(),
        "tail_tol": REALS,
        "format": st.sampled_from(("json", "csv")),
    },
    "coherent": {
        "zeta_re": REALS, "zeta_im": REALS, "alpha0": REALS,
        "n_levels": _ints(2, 10, 80, 400, 4000),
        "k_max": _ints(0, 6, 10, 40),
        "format": st.sampled_from(("json", "csv")),
    },
    # validate takes no key of its own and one run takes 0.1-0.5 s, so it
    # draws only config keys it refuses: the retired quick switch, or a key
    # of another command
    "validate": {
        "quick": st.sampled_from(("true", "false")),
        "count": st.just("3"),
    },
}
# the spectrum flags each model reads; a draw mostly picks among them
MODEL_KEYS = {
    "onemode": ("mu", "nu", "alpha0_table", "l", "r", "n_levels", "count", "format"),
    "two-d": ("K", "alpha0", "beta0", "count", "format"),
    "two-c": ("K", "alpha0", "beta0", "n_levels", "count", "format"),
    "bogus": ("model", "format"),
}


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


@st.composite
def _draws(draw):
    """(argv, config dict, the flags given, the required flags missing)."""
    task = draw(st.sampled_from(("onemode", "onemode", "two-d", "two-c", "bogus",
                                 "evolve", "evolve", "coherent", "coherent", "validate")))
    command = task if task in FLAGS else "spectrum"
    flags = FLAGS[command]
    pool = sorted(flags)
    if command == "spectrum":
        pool = list(MODEL_KEYS[task]) + draw(st.lists(st.sampled_from(pool), max_size=1))
    keys = draw(st.lists(st.sampled_from(pool), unique=True,
                         min_size=1 if command == "validate" else 0, max_size=6))
    values = {key: draw(flags[key]) for key in keys}
    if command == "spectrum" and task != "onemode" or draw(st.booleans()) and task == "onemode":
        values["model"] = task
    argv, config = [command], {}
    for key, value in values.items():
        if command == "validate" or draw(st.integers(0, 3)) == 0:
            # a config value: the JSON number of a numeric string, else the string
            try:
                config[key] = json.loads(value)
            except ValueError:
                config[key] = value
        else:
            argv.append(f"{_flag(key)}={value}")
    missing = set()
    if command == "spectrum" and values.get("model", "onemode") == "onemode":
        missing = {_flag(key) for key in ("mu", "nu") if key not in values}
    return argv, config, set(map(_flag, values)), missing


def _allowed(path: tuple) -> bool:
    """Whether a non-finite number at this place of the output is documented."""
    return ("continuum" in path or any(str(p).startswith("fano") for p in path)
            or path[:2] == ("config", "tail_tol"))


def _non_finite(obj, path=()):
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _non_finite(value, path + (key,))
    elif isinstance(obj, list):
        for value in obj:
            yield from _non_finite(value, path)
    elif isinstance(obj, float) and not math.isfinite(obj) and not _allowed(path):
        yield path, obj


def _payloads(out: str):
    """The printed output as (path prefix, decoded value) pairs."""
    if out.startswith("{"):
        yield (), json.loads(out)
        return
    lines = out.splitlines()
    for line in lines:
        if line.startswith("# config: "):
            yield ("config",), json.loads(line[len("# config: "):])
    rows = list(csv.reader(ln for ln in lines if not ln.startswith("#")))
    header = rows[0]
    for row in rows[1:]:
        if header[0] == "t":        # evolve: one row per time
            yield (), {k: float(v) for k, v in zip(header, row)}
        else:                       # key, value rows; spectrum values are JSON
            yield (row[0],), json.loads(row[1])


def _violation(draw, tmp_dir) -> str | None:
    """What the draw's run breaks of the contract, or None."""
    argv, config, named, missing = draw
    if config:
        path = tmp_dir / "cfg.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
        named = named | {"--config"}
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code == 0:
        # validate prints its text report; the --out report is not asked for
        docs = _payloads(out) if argv[0] != "validate" else ()
        bad = [hit for prefix, doc in docs for hit in _non_finite(doc, prefix)]
        return f"exit 0 prints non-finite numbers {bad}" if bad else None
    if code == 2:
        flags = set(re.findall(r"--[A-Za-z][A-Za-z0-9-]*", err))
        return None if flags & (named | missing) else f"exit 2 names no given flag: {err}"
    name = re.search(r"^failure: (\w+):", err, re.MULTILINE)
    if code == 1 and name and name.group(1) in errors.__all__:
        return None
    return f"exit {code} from no errors.py type: {err}"


@settings(max_examples=2000, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(draw=_draws())
def test_cli_input_contract(tmp_path_factory, draw):
    problem = _violation(draw, tmp_path_factory.getbasetemp())
    assert problem is None, (draw, problem)
