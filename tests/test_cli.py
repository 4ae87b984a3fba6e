"""Command-line interface: exit codes, output shapes, determinism."""

import argparse
import csv
import json
import math
import time
from pathlib import Path

import pytest

from multiboson.cli import _FLAGS, build_parser, main

# reference ``spectrum`` output, byte for byte, keyed "<model> <format>"
GOLDEN = json.loads((Path(__file__).parent / "data" / "spectrum_golden.json").read_text())
GOLDEN_ARGV = {
    "onemode": ["--model", "onemode", "--mu", "4", "--nu", "1",
                "--n-levels", "200", "--count", "3"],
    "two-d": ["--model", "two-d", "--K", "3", "--alpha0", "1.5", "--beta0", "0.5"],
    "two-c": ["--model", "two-c", "--K", "0", "--alpha0", "4.5", "--beta0", "0.5",
              "--n-levels", "200"],
}


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_passes(capsys):
    code, out, _ = _run(capsys, "validate")
    assert code == 0
    assert "PASS" in out and "FAIL\n" not in out


def test_validate_has_one_configuration(capsys, tmp_path):
    # validate takes only --config and --out: the retired --quick switch is
    # an unrecognized argument, and its config key an unknown one
    code, _, err = _run(capsys, "validate", "--quick")
    assert code == 2 and "unrecognized arguments: --quick" in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"quick": True}))
    code, _, err = _run(capsys, "validate", "--config", str(cfg))
    assert code == 2 and "--config" in err and "'quick'" in err


def test_validate_has_no_convention_option(capsys, tmp_path):
    # the D-blocks have one coefficient stream: neither a flag nor a config
    # key selects another
    code, _, err = _run(capsys, "validate", "--hd-convention", "printed")
    assert code == 2 and "--hd-convention" in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"hd_convention": "printed"}))
    code, _, err = _run(capsys, "validate", "--config", str(cfg))
    assert code == 2 and "hd_convention" in err


def test_validate_times_each_section(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    t0 = time.perf_counter()
    code, out, _ = _run(capsys, "validate", "--out", str(out_path))
    wall = time.perf_counter() - t0
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["config"] == {"command": "validate"}
    rows = {r["name"]: r for r in payload["results"]}
    seconds = {name: r["seconds"] for name, r in rows.items()}
    assert all(s >= 0.0 for s in seconds.values())
    # checks of one section share its time, and the sections add up to no
    # more than the run
    assert seconds["rep.commutators.interior"] == seconds["rep.casimir.sector_scalar"]
    assert seconds["twomode.hc.uvw"] == seconds["twomode.hc.continuum_edge"]
    assert seconds["twomode.hc.uvw"] > 0.0
    assert sum(set(seconds.values())) <= wall
    for name, s in seconds.items():
        line = next(ln for ln in out.splitlines() if ln.startswith(name + " "))
        assert f"{s:7.3f}s" in line


def test_spectrum_onemode_case5(capsys, tmp_path):
    out_path = tmp_path / "spec.json"
    code = main(["spectrum", "--model", "onemode", "--mu", "4", "--nu", "1",
                 "--alpha0-table", "1.0", "--count", "4", "--out", str(out_path)])
    assert code == 0
    payload = json.loads(out_path.read_text())
    res = payload["results"]
    assert res["case_index"] == 5
    locs = [a["location"] for a in res["atoms"]]
    assert locs == pytest.approx([2.0, 6.0, 10.0, 14.0])
    assert res["oracle_delta"] <= 1e-8
    assert payload["version"]
    assert payload["config"]["command"] == "spectrum"


@pytest.mark.parametrize("case, mu, nu", [(6, -4.0, -1.0), (8, -1.0, -4.0),
                                           (9, -1.5, -1.5)])
def test_spectrum_onemode_bounded_above(capsys, tmp_path, case, mu, nu):
    # spectra bounded above are compared with the top truncated eigenvalues
    out_path = tmp_path / "spec.json"
    code = main(["spectrum", "--model", "onemode", "--mu", str(mu), "--nu", str(nu),
                 "--alpha0-table", "1.0", "--n-levels", "2000",
                 "--out", str(out_path)])
    assert code == 0
    res = json.loads(out_path.read_text())["results"]
    assert res["case_index"] == case
    atoms = [abs(a["location"]) for a in res["atoms"]]
    assert res["oracle_delta"] <= 1e-9 * max(1.0, *atoms)


def test_spectrum_count_zero_usage_error(capsys):
    code, _, err = _run(capsys, "spectrum", "--model", "onemode", "--mu", "4",
                        "--nu", "1", "--count", "0")
    assert code == 2
    assert "count" in err


@pytest.mark.parametrize("argv, flag", [
    (["spectrum", "--model", "onemode", "--nu", "1"], "--mu"),
    (["spectrum", "--model", "onemode", "--mu", "4"], "--nu"),
    (["coherent", "--k-max", "-1"], "--k-max"),
    (["evolve", "--times", "0:1:0"], "--times"),
    (["evolve", "--times", "0:1:-3"], "--times"),
    (["evolve", "--preset", "HIV", "--state=-1,3", "--times", "0"], "--state"),
    (["evolve", "--preset", "HIV", "--state=2", "--times", "0"], "--state"),
    (["evolve", "--preset", "HIV", "--state=200,3", "--times", "0"], "--state"),
    (["coherent", "--alpha0", "0.05", "--k-max", "100"], "--k-max"),
    # a count below 1, continuous (case 1) and discrete (case 5)
    (["spectrum", "--model", "onemode", "--mu", "1", "--nu", "0", "--count", "0"], "--count"),
    (["spectrum", "--model", "onemode", "--mu", "4", "--nu", "1", "--count", "0"], "--count"),
    # the C-block's quarter truncation cannot hold its bound state and edge
    (["spectrum", "--model", "two-c", "--K", "0", "--alpha0", "0.3", "--beta0", "0.3",
      "--n-levels", "4"], "--n-levels"),
    (["spectrum", "--model", "onemode", "--mu", "1", "--nu", "1", "--n-levels", "1"],
     "--n-levels"),
    (["coherent", "--n-levels", "0"], "--n-levels"),
    (["spectrum", "--model", "two-d", "--K", "-1"], "--K"),
    (["spectrum", "--model", "onemode", "--mu", "1", "--nu", "2", "--r", "5"], "--r"),
    (["spectrum", "--model", "onemode", "--mu", "1", "--nu", "2", "--l", "0"], "--l"),
    (["spectrum", "--model", "two-d", "--alpha0", "-1"], "--alpha0"),
    (["spectrum", "--model", "two-c", "--beta0", "-1"], "--beta0"),
    (["coherent", "--alpha0", "-1"], "--alpha0"),
    (["evolve", "--n-per-mode", "1"], "--n-per-mode"),
    # every --alpha0-table error: sign, length, parse and non-finite values
    (["spectrum", "--model", "onemode", "--mu", "1", "--nu", "2",
      "--alpha0-table", "-1"], "--alpha0-table"),
    (["spectrum", "--model", "onemode", "--mu", "1", "--nu", "2", "--l", "2",
      "--alpha0-table", "1"], "--alpha0-table"),
    (["spectrum", "--model", "onemode", "--mu", "1", "--nu", "2",
      "--alpha0-table", "x"], "--alpha0-table"),
    (["spectrum", "--model", "onemode", "--mu", "1", "--nu", "2",
      "--alpha0-table", "1,,2"], "--alpha0-table"),
    (["spectrum", "--model", "onemode", "--mu", "1", "--nu", "2",
      "--alpha0-table", "nan"], "--alpha0-table"),
    (["spectrum", "--model", "onemode", "--mu", "1", "--nu", "2",
      "--alpha0-table", "inf"], "--alpha0-table"),
    # a count past the truncation, and one whose Meixner(1, 1/9) atom weights
    # c^n underflow past n 340: both exit 2 naming --count
    (["spectrum", "--model", "onemode", "--mu", "4", "--nu", "1",
      "--count", "100000000"], "--count"),
    (["spectrum", "--model", "onemode", "--mu", "4", "--nu", "1", "--n-levels", "1000",
      "--count", "400"], "--count"),
    # values the library rounds out of its domain: Meixner c to 1, phi to pi,
    # the D-block's dual Hahn gamma to -1, and a C-block whose 500000 bound
    # states no window holds
    (["spectrum", "--mu", "1e300", "--nu", "2"], "--mu"),
    (["spectrum", "--mu=-1", "--nu", "1e-300"], "--nu"),
    (["spectrum", "--model", "two-d", "--alpha0", "1e-300"], "--alpha0"),
    (["spectrum", "--model", "two-c", "--alpha0", "1e6"], "--alpha0"),
    # the tail tolerance may be inf, not 0, negative or NaN; every time finite
    (["evolve", "--tail-tol", "0"], "--tail-tol"),
    (["evolve", "--tail-tol=-1"], "--tail-tol"),
    (["evolve", "--tail-tol", "nan"], "--tail-tol"),
    (["evolve", "--times", "0,nan"], "--times"),
    (["evolve", "--times", "0:inf:3"], "--times"),
    # amplitudes past the double range fail the truncation criterion
    (["coherent", "--zeta-re", "1e300"], "--zeta-re"),
    (["coherent", "--zeta-re", "4", "--n-levels", "8"], "--n-levels"),
    # a finite time whose phases overflow: E t past the double range
    (["evolve", "--times", "1e305"], "--times"),
])
def test_usage_error_names_the_flag(capsys, argv, flag):
    code, _, err = _run(capsys, *argv)
    assert code == 2
    assert flag in err


@pytest.mark.parametrize("model", sorted(GOLDEN_ARGV))
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_spectrum_output_matches_golden(capsys, model, fmt):
    code, out, _ = _run(capsys, "spectrum", *GOLDEN_ARGV[model], "--format", fmt)
    assert code == 0
    assert out == GOLDEN[f"{model} {fmt}"]


def test_each_subcommand_takes_exactly_its_config_keys(capsys):
    # the parser holds exactly the flags of the table, each under its config
    # key and with its name, so no flag is parsed and then ignored
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    # validate takes no flag of the table, only --config and --out
    assert set(sub.choices) == {"validate", "spectrum", "evolve", "coherent"}
    for command, parser in sub.choices.items():
        keys = {key for key, (commands, _, _) in _FLAGS.items() if command in commands}
        dests = {a.dest for a in parser._actions if a.default is not argparse.SUPPRESS}
        assert dests - {"command", "config", "out"} == keys
        for key in keys:
            assert parser._option_string_actions["--" + key.replace("_", "-")].dest == key
    code, _, err = _run(capsys, "validate", "--format", "csv")
    assert code == 2 and "--format" in err


def test_parser_built_once_per_process(capsys):
    assert build_parser() is build_parser()
    _run(capsys, "spectrum", "--model", "two-d", "--K", "1")
    _run(capsys, "spectrum", "--model", "two-d", "--K", "2")
    assert build_parser.cache_info().misses == 1


def test_back_to_back_calls_do_not_leak_state(capsys):
    onemode = ("spectrum", "--model", "onemode", "--mu", "4", "--nu", "1")
    code, out, _ = _run(capsys, *onemode, "--count", "3")
    assert code == 0 and len(json.loads(out)["results"]["atoms"]) == 3
    code, out, _ = _run(capsys, *onemode)
    assert code == 0 and len(json.loads(out)["results"]["atoms"]) == 8
    code, out, _ = _run(capsys, *onemode, "--format", "csv")
    assert code == 0 and out.startswith("key,value,")
    code, out, _ = _run(capsys, *onemode)
    assert code == 0 and "format" not in json.loads(out)["config"]
    code, _, _ = _run(capsys, "spectrum", "--model", "bogus")
    assert code == 2
    code, _, _ = _run(capsys, *onemode)
    assert code == 0


def test_spectrum_onemode_continuum(capsys, tmp_path):
    out_path = tmp_path / "spec.json"
    code = main(["spectrum", "--model", "onemode", "--mu", "1", "--nu", "0",
                 "--out", str(out_path)])
    assert code == 0
    res = json.loads(out_path.read_text())["results"]
    assert res["atoms"] == []
    assert res["continuum"][0] == 0.0 and math.isinf(res["continuum"][1])


def test_spectrum_two_d(capsys, tmp_path):
    out_path = tmp_path / "spec.json"
    code = main(["spectrum", "--model", "two-d", "--K", "1",
                 "--alpha0", "1", "--beta0", "1", "--out", str(out_path)])
    assert code == 0
    res = json.loads(out_path.read_text())["results"]
    assert res["eigenvalues"] == pytest.approx([0.5, 2.5])
    assert res["oracle_delta"] <= 1e-9


def test_spectrum_two_c_two_bound_states(capsys, tmp_path):
    # u = (beta0 - alpha0 + 1) / 2 = -1.5 < -1: two bound states, each paired
    # with its own extrapolated truncation eigenvalue
    out_path = tmp_path / "spec.json"
    code = main(["spectrum", "--model", "two-c", "--K", "0",
                 "--alpha0", "4.5", "--beta0", "0.5", "--n-levels", "1000",
                 "--out", str(out_path)])
    assert code == 0
    res = json.loads(out_path.read_text())["results"]
    assert len(res["atoms"]) == 2
    assert res["oracle_delta"] <= 0.1


def test_spectrum_two_c_at_a_branch_edge(tmp_path):
    # beta0 - alpha0 = -1 exactly: the parameter that is 0 comes first as
    # u = 0, and the block is all continuum
    out_path = tmp_path / "spec.json"
    code = main(["spectrum", "--model", "two-c", "--K", "0",
                 "--alpha0", "2", "--beta0", "1", "--n-levels", "64",
                 "--out", str(out_path)])
    assert code == 0
    res = json.loads(out_path.read_text())["results"]
    assert res["atoms"] == []
    assert len(res["continuum"]) == 2 and res["continuum"][0] == -math.inf
    assert (res["uvw"]["u"], res["uvw"]["branch"]) == (0.0, "low")
    assert "warning" not in res and "uvw_candidates" not in res


def test_spectrum_two_c_refused_label_names_the_block_flags(capsys):
    # u + v rounds to 0: the family refuses the block's labels
    code, out, err = _run(capsys, "spectrum", "--model", "two-c", "--K", "-3",
                          "--alpha0", "1.94973219637944e-16",
                          "--beta0", "4.617328995191763", "--n-levels", "64")
    assert code == 2 and out == ""
    assert err.startswith("error: --alpha0, --beta0, --K: ")


def test_evolve_manley_rowe_columns(capsys, tmp_path):
    out_path = tmp_path / "run.csv"
    code = main(["evolve", "--preset", "HIV", "--state", "2,3",
                 "--times", "0:10:6", "--n-per-mode", "24",
                 "--out", str(out_path)])
    assert code == 0
    with open(out_path) as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], [r for r in rows[1:] if r and not r[0].startswith("#")]
    i0 = header.index("mean_n0")
    i1 = header.index("mean_n1")
    ie = header.index("norm_error")
    for row in data:
        assert float(row[i0]) - float(row[i1]) == pytest.approx(-1.0, abs=1e-8)
        assert float(row[ie]) <= 1e-10
    assert float(data[0][i0]) == pytest.approx(2.0)


@pytest.mark.parametrize("preset, state", [("HI", (2, 2)), ("HII", (2, 2)),
                                           ("HIII", (2, 2)), ("HIV", (2, 3))])
def test_evolve_default_state_lies_in_the_preset_sector(capsys, preset, state):
    # without --state, each occupation of (2, 3) is rounded down into its
    # mode's sector; the run equals one from that state given explicitly
    argv = ["evolve", "--preset", preset, "--times", "0:1:3", "--format", "json"]
    code, out, _ = _run(capsys, *argv)
    assert code == 0
    res = json.loads(out)["results"]
    # at t = 0 the block eigendecomposition returns the state to roundoff
    assert (res[0]["mean_n0"], res[0]["mean_n1"]) == pytest.approx(state, abs=1e-12)
    code, explicit, _ = _run(capsys, *argv, "--state", ",".join(map(str, state)))
    assert code == 0 and json.loads(explicit)["results"] == res


def test_evolve_single_time_point(capsys, tmp_path):
    out_path = tmp_path / "run.csv"
    code = main(["evolve", "--preset", "HIV", "--state", "1,1",
                 "--times", "0", "--n-per-mode", "12", "--out", str(out_path)])
    assert code == 0
    with open(out_path) as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    assert float(rows[1][1]) == pytest.approx(1.0)


def test_byte_identical_reruns(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["evolve", "--preset", "HIV", "--state", "2,3", "--times", "0:5:11",
            "--n-per-mode", "20"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    c, d = tmp_path / "c.json", tmp_path / "d.json"
    vargs = ["spectrum", "--model", "onemode", "--mu", "4", "--nu", "1"]
    assert main(vargs + ["--out", str(c)]) == 0
    assert main(vargs + ["--out", str(d)]) == 0
    assert c.read_bytes() == d.read_bytes()


def test_config_file_with_flag_override(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "onemode", "mu": 4.0, "nu": 1.0,
                               "count": 3}))
    out_path = tmp_path / "o.json"
    code = main(["spectrum", "--config", str(cfg), "--count", "5",
                 "--out", str(out_path)])
    assert code == 0
    res = json.loads(out_path.read_text())
    assert len(res["results"]["atoms"]) == 5  # flag overrides file


def test_malformed_config_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = _run(capsys, "spectrum", "--config", str(bad), "--mu", "1",
                        "--nu", "0")
    assert code == 2
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"model": "onemode", "mu": 1.0, "nu": 0.0,
                                   "frobnicate": 1}))
    code, _, err = _run(capsys, "spectrum", "--config", str(unknown))
    assert code == 2
    assert "unknown config keys" in err
    # config values go through the converters of their flags
    typed = tmp_path / "typed.json"
    for value, flag in (("x", "--count"), (2.5, "--count"), (True, "--count")):
        typed.write_text(json.dumps({"model": "onemode", "mu": 4.0, "nu": 1.0,
                                     "count": value}))
        code, _, err = _run(capsys, "spectrum", "--config", str(typed))
        assert code == 2 and flag in err


def test_failure_names_its_error_type(capsys):
    # a tail tolerance below the state's own tail at t = 0 is a numerical
    # failure, exit 1, reported under its type from multiboson.errors
    code, _, err = _run(capsys, "evolve", "--tail-tol", "1e-300")
    assert code == 1 and err.startswith("failure: TruncationOverflowError: ")


def test_usage_error_exit_code(capsys):
    code, _, _ = _run(capsys, "spectrum", "--model", "bogus")
    assert code == 2
    code, _, _ = _run(capsys, "nonexistent-command")
    assert code == 2


def test_coherent_subcommand(capsys, tmp_path):
    out_path = tmp_path / "c.json"
    code = main(["coherent", "--zeta-re", "1.0", "--alpha0", "0.5",
                 "--n-levels", "70", "--k-max", "4", "--out", str(out_path)])
    assert code == 0
    res = json.loads(out_path.read_text())["results"]
    assert res["eigenstate_residual"] <= 1e-8
    assert res["kernel_identity_error"] <= 1e-10
    assert max(m["rel_error"] for m in res["moments"]) <= 1e-6


@pytest.mark.parametrize("al", ["60", "171.5"])
def test_coherent_subcommand_at_large_alpha0(capsys, al):
    # the admitted alpha0 range reaches 171.6; from alpha0 near 60 on the
    # direct product rho^(alpha0 - 1) K(2 rho) is 0 * inf near rho = 0
    code, out, err = _run(capsys, "coherent", "--alpha0", al, "--format", "json")
    assert code == 0, err
    res = json.loads(out)["results"]
    assert max(m["rel_error"] for m in res["moments"]) <= 1e-12
