"""Command-line interface: exit codes, output shapes, determinism."""

import csv
import json
import math
import re
import time
from pathlib import Path

import pytest

from multiboson import __version__
from multiboson.cli import _FLAGS, main

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


def test_validate_has_one_configuration(capsys):
    # validate takes only --out: the retired --quick switch is an
    # unrecognized argument
    code, _, err = _run(capsys, "validate", "--quick")
    assert code == 2 and "unrecognized arguments: --quick" in err


@pytest.mark.parametrize("command", ["validate", "spectrum", "evolve", "coherent"])
def test_flags_are_the_one_input_channel(capsys, tmp_path, command):
    # the retired --config file of flag values is an unrecognized argument
    # of every subcommand, whatever the file holds
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({}))
    code, out, err = _run(capsys, command, "--config", str(cfg))
    assert code == 2 and out == "" and "unrecognized arguments: --config" in err


def test_validate_has_no_convention_option(capsys):
    # the D-blocks have one coefficient stream: no flag selects another
    code, _, err = _run(capsys, "validate", "--hd-convention", "printed")
    assert code == 2 and "--hd-convention" in err


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
    # finite ends whose span hi - lo overflows
    (["evolve", "--times=-1e308:1e308:3"], "--times"),
    # an output file that cannot be opened
    (["spectrum", "--model", "two-d", "--out", "/nonexistent-dir/x.json"], "--out"),
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
    # main reads exactly the flags of the table for each command: its own
    # reach their converter (a value it refuses names exactly the flag
    # typed, not every flag setting that parameter), every other command's
    # is an unrecognized argument, so no flag is read and then ignored;
    # validate takes no flag of the table, only --out
    for command in ("validate", "spectrum", "evolve", "coherent"):
        for key, (commands, _, _) in _FLAGS.items():
            flag = "--" + key.replace("_", "-")
            code, out, err = _run(capsys, command, flag, "x")
            assert code == 2 and out == ""
            if command in commands:
                assert err.startswith(f"error: {flag}: "), err
                assert "'x' is not admissible" in err, err
            else:
                assert f"unrecognized arguments: {flag}" in err, err


ONEMODE_ARGV = ("spectrum", "--mu", "4", "--nu", "1", "--count", "3")


def test_flag_equals_value_reads_as_two_tokens(capsys):
    code, spaced, _ = _run(capsys, *ONEMODE_ARGV, "--n-levels", "300")
    assert code == 0
    code, joined, _ = _run(capsys, "spectrum", "--mu=4", "--nu=1", "--count=3",
                           "--n-levels=300")
    assert code == 0 and joined == spaced
    # a negative value is taken as written, after "=" or as the next token
    code, spaced, _ = _run(capsys, "spectrum", "--mu", "-4", "--nu", "-1")
    assert code == 0 and json.loads(spaced)["results"]["case_index"] == 6
    code, joined, _ = _run(capsys, "spectrum", "--mu=-4", "--nu=-1")
    assert code == 0 and joined == spaced


def test_repeated_flag_last_value_wins(capsys):
    code, repeated, _ = _run(capsys, *ONEMODE_ARGV, "--count", "5", "--mu=4")
    assert code == 0
    code, once, _ = _run(capsys, "spectrum", "--mu", "4", "--nu", "1", "--count", "5")
    assert code == 0 and repeated == once
    assert len(json.loads(once)["results"]["atoms"]) == 5


@pytest.mark.parametrize("argv, flag", [
    (["spectrum", "--nu", "1", "--mu"], "--mu"),
    (["spectrum", "--mu", "--nu", "1"], "--mu"),
    (["spectrum", "--mu", "--nu=1"], "--mu"),
    (["evolve", "--times", "--out", "x.csv"], "--times"),
    (["coherent", "--out"], "--out"),
])
def test_flag_without_value_is_a_usage_error(capsys, argv, flag):
    code, out, err = _run(capsys, *argv)
    assert code == 2 and out == ""
    assert f"argument {flag}: expected one argument" in err


def test_abbreviated_flag_is_unrecognized(capsys):
    code, out, err = _run(capsys, "spectrum", "--mu", "4", "--nu", "1", "--n-lev", "10")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --n-lev" in err


@pytest.mark.parametrize("argv", [["bogus"], [], ["--mu", "4"], ["-h=1"]])
def test_unknown_command_is_a_usage_error(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 2 and out == "" and "error: " in err
    assert not argv or argv[0] in err


def test_version_prints_the_package_version(capsys):
    code, out, err = _run(capsys, "--version")
    assert code == 0 and out == __version__ + "\n" and err == ""


def test_help_lists_the_commands(capsys):
    for flag in ("-h", "--help"):
        code, out, _ = _run(capsys, flag)
        assert code == 0
        assert {"validate", "spectrum", "evolve", "coherent"} <= set(
            re.findall(r"^  (\S+)", out, re.MULTILINE))


@pytest.mark.parametrize("command", ["validate", "spectrum", "evolve", "coherent"])
def test_help_lists_exactly_the_command_flags(capsys, command):
    # after flags already read, too: help wins and nothing runs
    code, out, err = _run(capsys, command, "--out", "unused.json", "-h")
    assert code == 0 and err == ""
    listed = re.findall(r"^  (--\S+)", out, re.MULTILINE)
    keys = ["--" + k.replace("_", "-") for k, (cmds, _, _) in _FLAGS.items() if command in cmds]
    assert sorted(listed) == sorted(keys + ["--out"])
    assert len(listed) == len(set(listed))
    # each row shows the flag's default
    if command == "evolve":
        assert re.search(r"^  --times\s+0:10:21$", out, re.MULTILINE)
        assert re.search(r"^  --format\s+csv$", out, re.MULTILINE)


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


# classes 1-4 at alpha0 400 (Laguerre alpha 399, Meixner-Pollaczek lam 200)
# and a C-block at alpha0 = beta0 = 300, each beside the same query at label
# 3: their closed masses leave the double range at the large labels (at phi
# 2e-6 the Meixner-Pollaczek mass divides by (2 sin phi)^100, which rounds
# to 0), and no output prints a mass
@pytest.mark.parametrize("argv, large", [
    (("--mu", "1", "--nu", "0", "--alpha0-table", "{}"), "400"),
    (("--mu", "0", "--nu", "1", "--alpha0-table", "{}"), "400"),
    (("--mu", "1", "--nu=-1", "--alpha0-table", "{}"), "400"),
    (("--mu=-1", "--nu", "1", "--alpha0-table", "{}"), "400"),
    (("--mu", "1e-12", "--nu=-1", "--alpha0-table", "{}"), "100"),
    (("--model", "two-c", "--K", "0", "--alpha0", "{}", "--beta0", "{}",
      "--n-levels", "100"), "300"),
], ids=["class-1", "class-2", "class-3", "class-4", "class-3-small-phi", "two-c"])
def test_spectrum_at_large_labels_prints_what_small_labels_print(capsys, argv, large):
    runs = []
    for label in (large, "3"):
        code, out, err = _run(capsys, "spectrum", *(a.format(label) for a in argv))
        assert code == 0, err
        # every number is finite but the documented infinite ends of the support
        tokens = []
        payload = json.loads(out, parse_constant=lambda c: tokens.append(c) or float(c))
        assert len(tokens) == sum(map(math.isinf, payload["results"]["continuum"])), out
        runs.append(payload)
    for part in ("results", "diagnostics"):
        assert runs[0][part].keys() == runs[1][part].keys()


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
    # at t = 0 the evolution returns the state itself, bit for bit
    assert (res[0]["mean_n0"], res[0]["mean_n1"]) == state
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
