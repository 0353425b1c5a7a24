import csv
import dataclasses
import hashlib
import io
import os
import re
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import rbmlmc
from rbmlmc import bakhvalov, functionals, sde
from rbmlmc.cli import main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


def test_run_bit_stdout(capsys):
    code, out, _ = run_cli(["run", "--variant", "bit", "--eps", "0.25",
                            "--seeds", "0,1", "--out", "-"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert rows[0][:4] == ["variant", "eps", "seed", "estimate"]
    assert len(rows) == 3
    assert rows[1][0] == "bit" and rows[1][4] == "6" and rows[1][5] == "6"
    assert rows[1][-1] == "0"  # wall_time_ms fixed unless --timing
    assert rows[1][9] == "15072"  # bit_count for eps = 1/4, d = 1
    # level columns carry L+1 = 7 entries
    assert len(rows[1][6].split(";")) == 7


def test_run_timing_fills_only_wall_time(capsys):
    args = ["run", "--variant", "bbit", "--eps", "0.25", "--seeds", "0,1",
            "--out", "-"]
    plain = parse_csv(run_cli(args, capsys)[1])
    timed = parse_csv(run_cli(args + ["--timing"], capsys)[1])
    assert len(timed) == len(plain) == 3
    assert timed[0] == plain[0] and plain[0][-1] == "wall_time_ms"
    for got, want in zip(timed[1:], plain[1:]):
        # a positive decimal with three places; every other cell as before
        assert re.fullmatch(r"\d+\.\d{3}", got[-1]) and float(got[-1]) > 0
        assert want[-1] == "0" and got[:-1] == want[:-1]


def test_run_is_byte_reproducible(capsys):
    args = ["run", "--variant", "bbit", "--eps", "0.25", "--seeds", "3",
            "--out", "-"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2
    _, out3, _ = run_cli(args + ["--threads", "8"], capsys)
    assert out3 == out1


def test_run_eps_grid_and_bbit_log_alias(capsys):
    code, out, _ = run_cli(["run", "--variant", "bbit-log",
                            "--eps-grid", "2^-2,0.125", "--seeds", "0",
                            "--out", "-"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert [r[0] for r in rows[1:]] == ["bbit_log", "bbit_log"]
    assert float(rows[1][1]) == 0.25 and float(rows[2][1]) == 0.125


def test_run_writes_file(tmp_path, capsys):
    out = tmp_path / "res.csv"
    code, _, _ = run_cli(["run", "--variant", "classical", "--eps", "0.25",
                          "--seeds", "0", "--out", str(out)], capsys)
    assert code == 0
    rows = parse_csv(out.read_text())
    assert rows[1][0] == "classical"
    assert rows[1][9] == "0"  # no bits consumed
    assert int(rows[1][10]) > 0  # coins counted


def test_run_debug_const_functional(capsys):
    code, out, _ = run_cli(["run", "--variant", "bit", "--eps", "0.25",
                            "--seeds", "0", "--debug-const-functional", "2.5",
                            "--out", "-"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert float(rows[1][3]) == 2.5
    means = [float(x) for x in rows[1][6].split(";")]
    assert means[0] == 2.5 and all(m == 0.0 for m in means[1:])


def test_run_config_error_exit_2(capsys):
    code, _, err = run_cli(["run", "--variant", "bit", "--eps", "0.9",
                            "--out", "-"], capsys)
    assert code == 2
    assert "configuration error" in err


def test_run_missing_eps_exit_2(capsys):
    code, _, err = run_cli(["run", "--variant", "bit", "--out", "-"], capsys)
    assert code == 2


# a seed that is no integer is refused by name, not by int()'s message
SEED_NOT_INTEGER = ["run", "--variant", "bit", "--eps", "0.25", "--seeds",
                    "0,1.5"]
# Configuration errors: each must exit 2 before any CSV is written, with
# no traceback and no silently aliased seed.
BAD_CONFIGS = [
    ["run", "--variant", "classical", "--eps", "0.25", "--seeds=-1"],
    ["run", "--variant", "bit", "--eps", "0.25",
     "--seeds", "18446744073709551616"],
    ["run", "--variant", "bit", "--eps", "nan", "--seeds", "0"],
    ["strong-error", "--mode", "quantization", "--m", "4", "--q-min", "2",
     "--q-max", "2", "--reps", "10", "--seed", "-1"],
    ["strong-error", "--mode", "quantization", "--m", "4", "--q-min", "2",
     "--q-max", "2", "--reps", "0"],
    ["strong-error", "--mode", "both", "--sde", "additive_noise", "--m", "4",
     "--q-min", "2", "--q-max", "2", "--reps", "10"],
    ["strong-error", "--mode", "discretization", "--m-min", "0", "--m-max",
     "4", "--reps", "10"],
    ["oracle", "--m", "2", "--q", "1", "--mc-reps", "10", "--seed", "-1"],
    ["strong-error", "--q-max", "64"],
    ["strong-error", "--q-min", "5", "--q-max", "4"],
    ["bakhvalov-check", "--n", "2", "--q", "0"],
    ["bakhvalov-check", "--n", "0", "--q", "1"],
    ["bakhvalov-check", "--n", "3"],
    ["run", "--variant", "bit", "--eps", "0.25", "--seeds", ""],
    ["run", "--variant", "bit", "--eps", "0.25", "--seeds", ","],
    ["run", "--variant", "bbit", "--eps", "0.25", "--seeds", "1,1"],
    ["run", "--variant", "bbit", "--eps", "0.25", "--seeds", "1,01"],
    SEED_NOT_INTEGER,
    ["run", "--variant", "bit", "--eps", "1e-7", "--seeds", "0"],  # q = 53
    ["oracle", "--m", "2", "--q", "1", "--mc-reps", "-1"],
    ["strong-error", "--mode", "discretization", "--m-min", "1", "--m-max",
     "0", "--reps", "10"],
    ["strong-error", "--mode", "both", "--m", "4", "--q-min", "2", "--q-max",
     "2", "--m-min", "16", "--m-max", "4", "--reps", "10"],
    ["oracle", "--m", "0", "--q", "1"],
    ["oracle", "--m", "-1", "--q", "1"],
    ["oracle", "--m", "1", "--q", "-1"],
    ["cost-report", "--eps-grid", "2^-2,2^-3,2^-4,2^-5,2^-6", "--d", "0"],
    ["cost-report", "--eps-grid", "2^-2,2^-3,2^-4,2^-5,2^-6", "--d", "-1"],
    ["cost-report", "--eps-grid", "0.9,0.25,0.125,0.0625,0.03125"],
    # a non-finite constant gives nan estimates, not a telescoping probe
    ["run", "--variant", "bbit", "--eps", "0.25",
     "--debug-const-functional", "inf"],
    ["oracle", "--m", "2", "--q", "1", "--kind", "level-difference",
     "--debug-const-functional", "nan"],
]
# eps^-2 past the float range, with the eps the message must name
EPS_OVERFLOW = [
    (["run", "--variant", "bit", "--eps", "1e-300", "--seeds", "0"],
     "1e-300"),
    (["cost-report", "--eps-grid", "2^-2,2^-3,2^-4,2^-5,1e-300"], "1e-300"),
    (["cost-report", "--eps-grid", "2^-2,2^-3,2^-4,2^-5,2^-600"],
     repr(2.0 ** -600)),
]
BAD_CONFIGS += [args for args, _ in EPS_OVERFLOW]
# --eps-grid entries with no finite float value, with the entry the message
# must name beside the flag
GRID_ENTRY = [
    (["run", "--variant", "bit", "--eps-grid", "10^400", "--seeds", "0"],
     "10^400"),
    (["cost-report", "--eps-grid", "2^-2,2^-3,2^-4,2^-5,10^400"], "10^400"),
    (["run", "--variant", "bit", "--eps-grid", "0^-1", "--seeds", "0"],
     "0^-1"),
    (["run", "--variant", "bit", "--eps-grid=-8^0.5", "--seeds", "0"],
     "-8^0.5"),
]
BAD_CONFIGS += [args for args, _ in GRID_ENTRY]
# a repeated ε only repeated rows, with the entry the message must name and
# the value it repeats
GRID_REPEAT = [
    (["run", "--variant", "bit", "--eps-grid", "0.25,2^-2", "--seeds", "0"],
     "2^-2", "0.25"),
    (["run", "--variant", "classical", "--eps-grid", "0.1,0.2,0.10",
      "--seeds", "0"], "0.10", "0.1"),
    (["cost-report", "--eps-grid", "2^-2,2^-3,2^-4,2^-5,2^-6,0.0625"],
     "0.0625", "0.0625"),
]
BAD_CONFIGS += [args for args, _, _ in GRID_REPEAT]
# both ε flags: --eps used to be dropped without a word
EPS_AND_GRID = ["run", "--variant", "classical", "--eps-grid", "0.25",
                "--eps", "0.1"]
BAD_CONFIGS.append(EPS_AND_GRID)


@pytest.mark.parametrize("args", BAD_CONFIGS, ids=lambda a: " ".join(a))
def test_config_error_writes_nothing(args, capsys, tmp_path):
    code, out, err = run_cli(args + ["--out", "-"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("configuration error: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    target = tmp_path / "out.csv"
    assert run_cli(args + ["--out", str(target)], capsys)[0] == 2
    assert not target.exists()


@pytest.mark.parametrize("args,value", EPS_OVERFLOW,
                         ids=lambda a: " ".join(a) if isinstance(a, list)
                         else a)
def test_eps_overflow_message_names_the_value(args, value, capsys):
    code, _, err = run_cli(args + ["--out", "-"], capsys)
    assert code == 2
    assert f"got epsilon = {value}\n" in err


@pytest.mark.parametrize("args,entry", GRID_ENTRY,
                         ids=lambda a: " ".join(a) if isinstance(a, list)
                         else a)
def test_grid_entry_message_names_flag_and_entry(args, entry, capsys):
    code, _, err = run_cli(args + ["--out", "-"], capsys)
    assert code == 2
    assert err.startswith(f"configuration error: --eps-grid entry {entry} ")


@pytest.mark.parametrize("args,entry,value", GRID_REPEAT,
                         ids=lambda a: " ".join(a) if isinstance(a, list)
                         else a)
def test_grid_repeat_message_names_flag_and_entry(args, entry, value,
                                                  capsys):
    code, _, err = run_cli(args + ["--out", "-"], capsys)
    assert code == 2
    assert err == (f"configuration error: --eps-grid entry {entry} repeats "
                   f"{value}\n")


def test_eps_and_eps_grid_message_names_both(capsys):
    code, _, err = run_cli(EPS_AND_GRID + ["--out", "-"], capsys)
    assert code == 2
    assert "--eps " in err and "--eps-grid" in err


def test_run_infeasible_schedule_exit_3(capsys, tmp_path):
    # classical eps = 1e-7 asks for 38 PiB of level-0 normals: the
    # allocation fails at once on any 64-bit machine. eps = 1e-30 and
    # 2^-200 ask for more bytes than one numpy array can index, which run
    # refuses, naming the level, before anything is drawn.
    for eps, level in ((["--eps", "1e-7"], None),
                       (["--eps", "1e-30"], "level 0 "),
                       (["--eps-grid", "2^-200"], "level 0 ")):
        args = ["run", "--variant", "classical", *eps, "--seeds", "0"]
        code, out, err = run_cli(args + ["--out", "-"], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("feasibility error: ")
        assert level is None or level in err
        assert err.count("\n") == 1 and "Traceback" not in err
        target = tmp_path / "out.csv"
        assert run_cli(args + ["--out", str(target)], capsys)[0] == 3
        assert not target.exists()


def test_seed_not_integer_message_names_the_seed(capsys):
    code, _, err = run_cli(SEED_NOT_INTEGER + ["--out", "-"], capsys)
    assert code == 2
    assert err == ("configuration error: seed must be an integer in "
                   "[0, 2^64), got '1.5'\n")


def test_strong_error_huge_discretization_row_exit_3(capsys, tmp_path):
    # from m = 2^56 the row's refined grid has more bytes than one numpy
    # array can index: refused by its m, not by numpy's message (exit 2)
    for m in (2 ** 56, 2 ** 59, 2 ** 64):
        args = ["strong-error", "--mode", "discretization", "--m-min",
                str(m), "--m-max", str(m), "--reps", "1"]
        code, out, err = run_cli(args + ["--out", "-"], capsys)
        assert code == 3 and out == ""
        assert err.startswith(f"feasibility error: discretization row "
                              f"m = {m} needs one array of about 2^")
        assert err.count("\n") == 1
        target = tmp_path / "out.csv"
        assert run_cli(args + ["--out", str(target)], capsys)[0] == 3
        assert not target.exists()


def test_strong_error_unallocatable_discretization_row_names_m(capsys):
    # m = 2^55 passes the index check, but its grid of 2^59 + 1 float64s
    # (4 EiB) is refused by the allocator at once: exit 3, naming the row
    m = 2 ** 55
    code, out, err = run_cli(["strong-error", "--mode", "discretization",
                              "--m-min", str(m), "--m-max", str(m),
                              "--reps", "1", "--out", "-"], capsys)
    assert code == 3 and out == ""
    assert err.startswith(f"feasibility error: discretization row m = {m}: "
                          f"out of memory: ")
    assert err.count("\n") == 1


def test_seed_range_ends_are_accepted(capsys):
    for variant in ("classical", "bit"):
        code, out, _ = run_cli(["run", "--variant", variant, "--eps", "0.25",
                                "--seeds", f"0,{2 ** 64 - 1}", "--out", "-"],
                               capsys)
        assert code == 0 and len(parse_csv(out)) == 3


def test_run_csv_matches_baseline_hashes(capsys):
    # sha256 prefixes of the committed baseline: any change to the arithmetic
    # or the CSV format of `run` shows here. The last two pin r = 2: the
    # coarse sums and the sup distance over two components.
    expected = [(["run", "--variant", variant, "--eps", "0.0625", "--seeds",
                  "0,1,2"], prefix) for variant, prefix in (
        ("classical", "bfa1311e81a86902"), ("bit", "f0809fe8c567b2a3"),
        ("bbit", "6f0315b8458f898c"), ("bbit-log", "989626da7262ca64"))]
    expected += [
        (["run", "--variant", "classical", "--sde", "linear2d",
          "--functional", "distance_to_ref", "--eps", "0.0625", "--seeds",
          "0,1,2"], "cf5c29947b74f7d1"),
        # the two quantization tables, repinned when the depths came to
        # share the bits of one 52-bit numerator instead of normals
        (["strong-error", "--mode", "quantization", "--sde", "linear2d",
          "--m", "64", "--reps", "500", "--q-min", "2", "--q-max", "6"],
         "eedfc28ae1af8786"),
        # m = 32 has no exact sqrt, so the quantized side's scaling shows
        (["strong-error", "--mode", "quantization", "--m", "32", "--reps",
          "500", "--q-min", "2", "--q-max", "6"], "f620d539f17bca81"),
        # the discretization table is pinned nowhere else; repinned when
        # its rows left the run levels' stream ids
        (["strong-error", "--mode", "discretization", "--m-min", "16",
          "--m-max", "64", "--reps", "200"], "10b1a5652fd6119a"),
        # time_average sums each path's breakpoints pairwise, whatever the
        # layout of the states; running_max over r = 2
        (["run", "--variant", "bit", "--functional", "time_average", "--eps",
          "0.0625", "--seeds", "0,1,2"], "662ad89553e8b606"),
        (["run", "--variant", "classical", "--sde", "additive_noise",
          "--functional", "time_average", "--eps", "0.0625", "--seeds",
          "0,1,2"], "184121468544cbc5"),
        (["run", "--variant", "bbit-log", "--sde", "linear2d",
          "--functional", "running_max", "--eps", "0.0625", "--seeds",
          "0,1,2"], "e47d84d749bd5a30"),
        # depths 19..22 and q = 21 straddle the end of the atom tables at
        # q = 20: table or formula, the one kernel gives the same floats
        (["strong-error", "--mode", "quantization", "--m", "4", "--reps",
          "64", "--q-min", "19", "--q-max", "22"], "274afdafd0927361"),
        (["oracle", "--m", "1", "--q", "21"], "a093e82b66d34f88")]
    # oracle and bakhvalov-check output, pinned when the mismatch oracle
    # and the grid moments left the package; the oracle's Monte Carlo side
    # repinned when bit streams moved to Philox, and when it left level 0's
    # stream for one of its own
    expected += [
        (["oracle", "--sde", "gbm", "--functional", "running_max", "--kind",
          "level-difference", "--m", "4", "--q", "2", "--mc-reps", "1000"],
         "97b3f9e47449c485"),
        (["oracle", "--sde", "linear2d", "--functional", "distance_to_ref",
          "--m", "1", "--q", "2", "--mc-reps", "1000"], "f20ec9eedf7f9450"),
        (["bakhvalov-check", "--triple"], "2ce4547638992439"),
        # the default checks, pinned when they came to be read from the
        # rows of bakhvalov.FAMILIES
        (["bakhvalov-check"], "5aa5c9af03aa1b8c"),
        (["bakhvalov-check", "--variant", "quadratic"], "fe1b3478008ca1ff"),
        (["bakhvalov-check", "--variant", "logarithmic"],
         "9992f0d38fad5dcd")]
    for args, prefix in expected:
        code, out, _ = run_cli(args + ["--out", "-"], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == prefix, args


def test_cost_report_matches_baseline_hashes(capsys):
    # sha256 prefixes of cost-report since work_model became info cost +
    # bits + coins at --d; the bits, ratio and band cells are unchanged
    # since schedules derived their generator counts from N
    grid = ",".join(f"2^-{k}" for k in range(2, 11))
    for args, prefix in (
            (["--eps-grid", grid, "--d", "1"], "d20846a87fe5dfce"),
            (["--eps-grid", grid, "--d", "2"], "51439de87d175217"),
            (["--eps-grid", "0.3,0.2,0.1,0.05,0.01"], "8841ffb2d36a0799")):
        code, out, _ = run_cli(["cost-report"] + args + ["--out", "-"],
                               capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == prefix, args


def test_cost_report_reads_rows_by_name(capsys, monkeypatch):
    # a fifth variant row changes no column: the report names its rows
    from rbmlmc import mlmc
    args = ["cost-report", "--eps-grid", "2^-2,2^-3,2^-4,2^-5,2^-6",
            "--out", "-"]
    before = run_cli(args, capsys)
    monkeypatch.setitem(mlmc.VARIANTS, "bbit_copy", mlmc.VARIANTS["bbit"])
    assert run_cli(args, capsys) == before and before[0] == 0


def test_strong_error_quantization(capsys):
    code, out, _ = run_cli(["strong-error", "--mode", "quantization",
                            "--m", "16", "--q-min", "2", "--q-max", "4",
                            "--reps", "2000", "--out", "-"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert [r[3] for r in rows[1:]] == ["2", "3", "4"]
    msq = [float(r[4]) for r in rows[1:]]
    assert msq[0] > msq[1] > msq[2] > 0


def test_generator_streams_do_not_alias(capsys, monkeypatch):
    # depths 2..16 meet step counts 1..32 and the levels of a classical
    # run: every Generator's Philox key is formed once (discretization rows
    # m = 1, 2, 4, 8 once formed the keys [3, m] of classical levels 1, 2,
    # 4, 8, also from counter 0). A bit run at the same seed reuses the
    # classical keys, but its streams sit where the counter's top word is 1,
    # which a Generator starting at counter 0 would need 2^192 words to
    # reach. The quantization sweep reads bits keyed [3, 2^64 - 1], and the
    # oracle's Monte Carlo side bits under a key of its own (it once read
    # the bit run's level 0).
    import numpy as np
    from rbmlmc.euler import gbm_strong_error_vs_exact
    from rbmlmc.mlmc import params_for_eps
    streams, philox = [], np.random.Philox

    def recording(*args, key, counter=None, **kw):
        streams.append((tuple(int(k) for k in key), None if counter is None
                        else tuple(int(c) for c in counter)))
        return philox(*args, key=key, counter=counter, **kw)
    monkeypatch.setattr(np.random, "Philox", recording)
    keys = {}
    for args in (["strong-error", "--mode", "both", "--m", "16", "--q-min",
                  "2", "--q-max", "16", "--m-min", "1", "--m-max", "32",
                  "--reps", "2", "--seed", "3"],
                 ["run", "--variant", "classical", "--eps", "0.125",
                  "--seeds", "3"],
                 ["run", "--variant", "bit", "--eps", "0.125", "--seeds",
                  "3"],
                 ["oracle", "--m", "4", "--q", "2", "--mc-reps", "50",
                  "--seed", "3"]):
        formed = len(streams)
        assert run_cli(args + ["--out", "-"], capsys)[0] == 0
        keys[args[2] if args[0] == "run" else args[0]] = {
            k for k, _ in streams[formed:]}
    gen = [k for k, c in streams if c is None]
    bit = {k for k, c in streams if c is not None}
    assert all(c[1:] == (0, 0, 1) for _, c in streams if c is not None)
    assert len(gen) == len(set(gen)) > 3
    levels = params_for_eps(0.125, "bit").L + 1
    assert bit == {(3, level) for level in range(levels)} | {
        (3, 2 ** 64 - 1), (3, 2 ** 63 + 1)}
    assert len(bit & set(gen)) == levels  # equal keys, apart by counter
    assert keys["oracle"] == {(3, 2 ** 63 + 1)}
    assert keys["oracle"].isdisjoint(keys["classical"] | keys["bit"])
    # a discretization row at m >= 2^59 fails before it forms its key
    formed = len(streams)
    with pytest.raises(ValueError):
        gbm_strong_error_vs_exact(sde.preset("gbm"), 2 ** 64 - 1, 1, 3)
    assert len(streams) == formed


def test_strong_error_discretization_gbm_only(capsys):
    code, _, err = run_cli(["strong-error", "--mode", "discretization",
                            "--sde", "additive_noise", "--out", "-"], capsys)
    assert code == 2
    code, out, _ = run_cli(["strong-error", "--mode", "discretization",
                            "--m-min", "16", "--m-max", "64",
                            "--reps", "2000", "--out", "-"], capsys)
    assert code == 0
    rows = parse_csv(out)
    msq = [float(r[4]) for r in rows[1:]]
    assert msq[0] > msq[-1] > 0


def test_bakhvalov_check_default_and_single(capsys):
    code, out, _ = run_cli(["bakhvalov-check"], capsys)
    assert code == 0
    assert out.count("PASS") == 5
    code, out, _ = run_cli(["bakhvalov-check", "--variant", "logarithmic",
                            "--n", "3", "--q", "2"], capsys)
    assert code == 0 and "PASS" in out


@pytest.mark.parametrize("flags,families", [
    ([], ["quadratic"] * 3 + ["logarithmic"] * 2),
    (["--variant", "quadratic"], ["quadratic"] * 3),
    (["--variant", "logarithmic"], ["logarithmic"] * 2),
    (["--variant", "logarithmic", "--triple"], ["logarithmic"] * 2
     + ["quadratic"]),
    (["--n", "2", "--q", "2"], ["quadratic"])],
    ids=["default", "quadratic", "logarithmic", "triple", "n-q"])
def test_bakhvalov_check_variant_selects_checks(flags, families, capsys):
    # without --n/--q, --variant keeps its family's default checks; with
    # them and no --variant, the one check is quadratic
    code, out, _ = run_cli(["bakhvalov-check"] + flags, capsys)
    assert code == 0
    assert [line.split()[0] for line in out.splitlines()] == families


def test_bakhvalov_check_reads_checks_from_families(capsys, monkeypatch):
    # a third row adds its checks to the default run and its name to
    # --variant, with no change to the CLI
    before = run_cli(["bakhvalov-check"], capsys)[1]
    monkeypatch.setitem(bakhvalov.FAMILIES, "quadratic_copy",
                        bakhvalov.Family(bakhvalov.quadratic_outputs,
                                         ((2, 1),)))
    code, out, _ = run_cli(["bakhvalov-check"], capsys)
    added = ("quadratic_copy n=2 q=1: 4 outputs, 16 realizations "
             "enumerated -> PASS\n")
    assert code == 0 and out == before + added
    code, out, _ = run_cli(["bakhvalov-check", "--variant",
                            "quadratic_copy"], capsys)
    assert code == 0 and out == added


def test_bakhvalov_check_triple_reports_none(capsys):
    code, out, _ = run_cli(["bakhvalov-check", "--triple"], capsys)
    assert code == 0
    assert "non-uniform triple: None" in out


def test_bakhvalov_check_writes_out_file(capsys, tmp_path):
    # --out used to be ignored: the report went to stdout, FILE never made
    for flags in ([], ["--triple"], ["--variant", "logarithmic", "--n", "3",
                                     "--q", "2"]):
        code, want, _ = run_cli(["bakhvalov-check", "--out", "-"] + flags,
                                capsys)
        assert code == 0 and want.count("\n") >= 1
        assert run_cli(["bakhvalov-check"] + flags, capsys)[1] == want
        target = tmp_path / "check.txt"
        code, out, _ = run_cli(["bakhvalov-check", "--out", str(target)]
                               + flags, capsys)
        assert code == 0 and out == ""
        assert target.read_text() == want


def test_bakhvalov_check_failure_exit_1_after_writing(capsys, tmp_path,
                                                      monkeypatch):
    # a failed check still writes every line, the FAIL among them
    real = bakhvalov.exact_pairwise_check

    def failing(n, q, variant):
        rep = real(n, q, variant)
        return dataclasses.replace(rep, passed=n != 3)
    monkeypatch.setattr(bakhvalov, "exact_pairwise_check", failing)
    target = tmp_path / "check.txt"
    code, out, _ = run_cli(["bakhvalov-check", "--triple", "--out",
                            str(target)], capsys)
    assert code == 1 and out == ""
    lines = target.read_text().splitlines()
    assert len(lines) == 6 and "FAIL" in lines[2]
    assert lines[-1] == "quadratic n=2 q=1 non-uniform triple: None"


def test_bakhvalov_check_feasibility_exit_3(capsys):
    # over the enumeration cap: 64 bits; then 24 and 16 bits whose
    # realizations x (outputs + output pairs) exceed 2^24
    for flags in (["--n", "8", "--q", "4"],
                  ["--variant", "quadratic", "--n", "3", "--q", "4"],
                  ["--variant", "logarithmic", "--n", "8", "--q", "1"]):
        code, out, err = run_cli(["bakhvalov-check"] + flags, capsys)
        assert code == 3
        assert out == ""
        assert "feasibility error" in err


def test_oracle_with_mc(capsys):
    code, out, _ = run_cli(["oracle", "--m", "2", "--q", "2",
                            "--kind", "level-difference",
                            "--mc-reps", "50000", "--out", "-"], capsys)
    assert code == 0
    rows = parse_csv(out)
    z = float(rows[1][9])
    assert abs(z) < 4.0


def test_oracle_level_difference_odd_m_exit_2(capsys):
    # a coupled pair halves the fine steps: the refusal names the flag
    code, out, err = run_cli(["oracle", "--kind", "level-difference", "--m",
                              "3", "--q", "1", "--out", "-"], capsys)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and "--m" in err


def test_oracle_feasibility_exit_3(capsys):
    code, out, _ = run_cli(["oracle", "--m", "16", "--q", "4", "--out", "-"],
                           capsys)
    assert code == 3
    assert out == ""


def test_cost_report(capsys):
    grid = ",".join(f"2^-{k}" for k in range(2, 9))
    code, out, _ = run_cli(["cost-report", "--eps-grid", grid, "--out", "-"],
                           capsys)
    assert code == 0
    rows = parse_csv(out)
    data = rows[1:-2]
    assert len(data) == 7
    for r in data:
        assert int(r[4]) < int(r[3])  # bbit bits < bit bits
        assert int(r[5]) < int(r[4])  # bbit_log bits < bbit bits
    bands = {rows[-2][0]: float(rows[-2][1]), rows[-1][0]: float(rows[-1][1])}
    assert bands["band_bbit"] < 4.0 and bands["band_bbit_log"] < 4.0


def test_cost_report_small_grid_exit_2(capsys):
    code, _, _ = run_cli(["cost-report", "--eps-grid", "0.25,0.125"], capsys)
    assert code == 2


def _child_env():
    # the child imports the package under test, wherever pytest found it
    src = os.path.dirname(os.path.dirname(rbmlmc.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_console_entry_point():
    r = subprocess.run([sys.executable, "-m", "rbmlmc.cli", "run",
                        "--variant", "bit", "--eps", "0.25", "--seeds", "0",
                        "--out", "-"], capture_output=True, text=True,
                       env=_child_env())
    assert r.returncode == 0
    assert r.stdout.splitlines()[0].startswith("variant,eps,seed")


_LAZY_IMPORTS = """
import contextlib, io, sys
import rbmlmc, rbmlmc.cli

def cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert rbmlmc.cli.main(list(argv)) == 0, argv
    return buf.getvalue()

cli("cost-report", "--eps-grid", "2^-2,2^-3,2^-4,2^-5,2^-6")
cli("bakhvalov-check")
assert "numpy.random" not in sys.modules
cli("run", "--variant", "classical", "--sde", "linear2d",
    "--functional", "distance_to_ref", "--eps", "0.25")
assert "scipy.special" not in sys.modules
out = cli("run", "--variant", "bit", "--eps", "0.25")
assert "scipy.special" in sys.modules
sys.stdout.write(out)
"""


def test_commands_load_only_the_modules_they_use():
    # scipy.special takes most of a cold start, and only the commands that
    # map normals need it; numpy.random only where a Philox stream is drawn
    r = subprocess.run([sys.executable, "-c", _LAZY_IMPORTS],
                       capture_output=True, env=_child_env())
    assert r.returncode == 0, r.stderr.decode()
    # the bit CSV (bytes, so its \r\n stays) since bits come from Philox
    assert hashlib.sha256(r.stdout).hexdigest()[:16] == "29a7ef28d0916f5e"


OUT_COMMANDS = [
    ["run", "--variant", "bit", "--eps", "0.25"],
    ["strong-error", "--mode", "quantization", "--m", "4", "--q-min", "1",
     "--q-max", "2", "--reps", "10"],
    ["bakhvalov-check"],
    ["oracle", "--m", "2", "--q", "1"],
    ["cost-report", "--eps-grid", "2^-2,2^-3,2^-4,2^-5,2^-6"],
]


@pytest.mark.parametrize("target", ["missing", "directory", "empty"])
@pytest.mark.parametrize("args", OUT_COMMANDS, ids=lambda a: a[0])
def test_unwritable_out_exit_2(args, target, capsys, tmp_path):
    path = {"missing": str(tmp_path / "no" / "x.csv"),
            "directory": str(tmp_path), "empty": ""}[target]
    code, out, err = run_cli(args + ["--out", path], capsys)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert "--out" in err and repr(path) in err
    assert os.listdir(tmp_path) == []


def test_closed_stdout_pipe_exits_141_quietly():
    # a reader that has already gone, as after `| head -1`: deterministic
    # even for output far smaller than a pipe buffer
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        r = subprocess.run([sys.executable, "-m", "rbmlmc.cli", "run",
                            "--variant", "classical", "--eps", "0.25",
                            "--out", "-"], stdout=write_end,
                           stderr=subprocess.PIPE, text=True,
                           env=_child_env())
    finally:
        os.close(write_end)
    assert r.returncode == 141
    assert r.stderr == ""


# CLI fuzz: small, bounded flag values, so every drawn command finishes in
# well under a second; edge values sit on both sides of each check.
_SEEDS = st.sampled_from(["0", "1,3", "1,1", "-1", "", ",", "x",
                          str(2 ** 64 - 1), str(2 ** 64)])
_EPS = st.sampled_from(["nan", "inf", "-1", "0", "0.5", "0.3", "0.25",
                        "1e-7", "1e-9", "1e-300"])
_SDES = st.sampled_from(sde.preset_names())


def _flags(**choices):
    return st.tuples(*(st.tuples(st.just(f"--{k.replace('_', '-')}"), v)
                       for k, v in choices.items()))


_COMMANDS = st.one_of(
    st.tuples(st.just("run"), _flags(
        variant=st.sampled_from(["classical", "bit", "bbit", "bbit-log"]),
        sde=_SDES, eps=_EPS, seeds=_SEEDS,
        functional=st.sampled_from(
            functionals.preset_functional_names()))),
    st.tuples(st.just("strong-error"), _flags(
        mode=st.sampled_from(["quantization", "discretization", "both"]),
        sde=_SDES, m=st.sampled_from(["0", "1", "3", "4"]),
        q_min=st.sampled_from(["0", "1", "2", "52", "53"]),
        q_max=st.sampled_from(["1", "2", "52", "53", "64"]),
        m_min=st.sampled_from(["0", "1", "16"]),
        m_max=st.sampled_from(["0", "4", "64"]),
        reps=st.sampled_from(["-1", "0", "1", "3"]), seed=_SEEDS)),
    st.tuples(st.just("oracle"), _flags(
        sde=_SDES, kind=st.sampled_from(["expectation", "level-difference"]),
        m=st.sampled_from(["-1", "0", "1", "2", "16"]),
        q=st.sampled_from(["0", "1", "2", "21"]),
        mc_reps=st.sampled_from(["-1", "0", "10"]), seed=_SEEDS)),
    st.tuples(st.just("cost-report"), _flags(
        eps_grid=st.sampled_from(
            ["0.25,0.125", "2^-2,2^-3,2^-4,2^-5,2^-6", "nan,1,2,3,4",
             "2^-2,2^-3,2^-4,2^-5,1e-9", "2^-2^3,1,2,3,4", "x",
             "2^-2,2^-3,2^-4,2^-5,1e-300", "2^-2,2^-3,2^-4,2^-5,2^-600"]),
        d=st.sampled_from(["-1", "0", "1", "2"]))),
    st.tuples(st.just("bakhvalov-check"), _flags(
        variant=st.sampled_from(["quadratic", "logarithmic"]),
        # 2n generators of q bits: n = 13 is over the 24-bit cap at any q,
        # and n = 3, 4, 8 reach the cap on realizations x (outputs + pairs)
        n=st.sampled_from(["0", "1", "2", "3", "4", "8", "13"]),
        q=st.sampled_from(["0", "1", "2", "4"]))),
)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_COMMANDS)
def test_cli_contract_fuzz(capsys, command):
    name, flags = command
    argv = [name] + [tok for pair in flags for tok in pair]
    if name != "bakhvalov-check":
        argv += ["--out", "-"]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a malformed flag value
        code = exc.code
    out, err = capsys.readouterr()
    assert code in (0, 2, 3), (argv, err)
    assert "Traceback" not in err
    if code != 0:
        assert out == "", argv
