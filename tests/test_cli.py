import csv
import hashlib
import io
import subprocess
import sys

import pytest

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
]


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


def test_seed_range_ends_are_accepted(capsys):
    for variant in ("classical", "bit"):
        code, out, _ = run_cli(["run", "--variant", variant, "--eps", "0.25",
                                "--seeds", f"0,{2 ** 64 - 1}", "--out", "-"],
                               capsys)
        assert code == 0 and len(parse_csv(out)) == 3


def test_run_csv_matches_baseline_hashes(capsys):
    # sha256 prefixes of the committed baseline: any change to the arithmetic
    # or the CSV format of `run` shows here
    expected = {"classical": "0648c7854c74c94d", "bit": "634fce302971ff59",
                "bbit": "a9a014f74ed28d1b", "bbit-log": "444ea71fb2f3fe82"}
    for variant, prefix in expected.items():
        code, out, _ = run_cli(["run", "--variant", variant, "--eps",
                                "0.0625", "--seeds", "0,1,2", "--out", "-"],
                               capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == prefix


def test_strong_error_quantization(capsys):
    code, out, _ = run_cli(["strong-error", "--mode", "quantization",
                            "--m", "16", "--q-min", "2", "--q-max", "4",
                            "--reps", "2000", "--out", "-"], capsys)
    assert code == 0
    rows = parse_csv(out)
    assert [r[3] for r in rows[1:]] == ["2", "3", "4"]
    msq = [float(r[4]) for r in rows[1:]]
    assert msq[0] > msq[1] > msq[2] > 0


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


def test_bakhvalov_check_triple_reports_none(capsys):
    code, out, _ = run_cli(["bakhvalov-check", "--triple"], capsys)
    assert code == 0
    assert "non-uniform triple: None" in out


def test_bakhvalov_check_feasibility_exit_3(capsys):
    code, _, err = run_cli(["bakhvalov-check", "--n", "8", "--q", "4"],
                           capsys)
    assert code == 3
    assert "feasibility error" in err


def test_oracle_with_mc(capsys):
    code, out, _ = run_cli(["oracle", "--m", "2", "--q", "2",
                            "--kind", "level-difference",
                            "--mc-reps", "50000", "--out", "-"], capsys)
    assert code == 0
    rows = parse_csv(out)
    z = float(rows[1][9])
    assert abs(z) < 4.0


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
    bands = {rows[-2][0]: float(rows[-2][1]), rows[-1][0]: float(rows[-1][1])}
    assert bands["band_bbit"] < 4.0 and bands["band_bbit_log"] < 4.0


def test_cost_report_small_grid_exit_2(capsys):
    code, _, _ = run_cli(["cost-report", "--eps-grid", "0.25,0.125"], capsys)
    assert code == 2


def test_console_entry_point():
    r = subprocess.run([sys.executable, "-m", "rbmlmc.cli", "run",
                        "--variant", "bit", "--eps", "0.25", "--seeds", "0",
                        "--out", "-"], capture_output=True, text=True)
    assert r.returncode == 0
    assert r.stdout.splitlines()[0].startswith("variant,eps,seed")
