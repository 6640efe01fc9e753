"""Command-line surface: parsing, payload shapes, determinism, exit codes."""

import argparse
import csv
import io
import json
import math
import subprocess
import sys

import pytest

import l2mech.cli as cli
from l2mech._records import to_json
from l2mech.calibrate import PrivacyParams, calibrate_gaussian, laplace_sigma
from l2mech.cli import UsageError, main, parse_args
from l2mech.errormodel import TABLE_FIELDS, comparison_table, table_to_json
from l2mech.lossbounds import check_approx_dp
from l2mech.specfun import ConvergenceError

CAL = ["calibrate", "--eps", "1", "--delta", "1e-5", "--mech", "l2"]
SAMPLE = ["sample", "--mech", "l2", "--sigma", "1", "--samples", "3", "--dim", "2"]


def test_parse_defaults():
    cfg = parse_args(CAL)
    assert cfg.command == "calibrate"
    assert cfg.dim == 1 and cfg.seed == 0
    assert cfg.n_r == 1000 and cfg.n_R == 1000
    assert cfg.tol == 1e-3
    assert cfg.output_format == "json" and cfg.output_path is None
    # tabular commands default to csv instead
    assert parse_args(["compare", "--eps", "1", "--delta", "1e-5", "--dim", "2"]).output_format == "csv"
    assert parse_args(
        ["sample", "--mech", "l2", "--sigma", "1", "--samples", "3", "--dim", "2"]
    ).output_format == "csv"


def test_parse_rejects_bad_budget():
    with pytest.raises(UsageError, match="--eps must be positive and finite"):
        parse_args(["calibrate", "--eps", "0", "--delta", "1e-5", "--mech", "l2"])
    with pytest.raises(UsageError, match=r"--delta must lie strictly in \(0, 1\)"):
        parse_args(["calibrate", "--eps", "1", "--delta", "1", "--mech", "l2"])


def test_usage_error_lists_every_problem():
    with pytest.raises(UsageError) as excinfo:
        parse_args(["calibrate"])
    msg = str(excinfo.value)
    for part in ("--eps is required", "--delta is required", "--mech is required"):
        assert part in msg
    assert msg.count(";") >= 2


def test_more_flag_validation():
    with pytest.raises(UsageError, match="--nr must be >= 2"):
        parse_args(CAL + ["--nr", "1"])
    with pytest.raises(UsageError, match="--tol must be positive"):
        parse_args(CAL + ["--tol", "0"])
    with pytest.raises(UsageError, match=r"seed must lie in \[0, 2\^64\)"):
        parse_args(SAMPLE + ["--seed", "-1"])
    with pytest.raises(UsageError, match="must be an integer"):
        parse_args(SAMPLE + ["--seed", "abc"])


def test_subcommands_take_only_the_flags_they_read():
    # calibrate and compare draw nothing, so they take no seed; sample
    # runs no certificate search, so it takes no grid sizes or tolerance
    compare = ["compare", "--eps", "1", "--delta", "1e-5", "--dim", "2"]
    unread = [CAL + ["--seed", "1"], compare + ["--seed", "1"]]
    unread += [SAMPLE + [flag, "10"] for flag in ("--nr", "--nR", "--tol")]
    for args in unread:
        with pytest.raises(SystemExit) as excinfo:
            main(args)
        assert excinfo.value.code == 2, args


def test_commands_are_the_parsers_subcommands():
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert cli.COMMANDS == tuple(sub.choices) == ("calibrate", "compare", "sample", "verify")


def test_exit_codes(capsys):
    assert main(["calibrate"]) == 2
    assert "error:" in capsys.readouterr().err
    with pytest.raises(SystemExit) as excinfo:
        main(CAL + ["--bogus"])
    assert excinfo.value.code == 2
    # timing lives in perfbench/, not in the CLI
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "--eps", "1", "--delta", "1e-5"])
    assert excinfo.value.code == 2


def test_numerical_failure_exits_1(capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise ConvergenceError("series stalled")

    monkeypatch.setattr(cli, "calibrate_l2", boom)
    assert main(CAL) == 1
    assert "series stalled" in capsys.readouterr().err


def test_verify_at_huge_dim_and_tiny_sigma_exits_0(capsys):
    # the certificate claims nothing here rather than reading NaN, so the
    # JSON payload is finite
    argv = [
        "verify", "--dim", "1000000", "--sigma", "7.637279916239871e-21",
        "--eps", "160.79497340474109", "--delta", "1e-5", "--samples", "1000",
    ]
    assert main(argv) == 0
    analytic = json.loads(capsys.readouterr().out)["analytic"]
    assert analytic["lhs_upper"] == 1.0 and analytic["satisfies_dp"] is False


def test_calibrate_json_payload(capsys):
    assert main(CAL) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {
        "mechanism", "dim", "epsilon", "delta", "sigma", "pure_epsilon",
        "search_iterations", "tolerance", "hit_bracket_floor",
    }
    assert payload["mechanism"] == "l2" and payload["dim"] == 1
    assert abs(payload["sigma"] - 0.99998) < 1e-3
    assert payload["hit_bracket_floor"] is False


def test_calibrate_csv_flattens(capsys):
    assert main(CAL + ["--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0][0] == "mechanism" and rows[1][0] == "l2"
    assert len(rows[0]) == len(rows[1]) == 9


def test_calibrate_baselines_match_the_library(capsys):
    params = PrivacyParams(1.0, 1e-5)
    want = {
        "laplace": laplace_sigma(3, params),
        "gaussian": calibrate_gaussian(params, 0.01),
    }
    for mech, res in want.items():
        args = ["calibrate", "--eps", "1", "--delta", "1e-5", "--mech", mech,
                "--dim", "3", "--tol", "0.01"]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mechanism"] == mech
        assert payload["sigma"] == res.sigma
        assert payload["pure_epsilon"] == res.pure_epsilon
        assert payload["search_iterations"] == res.search_iterations


def test_compare_json_is_the_table(capsys):
    args = ["compare", "--eps", "1", "--delta", "1e-5", "--dim", "3", "--format", "json"]
    assert main(args) == 0
    rows = comparison_table(PrivacyParams(1.0, 1e-5), 3)
    assert capsys.readouterr().out == table_to_json(rows) + "\n"


def test_compare_csv_table(capsys):
    assert main(["compare", "--eps", "1", "--delta", "1e-5", "--dim", "8"]) == 0
    out = capsys.readouterr().out
    assert "\r\n" in out
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == list(TABLE_FIELDS)
    body = [r for r in rows[1:] if r]
    assert len(body) == 24
    by_dim = {}
    for r in body:
        by_dim.setdefault(int(r[0]), {})[r[1]] = float(r[3])
    for d, mse in by_dim.items():
        assert mse["l2"] <= mse["laplace"] + 1e-12, d
        assert mse["l2"] <= mse["gaussian"] + 1e-12, d


def test_sample_csv_deterministic(capsys):
    args = ["sample", "--mech", "l2", "--sigma", "0.5", "--samples", "5",
            "--dim", "3", "--seed", "42"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    lines = first.split("\r\n")
    assert lines[0] == "x0,x1,x2"
    assert len(lines) == 7 and lines[-1] == ""


def test_sample_json(capsys):
    args = ["sample", "--mech", "gaussian", "--sigma", "2", "--samples", "4",
            "--dim", "2", "--seed", "1", "--format", "json"]
    assert main(args) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["mechanism"] == "gaussian" and payload["count"] == 4
    assert payload["dim"] == 2 and payload["seed"] == 1
    assert len(payload["values"]) == 4 and len(payload["values"][0]) == 2


def test_seed_env_fallback(capsys, monkeypatch):
    base = ["sample", "--mech", "laplace", "--sigma", "1", "--samples", "3", "--dim", "2"]
    assert main(base + ["--seed", "77"]) == 0
    explicit = capsys.readouterr().out
    monkeypatch.setenv("L2MECH_SEED", "77")
    assert main(base) == 0
    assert capsys.readouterr().out == explicit
    # an explicit flag wins over the environment
    monkeypatch.setenv("L2MECH_SEED", "1")
    assert main(base + ["--seed", "77"]) == 0
    assert capsys.readouterr().out == explicit


def test_verify_with_sigma_payload(capsys):
    args = ["verify", "--eps", "1", "--delta", "0.01", "--dim", "2",
            "--sigma", "0.7", "--samples", "20000", "--seed", "3"]
    assert main(args) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["d"] == 2 and payload["sigma"] == 0.7
    ana = payload["analytic"]
    assert set(ana) == {"term1_upper", "term2_lower", "lhs_upper",
                        "satisfies_dp", "branch", "r_star", "n_r", "n_R"}
    assert isinstance(ana["satisfies_dp"], bool)
    emp = payload["empirical"]
    assert emp["n"] == 20000 and emp["seed"] == 3
    # the certified bound must dominate the noisy estimate
    assert ana["lhs_upper"] >= emp["lhs"] - 4.0 * emp["std_error"]


def test_verify_with_sigma_csv_flattens_the_nested_payload(capsys):
    args = ["verify", "--eps", "1", "--delta", "0.01", "--dim", "2", "--sigma", "0.7",
            "--samples", "1000", "--seed", "3", "--format", "csv"]
    assert main(args) == 0
    header, values = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    row = dict(zip(header, values))
    assert header[:4] == ["d", "sigma", "epsilon", "delta"]
    assert "analytic.lhs_upper" in row and "empirical.std_error" in row
    report = check_approx_dp(2, 0.7, PrivacyParams(1.0, 0.01))
    assert float(row["analytic.lhs_upper"]) == report.lhs_upper
    assert row["analytic.branch"] == report.branch
    assert row["empirical.n"] == "1000" and row["empirical.seed"] == "3"


def test_verify_search_mode(capsys):
    args = ["verify", "--eps", "1", "--delta", "0.01", "--dim", "1",
            "--samples", "50000", "--seed", "4"]
    assert main(args) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"d", "epsilon", "delta", "n", "seed",
                            "analytic_sigma", "empirical_sigma", "relative_gap"}
    assert payload["n"] == 50000
    assert payload["relative_gap"] <= 0.05


def test_verify_refuses_an_unaffordable_default_sample_count(capsys):
    # ceil(1000/delta) = 10^12 pairs per probe would run for days
    args = ["verify", "--eps", "1", "--delta", "1e-9", "--dim", "2"]
    assert main(args) == 2
    assert "--samples is required" in capsys.readouterr().err
    assert main(args + ["--sigma", "0.7"]) == 2
    capsys.readouterr()
    # 10^7 itself is allowed, and an explicit count runs as given
    assert parse_args(["verify", "--eps", "1", "--delta", "1e-4"]).samples is None
    cfg = parse_args(args + ["--sigma", "0.7", "--samples", "1000"])
    assert cfg.samples == 1000 and cfg.delta == 1e-9
    assert main(args + ["--sigma", "0.7", "--samples", "1000"]) == 0
    assert json.loads(capsys.readouterr().out)["empirical"]["n"] == 1000


def test_json_refuses_values_json_cannot_hold(capsys):
    # JSON has no Infinity or NaN, so the one writer refuses them rather
    # than print invalid JSON.  At sigma = 1e308 no radial grid runs, so
    # r_star reads 0.0 and the record holds only finite values
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="Out of range float values"):
            to_json({"r_star": bad})
    args = ["verify", "--eps", "1", "--delta", "0.01", "--dim", "2",
            "--sigma", "1e308", "--samples", "10"]
    assert main(args) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out)["analytic"]["r_star"] == 0.0


def test_a_tolerance_too_fine_for_the_search_exits_1(capsys):
    assert main(CAL + ["--dim", "2", "--tol", "1e-70"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: tol=1e-70 is too fine for the bracket [1e-70, 1.0]")


def _flat(payload: dict, prefix: str = "") -> dict:
    flat = {}
    for key, value in payload.items():
        if isinstance(value, dict):
            flat.update(_flat(value, f"{prefix}{key}."))
        else:
            flat[f"{prefix}{key}"] = value
    return flat


@pytest.mark.parametrize(
    "args",
    [
        CAL + ["--dim", "3"],
        ["calibrate", "--eps", "1", "--delta", "1e-5", "--mech", "gaussian"],
        ["verify", "--eps", "1", "--delta", "0.01", "--dim", "2", "--sigma", "0.7",
         "--samples", "1000", "--seed", "3"],
    ],
    ids=["calibrate-l2", "calibrate-gaussian", "verify-sigma"],
)
def test_csv_row_is_the_flattened_json(capsys, args):
    # the CSV header is the JSON's flattened keys in order, and each cell
    # is the JSON value as csv writes it: floats in their shortest
    # round-trip form, null as an empty cell
    assert main(args) == 0
    want = _flat(json.loads(capsys.readouterr().out))
    assert main(args + ["--format", "csv"]) == 0
    header, values = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert header == list(want)
    assert values == ["" if v is None else str(v) for v in want.values()]


def test_out_file_matches_stdout(tmp_path, capsys):
    args = ["sample", "--mech", "l2", "--sigma", "0.5", "--samples", "4",
            "--dim", "2", "--seed", "9"]
    assert main(args) == 0
    streamed = capsys.readouterr().out
    target = tmp_path / "draws.csv"
    assert main(args + ["--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_bytes().decode() == streamed


def test_console_script_entry(child_env):
    proc = subprocess.run(
        [sys.executable, "-c",
         "from l2mech.cli import main; import sys; sys.exit(main(sys.argv[1:]))",
         *CAL],
        capture_output=True, text=True, env=child_env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["mechanism"] == "l2"


def test_module_run_as_a_script(child_env):
    # python -m l2mech.cli runs its command and maps faults to exit codes
    args = [sys.executable, "-m", "l2mech.cli", *CAL, "--dim", "2"]
    proc = subprocess.run(args, capture_output=True, text=True, env=child_env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dim"] == 2
    proc = subprocess.run(
        args + ["--tol", "1e-70"], capture_output=True, text=True, env=child_env
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: tol=1e-70 is too fine")
