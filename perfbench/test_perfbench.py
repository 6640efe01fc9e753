"""Checks on the benchmark itself.

    python3 -m pytest -q perfbench

Two traced runs on one seed must report identical exact counts, the
metric names must match BENCHMARK.json, and the benchmark must refuse to
run where the l2mech sources are missing.  One expected failure records
a library defect that the calibrate-mix privacy gate works around.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def test_metric_names_match_benchmark_json():
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert per_layer == run.LAYER_METRICS
    assert end_to_end == run.END_TO_END_UNITS
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    results = []
    for _ in range(2):
        proc = _run(workload, seed=3, trace=1)
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    first, second = (r["metrics"] for r in results)
    assert set(first) == set(run.LAYER_METRICS)
    exact = [m for m in first if m in run.EXACT_LAYER_METRICS]
    assert exact
    assert {m: first[m] for m in exact} == {m: second[m] for m in exact}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("sample-verify", seed=1, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ε·(1/ε) rounds to 1 - 2^-53 here, every probe fails, and calibrate_l2
# returns the top of its bracket unchecked; run.Library.private proves it
# by the pure guarantee instead.  This passes once the library certifies
# (or ulp-nudges) the sigma it returns.
@pytest.mark.xfail(strict=True, reason="calibrate_l2 returns 1/epsilon without certifying it")
def test_calibrated_sigma_at_bracket_top_is_certified():
    lib = run.Library()
    params = lib.calibrate.PrivacyParams(0.2605353308290174, 6.884270460076574e-09)
    sigma = lib.calibrate.calibrate_l2(4, params).sigma
    assert lib.private(4, sigma, params)
    assert lib.certified(4, sigma, params)
