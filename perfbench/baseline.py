"""Writes perfbench/BENCH_baseline.json: every workload, both modes, one seed.

    python3 perfbench/baseline.py [--seed 1] [--seconds 25]

Runs run.py once per workload and mode, then adds a machine note and the
reference points the ROADMAP quotes (calibrate_l2 at (1, 1e-5) for
d in {2, 10, 100, 1000}, best of three, with its probe count) so that a
later change can quote before and after numbers from one file.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (sets the thread pins before numpy is imported)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_note() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_pins": run.THREAD_PINS,
    }


def reference_points(lib) -> list[dict]:
    params = lib.calibrate.PrivacyParams(1.0, 1e-5)
    out = []
    for dim in (2, 10, 100, 1000):
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            res = lib.calibrate.calibrate_l2(dim, params)
            best = min(best, time.perf_counter() - t0)
        out.append({"d": dim, "calibrate_l2_best_of_3_s": best,
                    "probes": res.search_iterations, "sigma": res.sigma})
    return out


def run_mode(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return {"report": lines[:-1], "result": json.loads(lines[-1])}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--out", type=Path, default=HERE / "BENCH_baseline.json")
    args = parser.parse_args()
    baseline = {
        "seed": args.seed,
        "run_seconds": args.seconds,
        "machine": machine_note(),
        "reference": reference_points(run.Library()),
        "workloads": {
            name: {
                "end_to_end": run_mode(name, args.seed, args.seconds, 0),
                "traced": run_mode(name, args.seed, args.seconds, 1),
            }
            for name in run.WORKLOADS
        },
    }
    args.out.write_text(json.dumps(baseline, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
