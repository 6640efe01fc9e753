"""Every narrative demo runs to completion from a plain checkout."""

import pathlib
import subprocess
import sys

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_six_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, child_env):
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=child_env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip(), "a demo prints its narrative"
