"""The benchmark's set-up: its warm-up CLI calls must exit 0, or every run stops."""
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["figures", "spectral"])
def test_benchmark_setup_runs(workload):
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--setup-only", "--workload",
                           workload, "--seed", "0", "--seconds", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
