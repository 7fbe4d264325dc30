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


def test_interleave_ops_runs_a_tree_against_itself():
    """tests/interleave_ops.py on figures at --seconds 1: 4 ops a side, none failed, no
    tail from 4 ops, nothing written."""
    def files():
        return sorted(p for d in ("src", "perfbench") for p in (ROOT / d).rglob("*"))

    before = files()
    proc = subprocess.run([sys.executable, "tests/interleave_ops.py", str(ROOT), str(ROOT),
                           "--workload", "figures", "--seeds", "1", "--seconds", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "seed 1: figures, 4 ops each" in proc.stdout
    rows = {line.split()[0]: line.split()[1:] for line in proc.stdout.splitlines()[4:]}
    assert rows["failed"][:2] == ["0", "0"]
    assert rows["tail_s"] == ["n/a", "n/a", "n/a"]
    assert {"p50_s", "tail_s", "ops_per_s", "wave_median_s", "euclid_median_s"} <= set(rows)
    assert files() == before
