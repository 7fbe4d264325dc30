"""Shared test set-up: the import path of the tests' subprocesses, and a disk helper."""
import os

import numpy as np

import horowave

# CLI tests call ``cli.main`` in process. A few tests launch Python: one runs
# ``python -m horowave.cli`` for its exit status, one checks the modules a
# fresh process loads, and the benchmark tests run perfbench. Let each import
# the same package as the tests, also when that is found only through
# pytest's ``pythonpath`` setting
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [os.path.dirname(os.path.dirname(horowave.__file__)),
                  os.environ.get("PYTHONPATH")]))


def disk_distance(z):
    """Geodesic distance from the origin, vectorized."""
    return 2.0 * np.arctanh(np.abs(z))
