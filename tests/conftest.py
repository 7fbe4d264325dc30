"""Shared test set-up: the CLI subprocesses' import path and a disk helper."""
import os

import numpy as np

import horowave

# CLI tests run ``python -m horowave.cli`` in a subprocess: let it import the
# same package as the tests, also when that is found only through pytest's
# ``pythonpath`` setting
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [os.path.dirname(os.path.dirname(horowave.__file__)),
                  os.environ.get("PYTHONPATH")]))


def disk_distance(z):
    """Geodesic distance from the origin, vectorized."""
    return 2.0 * np.arctanh(np.abs(z))
