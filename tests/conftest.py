"""Shared fixtures: the one-time kappa_H fit and common test fields."""
import os

import numpy as np
import pytest

import horowave

# CLI tests run ``python -m horowave.cli`` in a subprocess: let it import the
# same package as the tests, also when that is found only through pytest's
# ``pythonpath`` setting
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [os.path.dirname(os.path.dirname(horowave.__file__)),
                  os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def kappa_h():
    """Trigger the one-time horocycle-measure fit and return kappa_H."""
    from horowave.moire import kappa_h
    return kappa_h()


def disk_distance(z):
    """Geodesic distance from the origin, vectorized."""
    return 2.0 * np.arctanh(np.abs(z))


def mobius_to(z, w):
    """Disk automorphism sending w to the origin."""
    return (z - w) / (1.0 - np.conj(w) * z)
