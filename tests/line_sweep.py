"""Narrow bumps along a horocycle: how the caller line rule reads them.

    PYTHONPATH=src python tests/line_sweep.py

The integrand is exp(-a d(y, y(s0))^2) along the zero horocycle of b0 = 0,
tapered by WIDE_TAPER (S = 140), through ``horocycle_integral``.

The sweep takes 365 centres s0 = 0.37 j, j = 0..364, at a in {100, 400,
1600}, and compares each integral with the same integrand on one fixed rule:
4096 equal panels on [-S, S] (no wider than 2S/4096), each with the 32-node
Gauss-Legendre rule of ``waves._gauss_rule(16)``. A miss is an absolute error
above the rule's tolerance, 1e-9; the script prints the misses, the worst
error and the mean evaluations per integral at each a.

The halvings table gives, at a in {8, 30, 100, 1000}, the most levels past
the first that any centre s0 = 0.5, 0.75, ..., 109.75 reads before the
integral settles. pytest does not collect this file.
"""
import numpy as np

from horowave import geometry, transform
from horowave.geometry import BoundaryPoint, Horocycle, horocycle_point
from horowave.waves import _gauss_rule

ZERO = Horocycle(BoundaryPoint(0.0), 0.0)
TAPER = transform.WIDE_TAPER


def _reference_rule(panels: int = 4096):
    """Nodes and weights, taper included, of 32-node Gauss panels on [-S, S]."""
    S = TAPER.support_radius
    x, w = _gauss_rule(16)
    x, w = np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])
    edges = np.linspace(-S, S, panels + 1)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    s = (mid[:, None] + half[:, None] * x).ravel()
    return s, TAPER(s) * (half[:, None] * w).ravel()


def _bump(a: float, s0: float):
    c = np.asarray(horocycle_point(ZERO, s0).z)
    return lambda y: np.exp(-a * geometry.distance_array(y, c) ** 2)


def _integral(a: float, s0: float):
    """The rule's integral, its evaluations and its levels past the first."""
    sizes = []
    bump = _bump(a, s0)

    def counted(y):
        sizes.append(np.size(y))
        return bump(y)

    return transform.horocycle_integral(counted, ZERO, TAPER), sum(sizes), len(sizes) - 1


def sweep() -> None:
    s, w = _reference_rule()
    y = geometry.horocycle_points_array(0.0, 0.0, s)
    print("a     centres  misses>1e-9  worst_abs_error  mean_evaluations")
    for a in (100.0, 400.0, 1600.0):
        errors, evaluations = [], []
        for s0 in 0.37 * np.arange(365):
            got, n, _ = _integral(a, s0)
            errors.append(abs(got - np.sum(w * _bump(a, s0)(y))))
            evaluations.append(n)
        errors = np.array(errors)
        print(f"{a:<6g}{len(errors):<9d}{np.sum(errors > 1e-9):<13d}"
              f"{np.max(errors):<17.3e}{np.mean(evaluations):.0f}")


def halvings() -> None:
    print("a     most_halvings  at_s0")
    for a in (8.0, 30.0, 100.0, 1000.0):
        k = [_integral(a, s0)[2] for s0 in np.arange(0.5, 110.0, 0.25)]
        print(f"{a:<6g}{max(k):<15d}{0.5 + 0.25 * int(np.argmax(k)):g}")


if __name__ == "__main__":
    sweep()
    halvings()
