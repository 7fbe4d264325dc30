"""Independent references that every op's output is checked against.

These run outside the timed op. They rebuild the sampling grids from
their sizes, evaluate closed forms in geodesic polar coordinates, and use
other routes than the code under test: the boundary-average spherical
function ``waves.spherical`` for the radial quadrature, scipy's J0 for the
Euclidean circle averages, scipy ``quad`` for the window averages and
horocycle integrals. None of them calls a function the trace wraps.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import j0

RHO = 0.5

# Tolerances, fixed before any run. "abs" compares values of modulus <= 1,
# "rel" divides by the reference.
TOL = {
    "wave": 1e-9,        # rel; closed form, CSV keeps 12 significant digits
    "spherical": 1e-8,   # abs; the library's two-route agreement
    "moire": 1e-8,       # abs; same two routes, summed over the centers
    "euclid": 1e-9,      # abs; circle average claimed equal to J0
    "weak_12": 3e-2,     # rel; the main result at taper width 12
    "weak_4": 0.5,       # rel; no claim at width 4: a sanity bound only
    "roundtrip": 2e-2,   # rel L2
    "lemma": 1e-2,       # rel
}


def polar_grid(n_r: int, n_theta: int, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Geodesic radii (midpoints) and angles of the library's polar grid."""
    t = (np.arange(n_r) + 0.5) * (radius / n_r)
    theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
    return t, theta


def read_field_csv(path: str) -> np.ndarray:
    """The complex values column of a field CSV (header x,y,re,im)."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, comments="#", ndmin=2)
    return data[:, 2] + 1j * data[:, 3]


def read_numeric_csv(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, comments="#", ndmin=2)


def wave_polar(lam: float, b0: float, t: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """e_{lam,b0} on the polar grid via <z,b> = -log(cosh t - sinh t cos(theta - b0))."""
    bus = -np.log(np.cosh(t)[:, None] - np.sinh(t)[:, None] * np.cos(theta[None, :] - b0))
    return np.exp((1j * lam + RHO) * bus)


def disk_busemann(z: complex, b0: float) -> float:
    b = complex(math.cos(b0), math.sin(b0))
    return math.log((1.0 - abs(z) ** 2) / abs(z - b) ** 2)


def zero_horocycle_point(b0: float, s: float) -> complex:
    """Unit-speed point of the horocycle through 0 toward e^{i b0}, via the half plane."""
    w = complex(s, 1.0)
    return complex(math.cos(b0), math.sin(b0)) * (w - 1j) / (w + 1j)


def spherical_boundary(lam: float, rho: float) -> float:
    """phi_lam at the disk radius rho by the boundary-average route.

    Doubles the node count until the route's own M versus M/2 check passes.
    """
    from horowave.errors import QuadratureUnderResolved
    from horowave.geometry import DiskPoint
    from horowave.waves import spherical

    M = 1024
    while True:
        try:
            return spherical(lam, DiskPoint(complex(rho)), M=M).real
        except QuadratureUnderResolved:
            if M >= 2**18:
                raise
            M *= 2


def sample_nodes(seed: int, n_r: int, n_theta: int, k: int = 6) -> list[tuple[int, int]]:
    """k grid nodes, always including the innermost and outermost rings."""
    rng = np.random.default_rng(seed)
    rows = [0, n_r - 1] + [int(r) for r in rng.integers(0, n_r, k - 2)]
    return [(r, int(c)) for r, c in zip(rows, rng.integers(0, n_theta, k))]


def moire_centers(b0: float, n: int, spacing: float) -> list[complex]:
    return [zero_horocycle_point(b0, spacing * (i - (n + 1) / 2.0)) for i in range(1, n + 1)]


def moire_node_reference(lam: float, z: complex, centers: list[complex]) -> float:
    acc = 0.0
    for c in centers:
        rho = abs((z - c) / (1.0 - c.conjugate() * z))
        acc += spherical_boundary(lam, rho)
    return acc / len(centers)


def euclid_reference(lam: float, n: int, spacing: float, n_x: int, n_y: int) -> np.ndarray:
    xs = np.linspace(2.0, 6.0, n_x)
    ys = np.linspace(-2.0, 2.0, n_y)
    q = xs[None, :] + 1j * ys[:, None]
    acc = np.zeros(q.shape)
    for i in range(1, n + 1):
        c = spacing * (i - (n + 1) / 2.0)
        acc += j0(2.0 * math.pi * np.abs(q - 1j * c) / lam)
    return (acc / n).ravel()


def window_average(window, beta: float) -> complex:
    """int window(lam) e^{(i lam + rho) beta} dlam over the window's support."""
    def part(fn):
        return quad(lambda lam: float(window(lam)) * fn(lam), window.lo, window.hi,
                    limit=200, epsabs=1e-13, epsrel=1e-12)[0]
    scale = math.exp(RHO * beta)
    return scale * complex(part(lambda lam: math.cos(lam * beta)),
                           part(lambda lam: math.sin(lam * beta)))


def horocycle_bump_integral(coeff: float, taper_width: float) -> float:
    """Tapered integral of exp(-coeff d(0, y(s))^2) along a horocycle through 0.

    Uses the arc-length law cosh d = 1 + s^2 / 2.
    """
    def integrand(s):
        d = math.acosh(1.0 + 0.5 * s * s)
        return math.exp(-coeff * d * d - 0.5 * (s / taper_width) ** 2)

    half = 6.0 * taper_width
    return 2.0 * quad(integrand, 0.0, half, limit=400, epsabs=1e-14, epsrel=1e-12)[0]


def bump_polar(lobes: list[dict], weights: list[float], t: np.ndarray,
               theta: np.ndarray) -> np.ndarray:
    """Sum of weighted Gaussian bumps exp(-coeff d(z, c)^2) on the polar grid."""
    z = np.tanh(t / 2.0)[:, None] * np.exp(1j * theta)[None, :]
    acc = np.zeros(z.shape)
    for lobe, w in zip(lobes, weights):
        c = lobe["offset"] * complex(math.cos(lobe["angle"]), math.sin(lobe["angle"]))
        rho = np.abs((z - c) / (1.0 - np.conj(c) * z))
        acc += w * np.exp(-lobe["coeff"] * (2.0 * np.arctanh(rho)) ** 2)
    return acc


def rel_l2(values: np.ndarray, ref: np.ndarray, t: np.ndarray) -> float:
    """Relative L2 error with the hyperbolic area weight sinh(t) per ring."""
    w = np.sinh(t)[:, None]
    return math.sqrt(float(np.sum(w * np.abs(values - ref) ** 2) / np.sum(w * np.abs(ref) ** 2)))
