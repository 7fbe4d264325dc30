"""Euclidean baseline: plane waves, J0 ring profiles, discrete line moire.

Sanity model for the hyperbolic construction: a row of equally spaced J0
profiles along a line superposes into nearly a plane wave propagating
orthogonally to the line. A ring profile is the mean of exp(i (2pi/lam) u.(q-x0))
over unit vectors u, the Bessel function J0 (1 at its center).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PlanePoint", "plane_wave", "bessel_wave", "line_moire",
           "plane_wave_array", "bessel_wave_array", "line_moire_array"]

_M_ANGULAR = 256  # trapezoid nodes for the circle average


@dataclass(frozen=True)
class PlanePoint:
    x: float
    y: float

    def __post_init__(self):
        if not (np.isfinite(self.x) and np.isfinite(self.y)):
            raise ValueError("PlanePoint requires finite coordinates")

    @property
    def as_complex(self) -> complex:
        return complex(self.x, self.y)


def plane_wave(p: tuple[float, float], q: PlanePoint) -> complex:
    return complex(plane_wave_array(p, np.asarray(q.as_complex)))


def plane_wave_array(p: tuple[float, float], q: np.ndarray) -> np.ndarray:
    """e^{i p.q} on an array of complex plane coordinates q."""
    px, py = p
    return np.exp(1j * (px * q.real + py * q.imag))


def bessel_wave(lam: float, x0: PlanePoint, q: PlanePoint) -> complex:
    return complex(bessel_wave_array(lam, x0.as_complex, np.asarray(q.as_complex)))


def bessel_wave_array(lam: float, x0: complex, q: np.ndarray) -> np.ndarray:
    """J0(2pi |q-x0| / lam): the circle average of ``line_moire_array`` with one center."""
    return line_moire_array(lam, 1, 1.0, np.asarray(q) - x0)


def line_moire(lam: float, n: int, spacing: float, q: PlanePoint) -> complex:
    return complex(line_moire_array(lam, n, spacing, np.asarray(q.as_complex)))


def line_moire_array(lam: float, n: int, spacing: float, q: np.ndarray,
                     m: int = _M_ANGULAR) -> np.ndarray:
    """Average of n J0 profiles centered on the y-axis, spacing apart.

    Each profile is an m-node circle average; the sum over centers ic moves
    inside that average as the weight A(u) = (1/n) sum_c e^{-ik c sin u}, the
    Dirichlet kernel sin(n y) / (n sin y), y = k spacing sin(u) / 2. It is
    taken at z = y - j pi, |z| <= pi/2, as (-1)^{(n-1) j} sinc(n z/pi) /
    sinc(z/pi): no 0/0 at resonance (z = 0), and no row of centers, so its
    cost does not grow with n; one center is exactly one ring. The phase
    factors as e^{ik x cos u} * e^{ik y sin u}, so exponentials are taken
    only on the distinct x and the distinct y coordinates of q (A folds into the
    y factor), and each point costs m products: O(m (n_x + n_y + |q|))
    instead of O(m |q|) exponentials, a saving on tensor grids. There the
    products are summed once per grid node from the two factor tables, without
    gathering a copy of them per point.
    """
    if not (np.isfinite(lam) and lam > 0):
        raise ValueError(f"line_moire requires a finite wavelength lam > 0, got {lam}")
    if n < 1:
        raise ValueError("line_moire requires n >= 1")
    if spacing <= 0:
        raise ValueError("line_moire requires spacing > 0")
    if not np.isfinite(float(spacing) * ((n - 1) / 2.0)):
        raise ValueError(f"line_moire requires finite end centers +-spacing (n - 1) / 2, "
                         f"got spacing {spacing:g} at n = {n}")
    u = 2.0 * np.pi * np.arange(m) / m
    k = 2.0 * np.pi / lam
    # one center is one ring (A = 1), even where k spacing overflows
    y = (0.5 * k * spacing) * np.sin(u) if n > 1 else np.zeros(m)
    j = np.round(y / np.pi)
    z = y - j * np.pi
    A = (1.0 - 2.0 * ((n - 1) % 2) * (j % 2)) * np.sinc(n * z / np.pi) / np.sinc(z / np.pi)
    q = np.asarray(q)
    xs, ix = np.unique(q.real.ravel(), return_inverse=True)
    ys, iy = np.unique(q.imag.ravel(), return_inverse=True)
    ex = np.exp(1j * k * xs[:, None] * np.cos(u))
    ey = np.exp(1j * k * ys[:, None] * np.sin(u)) * A
    # einsum's own loops, not BLAS products: no thread pool for small sums
    if len(xs) * len(ys) <= q.size:
        # the grid of q's distinct x and y is no larger than q (a tensor
        # grid, a point): one sum per node of that grid, read back per point
        sums = np.einsum("yu,xu->yx", ey, ex)[iy, ix]
    else:
        sums = np.einsum("pu,pu->p", ey[iy], ex[ix])
    return (sums / m).reshape(q.shape)


def _aliasing_bound(lam: float, n: int, spacing: float, q: np.ndarray, m: int) -> float:
    """Bound on ``line_moire_array``'s error at q; on a grid its corners suffice.

    Each ring's rule errs by 2 sum_{j>=1} i^{jm} J_{jm}(kr) cos(jm alpha) (Trefethen
    and Weideman, SIAM Review 56, 2014). While m > x = k r_max, r_max the farthest
    end center from q, that is at most 2 K_m(x) (``_kapteyn``), above a phase
    round-off floor x 2^-53; else 2, as the rule and J0 have modulus <= 1.
    """
    ends = np.array([-1j, 1j]) * (spacing * ((n - 1) / 2.0))
    x = 2.0 * np.pi / lam * float(np.max(np.abs(np.ravel(q)[:, None] - ends)))
    return max(2.0 * _kapteyn(m, x), x * 2.0 ** -53) if x < m else 2.0


def _kapteyn(m: int, x: float) -> float:
    """Kapteyn's bound (z e^s / (1+s))^m >= |J_m(x)|, z = x/m <= 1, s = sqrt(1-z^2) (DLMF 10.14)."""
    s = (1.0 - (x / m) ** 2) ** 0.5
    return float(x / m * np.exp(s) / (1.0 + s)) ** m
