"""Helgason waves, elementary spherical functions, c-function, Plancherel density.

The spherical function of the disk is evaluated two independent ways: a
periodic-trapezoid average of Helgason waves over the boundary circle
(``spherical``), and a fast radial path (``spherical_radial``) built on the
Mehler-Dirichlet integral

    phi_lambda(d) = (sqrt(2)/pi) * int_0^d cos(lambda t) / sqrt(cosh d - cosh t) dt,

regularized by the substitution t = d - v^2 and evaluated with fixed
Gauss-Legendre nodes. The two agree to machine precision at desk scale.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import QuadratureUnderResolved, SpectralSingularity
from .geometry import BoundaryPoint, DiskPoint, busemann_array

__all__ = [
    "SpectralConvention",
    "CONVENTION",
    "helgason_wave",
    "helgason_wave_array",
    "spherical",
    "spherical_radial",
    "spherical_radial_profile",
    "xi_function",
    "harish_chandra_c",
    "plancherel_density",
]

RHO = 0.5


class SpectralConvention:
    """Fixed constants of the build plus the one calibrated scalar.

    ``plancherel_kappa`` is set once by the transform round-trip
    calibration and is immutable afterwards (initialize-then-freeze).
    """

    rho: float = RHO
    curvature: float = -1.0
    weyl_order: int = 2

    def __init__(self):
        self._kappa: Optional[float] = None
        self._calibrator: Optional[Callable[[], float]] = None

    def register_calibrator(self, fn: Callable[[], float]) -> None:
        self._calibrator = fn

    @property
    def plancherel_kappa(self) -> float:
        if self._kappa is None:
            if self._calibrator is None:
                raise RuntimeError("plancherel_kappa not calibrated yet")
            self._kappa = float(self._calibrator())
        return self._kappa

    def set_plancherel_kappa(self, value: float) -> None:
        if self._kappa is not None:
            raise RuntimeError("plancherel_kappa is already frozen")
        self._kappa = float(value)

    @property
    def is_calibrated(self) -> bool:
        return self._kappa is not None


CONVENTION = SpectralConvention()


def helgason_wave(lam: float, b: BoundaryPoint, p: DiskPoint) -> complex:
    """Non-Euclidean plane wave exp((i lam + rho) * busemann(p, b))."""
    return complex(helgason_wave_array(lam, b.theta, np.asarray(p.z)))


def helgason_wave_array(lam: float, theta: float, z: np.ndarray) -> np.ndarray:
    return np.exp((1j * lam + RHO) * busemann_array(z, theta))


def _trapezoid_halving(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
                       n: int, tol: float, max_halvings: int, what: str):
    """Trapezoid of f on [lo, hi] from n intervals, step halved until settled.

    Each halving evaluates f only at the new midpoints and updates
    T <- T/2 + (h/2) * sum f(mids). f maps a 1-D node array to values whose
    last axis runs over the nodes, so a leading axis integrates several
    functions on one grid; the change between levels is measured in the
    max-abs norm. Returns the first level that moved by less than tol, and
    raises QuadratureUnderResolved when max_halvings halvings do not settle.
    """
    h = (hi - lo) / n
    y = f(np.linspace(lo, hi, n + 1))
    T = h * (np.sum(y, axis=-1) - 0.5 * (y[..., 0] + y[..., -1]))
    change = math.inf
    for _ in range(max_halvings):
        mids = np.linspace(lo + 0.5 * h, hi - 0.5 * h, n)
        T_new = 0.5 * T + 0.5 * h * np.sum(f(mids), axis=-1)
        change = float(np.max(np.abs(T_new - T)))
        if change < tol:
            return T_new
        T, h, n = T_new, 0.5 * h, 2 * n
    raise QuadratureUnderResolved(
        f"{what} did not settle below {tol:g} after {max_halvings} halvings "
        f"(last change {change:.2e})"
    )


def spherical(lam: float, p: DiskPoint, M: int = 512) -> complex:
    """Boundary average of Helgason waves (periodic trapezoid, M nodes).

    Raises QuadratureUnderResolved when the M and M/2 node results differ
    by more than 1e-9; pass a larger M for points far from the origin.
    """
    # the boundary angle in turns, so that the integral is the mean; on a
    # periodic integrand the trapezoid with one halving is the M-node rule
    z = np.asarray(p.z)
    return complex(_trapezoid_halving(
        lambda u: np.exp((1j * lam + RHO) * busemann_array(z, 2.0 * np.pi * u)),
        0.0, 1.0, M // 2, tol=1e-9, max_halvings=1,
        what=f"spherical({lam}, |z|={abs(p.z):.4f}) with M={M}"))


# Gauss-Legendre rule on [0, 1] shared by all radial evaluations.
_N_GL = 400
_gl_x, _gl_w = np.polynomial.legendre.leggauss(_N_GL)
_GL_X = 0.5 * (_gl_x + 1.0)
_GL_W = 0.5 * _gl_w


def _log_sinh(x: np.ndarray) -> np.ndarray:
    """log(sinh x) for x > 0 without overflow."""
    x = np.asarray(x, float)
    return x + np.log(-np.expm1(-2.0 * np.minimum(x, 700.0))) - math.log(2.0)


def _log_sinhc(h: np.ndarray) -> np.ndarray:
    """log(sinh(h)/h) for h >= 0, stable near 0 and for large h."""
    small = h < 1e-4
    hs = np.where(small, 1.0, h)
    out = _log_sinh(hs) - np.log(hs)
    return np.where(small, np.log1p(h * h / 6.0), out)


def _mehler_dirichlet(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """lambda-independent part of the radial rule at 1-D distances d.

    Returns (W, phase), each of shape (len(d), nodes), such that
    phi_lambda(d[j]) = sum_k W[j, k] cos(lambda * phase[j, k]) for d[j] > 0:
    the Gauss-Legendre nodes v in [0, sqrt(d)] of the substituted
    integrand, with t = phase = d - v^2.
    """
    d = d[:, None]
    vmax = np.sqrt(d)
    v = vmax * _GL_X[None, :]
    h = 0.5 * v * v
    # cosh d - cosh(d - v^2) = 2 sinh(d - h) sinh(h); divide by v^2 = 2h
    with np.errstate(divide="ignore", invalid="ignore"):
        log_q = _log_sinh(np.maximum(d - h, 1e-300)) + _log_sinhc(h)
        W = (2.0 * math.sqrt(2.0) / math.pi) * (vmax * _GL_W[None, :]) * np.exp(-0.5 * log_q)
        return W, d - v * v


def _near_center(lam: np.ndarray, d: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """phi with the series 1 - (lam^2 + 1/4) d^2 / 4 where its next term is negligible.

    The series is used where x = (lam^2 + 1/4) d^2 < 1e-16, so the
    dropped O(x^2) term is below 1e-32 and d = 0 gives exactly 1. The
    quadrature alone goes wrong below d ~ 1e-250, where its squared
    nodes underflow. Only distances in [0, 2e-8) can qualify, and only
    those are looked at.
    """
    if not np.any((0.0 <= d) & (d < 2e-8)):
        return phi
    lam, d = np.broadcast_arrays(lam, d)
    near = (0.0 <= d) & (d < 2e-8)
    x = (lam[near] ** 2 + 0.25) * d[near] ** 2
    phi[near] = np.where(x < 1e-16, 1.0 - 0.25 * x, phi[near])
    return phi


# Distances per block of the radial rule; bounds its (block, nodes) temporaries.
_CHUNK = 4096


def spherical_radial(lam, d) -> np.ndarray:
    """phi_lambda at geodesic distance d from the center; broadcasts.

    Equals spherical(lam, tanh(d/2) * e^{i alpha}) for any angle alpha.
    Stable for all d (the cosh difference under the square root is kept
    in log space, and a Taylor series takes over near d = 0). Distances
    are processed in blocks of 4096 to bound the temporaries.
    """
    lam_b, d_b = np.broadcast_arrays(np.asarray(lam, float), np.asarray(d, float))
    shape = lam_b.shape
    lam_f, d_f = lam_b.reshape(-1), d_b.reshape(-1)
    out = np.empty(len(d_f))
    for lo in range(0, len(d_f), _CHUNK):
        W, phase = _mehler_dirichlet(d_f[lo:lo + _CHUNK])
        with np.errstate(invalid="ignore"):
            out[lo:lo + _CHUNK] = np.sum(W * np.cos(lam_f[lo:lo + _CHUNK, None] * phase),
                                         axis=1)
    result = _near_center(lam_f, d_f, out).reshape(shape)
    return result if shape else result[()]


def spherical_radial_profile(lams: np.ndarray, d: np.ndarray,
                             chunk: int = _CHUNK) -> np.ndarray:
    """Matrix phi[i, j] = phi_{lams[i]}(d[j]) for 1-D lams and d.

    Same quadrature as ``spherical_radial``, but the lambda-independent
    kernel (weights times the regularized cosh-difference factor) is built
    once per distance block and reused for every lambda, which is much
    faster than broadcasting when len(lams) is large. Distances are
    processed in blocks of ``chunk`` to bound the temporaries.
    """
    lams = np.asarray(lams, float).ravel()
    d = np.asarray(d, float).ravel()
    out = np.empty((len(lams), len(d)))
    for lo in range(0, len(d), chunk):
        W, phase = _mehler_dirichlet(d[lo:lo + chunk])
        with np.errstate(invalid="ignore"):
            for i, lam in enumerate(lams):
                out[i, lo:lo + chunk] = np.sum(W * np.cos(lam * phase), axis=1)
    return _near_center(lams[:, None], d[None, :], out)


def xi_function(d) -> np.ndarray:
    """Harish-Chandra Xi function: the spherical function at lambda = 0."""
    return spherical_radial(0.0, d)


def harish_chandra_c(lam: float, t_window: tuple[float, float] = (10.0, 14.0),
                     n_fit: int = 81) -> complex:
    """c(lambda) from the large-distance asymptotics of phi_lambda.

    Least-squares fit of phi_lambda(t) e^{t/2} against
    c1 e^{i lam t} + c2 e^{-i lam t} on the fit window; returns c1.
    """
    if abs(lam) < 1e-8:
        raise SpectralSingularity("c-function extraction is singular at lambda = 0")
    t = np.linspace(t_window[0], t_window[1], n_fit)
    vals = spherical_radial(lam, t) * np.exp(t / 2.0)
    A = np.stack([np.exp(1j * lam * t), np.exp(-1j * lam * t)], axis=1)
    coef, *_ = np.linalg.lstsq(A, vals.astype(complex), rcond=None)
    return complex(coef[0])


def plancherel_density(lam, kappa: Optional[float] = None) -> np.ndarray:
    """kappa * lam * tanh(pi lam); even in lam, vanishing at lam = 0.

    Uses the frozen calibrated kappa unless one is passed explicitly.
    """
    if kappa is None:
        kappa = CONVENTION.plancherel_kappa
    lam = np.asarray(lam, float)
    out = kappa * lam * np.tanh(np.pi * lam)
    return out if out.shape else out[()]
