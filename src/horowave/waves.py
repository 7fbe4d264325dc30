"""Helgason waves, elementary spherical functions, c-function, Plancherel density.

The spherical function of the disk is evaluated two independent ways: a
periodic-trapezoid average of Helgason waves over the boundary circle
(``spherical``), and a fast radial path (``spherical_radial``) built on the
Mehler-Dirichlet integral

    phi_lambda(d) = (sqrt(2)/pi) * int_0^d cos(lambda t) / sqrt(cosh d - cosh t) dt,

regularized by the substitution t = d - v^2 and evaluated by a Gauss rule
whose node count follows lambda * d and is checked against the half-size
rule on every call. The two agree to machine precision at desk scale.
"""
from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .errors import QuadratureUnderResolved, SpectralSingularity
from .geometry import BoundaryPoint, DiskPoint, busemann_array

__all__ = [
    "SpectralConvention",
    "CONVENTION",
    "PLANCHEREL_KAPPA",
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
# kappa in the inversion density kappa lambda tanh(pi lambda) = |c(lambda)|^-2
# / (2 pi^2) (Helgason, Groups and Geometric Analysis, ch. IV)
PLANCHEREL_KAPPA = 1.0 / (2.0 * math.pi)


class SpectralConvention:
    """No state: ``plancherel_kappa`` is PLANCHEREL_KAPPA; perfbench's set-up reads it."""

    def register_calibrator(self, fn: Callable[[], float]) -> None:
        """Does nothing. perfbench's tracer is its last caller; deleting it waits
        for a benchmark change (ROADMAP item 7)."""

    @property
    def plancherel_kappa(self) -> float:
        return PLANCHEREL_KAPPA


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
        change = float(np.max(np.abs(T_new - T), initial=0.0))
        if change < tol:
            return T_new
        T, h, n = T_new, 0.5 * h, 2 * n
    raise QuadratureUnderResolved(
        f"{what} did not settle below {tol:g} after {max_halvings} halvings "
        f"(last change {change:.2e})"
    )


def spherical(lam: float, p: DiskPoint, M: int) -> complex:
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


# The radial rule: the positive half of the 2n-point Gauss-Legendre rule on
# [-1, 1], scaled to v in [0, sqrt(d)]. The integrand is even in v, so these n
# nodes act as an n-point Gauss rule in v^2. n runs up a power-of-two ladder
# and starts at the smallest rung >= 0.7 |lambda| d + 26: its n/2-node rule
# then has more nodes than the 1e-13 Xi(d) accuracy needs at every (lambda, d)
# measured against mpmath (d <= 80, lambda d <= 1280), except at large d with
# small lambda, where the check below doubles n.
_MIN_NODES = 32
_MAX_NODES = 4096
# Every evaluation compares its n-node and n/2-node sums; a distance whose sums
# differ by more than max(_RULE_TOL, 8 eps lambda d) Xi(d) doubles its n (the
# second term is the round-off of cos(lambda (d - v^2))).
_RULE_TOL = 1e-13
_EPS = float(np.finfo(float).eps)
# Distances times nodes (both rules) per block; bounds the temporaries.
_BLOCK = 4096 * 400


@functools.cache
def _gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Positive nodes (ascending) and weights of the 2n-point Gauss-Legendre rule.

    Newton iteration on the three-term recurrence from the asymptotic
    nodes; the weights sum to 1. Unlike numpy's ``leggauss``, it stays
    accurate to ~1e-16 at thousands of nodes.
    """
    m = 2 * n

    def legendre(x):
        p0, p1 = np.ones_like(x), x
        for j in range(2, m + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        return p1, m * (x * p1 - p0) / (x * x - 1.0)

    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (m + 0.5))
    for _ in range(10):
        p, dp = legendre(x)
        x = x - p / dp
        if np.max(np.abs(p / dp)) < 1e-15:
            break
    dp = legendre(x)[1]
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


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


def _mehler_dirichlet(d: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """lambda-independent part of the n-node radial rule at 1-D distances d > 0.

    Returns (W, phase), each of shape (len(d), n), such that
    phi_lambda(d[j]) ~ sum_k W[j, k] cos(lambda * phase[j, k]): the nodes v
    in [0, sqrt(d)] of the substituted integrand, with t = phase = d - v^2.
    """
    x, w = _gauss_rule(n)
    d = d[:, None]
    vmax = np.sqrt(d)
    v = vmax * x[None, :]
    h = 0.5 * v * v
    # cosh d - cosh(d - v^2) = 2 sinh(d - h) sinh(h); divide by v^2 = 2h
    log_q = _log_sinh(d - h) + _log_sinhc(h)
    W = (2.0 * math.sqrt(2.0) / math.pi) * (vmax * w[None, :]) * np.exp(-0.5 * log_q)
    return W, d - v * v


def _rule_sums(lam: np.ndarray, d: np.ndarray, n: int):
    """The n-node and n/2-node sums at distances d, and Xi(d) from the n-node weights.

    lam has shape (L, len(d)), one lambda per distance in each row, or
    (L, 1), one lambda per row; both sums have shape (L, len(d)).
    """
    sums = np.empty((2, len(lam), len(d)))
    for k, m in enumerate((n, n // 2)):
        W, phase = _mehler_dirichlet(d, m)
        if k == 0:
            xi = np.sum(W, axis=1)
        for i, row in enumerate(lam):
            sums[k, i] = np.sum(W * np.cos(row[:, None] * phase), axis=1)
    return sums[0], sums[1], xi


def _first_rung(key: np.ndarray) -> np.ndarray:
    """The ladder rung each key = |lambda| d starts on: smallest n >= 0.7 key + 26.

    Raises QuadratureUnderResolved where that exceeds _MAX_NODES.
    """
    need = 0.7 * key + 26.0
    if np.any(need > _MAX_NODES):
        j = int(np.argmax(key))
        raise QuadratureUnderResolved(
            f"radial rule at lambda*d = {key[j]:.4g} needs about {need[j]:.3g} nodes, "
            f"more than {_MAX_NODES}")
    return np.exp2(np.ceil(np.log2(np.maximum(need, _MIN_NODES)))).astype(int)


def _radial(lam: np.ndarray, d: np.ndarray) -> np.ndarray:
    """phi_lambda(d) of shape (L, len(d)) for 1-D distances d.

    lam has shape (L, len(d)) or (L, 1) as in ``_rule_sums``. Each distance
    starts on the ladder rung of its key max_rows |lambda| d, which depends
    on that distance and its lambdas only, so blocking cannot change a
    value. Where x = (lambda^2 + 1/4) d^2 < 1e-16 (only d < 2e-8 qualify),
    the series 1 - x/4 replaces the rule: its dropped O(x^2) term is below
    1e-32, d = 0 gives exactly 1 (x = 0 there at any lambda), and the
    rule's squared nodes underflow below d ~ 1e-250. Raises ValueError on
    a negative or non-finite distance or a non-finite lambda, and
    QuadratureUnderResolved when a distance needs over _MAX_NODES nodes.
    """
    if not np.all(np.isfinite(d) & (d >= 0.0)):
        raise ValueError("spherical function distances must be finite and >= 0")
    if not np.all(np.isfinite(lam)):
        raise ValueError("spherical function lambdas must be finite")
    with np.errstate(over="ignore", invalid="ignore"):  # inf past the float range, nan as inf * 0
        x = np.where(d == 0.0, 0.0, (lam * lam + 0.25) * (d * d))
    series = x < 1e-16
    n = _first_rung(np.max(np.abs(lam), axis=0, initial=0.0) * d)
    out = np.empty(x.shape)
    todo = np.flatnonzero(~np.all(series, axis=0))
    while todo.size:
        failed, worst = [], 0.0
        for nodes in np.unique(n[todo]).tolist():
            idx = todo[n[todo] == nodes]
            step = max(1, _BLOCK // (nodes + nodes // 2))
            for lo in range(0, len(idx), step):
                j = idx[lo:lo + step]
                lam_j = lam if lam.shape[1] == 1 else lam[:, j]
                fine, coarse, xi = _rule_sums(lam_j, d[j], nodes)
                change = np.abs(fine - coarse)
                tol = np.maximum(_RULE_TOL, 8.0 * _EPS * np.abs(lam_j) * d[j]) * xi
                bad = ~np.all((change <= tol) | series[:, j], axis=0)
                out[:, j] = fine
                if np.any(bad):
                    failed.append(j[bad])
                    worst = max(worst, float(np.max(change[:, bad] / xi[bad])))
        todo = np.concatenate(failed) if failed else todo[:0]
        n[todo] *= 2
        if np.any(n[todo] > _MAX_NODES):
            raise QuadratureUnderResolved(
                f"radial rule did not settle with {_MAX_NODES} nodes at "
                f"d = {float(np.max(d[todo])):.4g} (last change {worst:.2e} Xi(d))")
    return np.where(series, 1.0 - 0.25 * x, out)


def spherical_radial(lam, d) -> np.ndarray:
    """phi_lambda at geodesic distance d from the center; broadcasts.

    Equals spherical(lam, tanh(d/2) * e^{i alpha}) for any angle alpha.
    Each element gets the node count its own |lambda| d asks for, checked
    against the half-size rule to max(1e-13, 8 eps |lambda| d) Xi(d); the
    cosh difference under the square root is kept in log space, and a
    Taylor series takes over near d = 0. Raises ValueError for a negative
    or non-finite d and QuadratureUnderResolved where the rule would need
    more than 4096 nodes.
    """
    lam_b, d_b = np.broadcast_arrays(np.asarray(lam, float), np.asarray(d, float))
    shape = lam_b.shape
    result = _radial(lam_b.reshape(1, -1), d_b.reshape(-1))[0].reshape(shape)
    return result if shape else result[()]


def spherical_radial_profile(lams: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Matrix phi[i, j] = phi_{lams[i]}(d[j]) for 1-D lams and d.

    Same rule and checks as ``spherical_radial``, but the lambda-independent
    kernel (weights times the regularized cosh-difference factor) is built
    once per distance and reused for every lambda, which is much faster
    than broadcasting when len(lams) is large. Each distance's node count
    follows max |lams| * d.
    """
    lams = np.asarray(lams, float).ravel()
    d = np.asarray(d, float).ravel()
    return _radial(lams[:, None], d)


def xi_function(d) -> np.ndarray:
    """Harish-Chandra Xi function: the spherical function at lambda = 0."""
    return spherical_radial(0.0, d)


_C_FIT_WINDOW = (10.0, 14.0)
_C_FIT_NODES = 81


def harish_chandra_c(lam: float) -> complex:
    """c(lambda) from the large-distance asymptotics of phi_lambda.

    Least-squares fit of phi_lambda(t) e^{t/2} against
    c1 e^{i lam t} + c2 e^{-i lam t} at _C_FIT_NODES distances t spread
    evenly over _C_FIT_WINDOW; returns c1.
    """
    if abs(lam) < 1e-8:
        raise SpectralSingularity("c-function extraction is singular at lambda = 0")
    t = np.linspace(*_C_FIT_WINDOW, _C_FIT_NODES)
    vals = spherical_radial(lam, t) * np.exp(t / 2.0)
    A = np.stack([np.exp(1j * lam * t), np.exp(-1j * lam * t)], axis=1)
    coef, *_ = np.linalg.lstsq(A, vals.astype(complex), rcond=None)
    return complex(coef[0])


def plancherel_density(lam) -> np.ndarray:
    """PLANCHEREL_KAPPA * lam * tanh(pi lam); even in lam, vanishing at lam = 0."""
    lam = np.asarray(lam, float)
    out = PLANCHEREL_KAPPA * lam * np.tanh(np.pi * lam)
    return out if out.shape else out[()]
