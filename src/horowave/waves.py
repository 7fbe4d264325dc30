"""Helgason waves, elementary spherical functions, c-function, Plancherel density.

The spherical function of the disk is evaluated two independent ways: an
average of Helgason waves over the boundary circle (``spherical``), on the
graded Gauss rule (``_graded_rule``) that ``moire._line_rule`` also reads, and a fast
radial path (``spherical_radial``) built on the Mehler-Dirichlet integral

    phi_lambda(d) = (sqrt(2)/pi) * int_0^d cos(lambda t) / sqrt(cosh d - cosh t) dt,

regularized by the substitution t = d - v^2 and evaluated by a Gauss rule
whose node count an error bound proves enough for 1e-13 Xi(d) at each
distance. The two agree within 1e-14 Xi(d) out to d = 30.
"""
from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .errors import HorowaveError, QuadratureUnderResolved, SpectralSingularity
from .geometry import BoundaryPoint, DiskPoint, _polar_bracket, busemann_array, origin_distance

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


# the largest phase round-off |lambda| (max|B| + 4) 2^-53 a Helgason wave may carry
_WAVE_PHASE_TOL = 1e-9


def _wave_phase_error(lam: float, B: np.ndarray) -> float:
    """Phase round-off |lam| (max|B| + 4) 2^-53 of e^{(i lam + rho) B}, B the Busemann brackets.

    The 4 covers the brackets' round-off near B = 0 close to the origin:
    ``geometry._polar_bracket`` errs by a few 2^-53 t at radius t, and is 0 at z = 0.
    Raises HorowaveError when it passes _WAVE_PHASE_TOL or is nan.
    """
    est = abs(lam) * (float(np.max(np.abs(B), initial=0.0)) + 4.0) * 2.0 ** -53
    if not est <= _WAVE_PHASE_TOL:
        raise HorowaveError(f"wave phase round-off |lambda| (max|B| + 4) 2^-53 = {est:.3e} "
                            f"exceeds {_WAVE_PHASE_TOL:g}")
    return est


def _wave_values(lam: float, B: np.ndarray) -> tuple[np.ndarray, float]:
    """(e^{(i lam + rho) B}, ``_wave_phase_error(lam, B)``) at the Busemann brackets B.

    The error is checked first. A modulus past the float range is inf: disk
    points keep B below 38, and the CLI's ``wave`` refuses a grid's inf.
    """
    est = _wave_phase_error(lam, B)
    with np.errstate(over="ignore"):
        return np.exp((1j * lam + RHO) * B), est


def helgason_wave(lam: float, b: BoundaryPoint, p: DiskPoint) -> complex:
    """Non-Euclidean plane wave exp((i lam + rho) * busemann(p, b)) (``helgason_wave_array``)."""
    return complex(helgason_wave_array(lam, b.theta, np.asarray(p.z)))


def helgason_wave_array(lam: float, theta: float, z: np.ndarray) -> np.ndarray:
    """exp((i lam + rho) B) at the points z, B their brackets toward e^{i theta}.

    Raises HorowaveError where the phase round-off passes _WAVE_PHASE_TOL
    (``_wave_values``).
    """
    return _wave_values(lam, busemann_array(z, theta))[0]


def spherical(lam: float, p: DiskPoint, M: int) -> complex:
    """Boundary average of Helgason waves at p: phi_lambda at t = d(0, p) (``_boundary_average``).

    M is the Gauss-Legendre nodes per panel of the graded rule, even and at
    least 2 (ValueError otherwise); 16 already sits at its rounding floor.
    """
    if M < 2 or M % 2:
        raise ValueError(f"spherical needs an even M of at least 2, got {M}")
    return complex(_boundary_average(lam, np.array([origin_distance(p.z)]), M)[0])


# The radial rule: the positive half of the 2n-point Gauss-Legendre rule on
# [-1, 1], scaled to v in [0, sqrt(d)]. The integrand is even in v, so these n
# nodes act as an n-point Gauss rule in v^2, on the power-of-two rung from
# _MIN_NODES at or above ``_node_count``; a count past _MAX_NODES raises.
_MIN_NODES = 32
_MAX_NODES = 4096
_RULE_TOL = 1e-13


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


def _graded_rule(lam: float, lo: float, hi: float, c: float, M: int = 32, unit: float = 1.0,
                 most: float = math.inf) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (ascending) and weights of the graded Gauss rule on [lo, hi] about c in [lo, hi].

    The panel edges are lo, hi and c +- unit u_j inside them. With
    f = min(1, 16/lam), u_j runs in steps of f up to g = n f,
    n = ceil(1 / (2^f - 1)), and then geometrically, g r^k with r = 2^f,
    until unit u_j passes max(hi - c, c - lo) (for lam <= 16 that is 0, 1,
    2, 4, ...). Each panel takes the M-node Gauss-Legendre rule, M even,
    and no panel has width 0. Raises QuadratureUnderResolved, before any
    array is made, where u takes more than ``most`` steps, and where r
    rounds to 1 (lam past about 1e17).

    Why this suffices for f(s) = phi_lambda(d(y(s), x)), |lambda| <= lam, on
    the zero horocycle (``moire._line_rule``, unit 1): in the half-plane with
    b0 at infinity, cosh d = 1 + ((s - c)^2 + (1 - e^beta)^2) / (2 e^beta),
    and phi_lambda is analytic in cosh d off (-inf, -1], so f is analytic but
    at s = c +- i (1 + e^beta), at least 1 from the real axis. A panel at
    distance u >= g from c is at most (r - 1) u wide, so that point lies
    outside its Bernstein ellipse of parameter 3 + sqrt 8 (for r = 2; larger
    for r < 2). The phase lambda d moves by at most lam f <= 16 across a
    panel of the first steps, since |d'(s)| <= 1, and by at most
    2 lam log r = 32 log 2 ~ 22 across a geometric one, since
    |d'(s)| <= 2 / |s - c|: 3.5 wavelengths, which the 32-node rule (exact to
    degree 63) integrates to rounding (L. N. Trefethen, Approximation Theory
    and Approximation Practice, Thm 19.3). A Gaussian taper of width sigma
    sees panels at most S = 7 sigma wide; the rule integrates it alone within
    1e-15 relative at every c in [-S, S]. Against 64-node panels, at lam in
    {0.5, 2, 7.5, 16, 64, 128}, beta in {-3, 0, 0.85, 1.95}, a in {0, 0.7},
    sigma in {4, 96, 1e4} and every taper kind, 24-node panels already sit at
    the same rounding floor (below 1.5e-13 for lam <= 16, 1.1e-12 at 128) and
    16-node panels are 5e-11 off at lam = 16: 32 nodes are 4/3 of the least
    count. For lam <= 16 the line rule takes at most 1152 nodes at
    sigma <= 1e4 and 3648 at sigma = 1e16. ``_boundary_average`` gives the
    same argument on the circle, in units of e^{-T}.
    """
    f = 16.0 / max(16.0, lam)
    r = 2.0 ** f
    if r > 1.0:
        n = math.ceil(1.0 / (r - 1.0))
        k = math.ceil(math.log(max(hi - c, c - lo) / unit / (n * f), r))
        if n + max(k, 0) <= most:
            u = unit * np.concatenate([f * np.arange(n + 1), n * f * r ** np.arange(1.0, k + 1)])
            edges = np.unique(np.clip(np.concatenate([c - u, c + u, [lo, hi]]), lo, hi))
            x, w = _gauss_rule(M // 2)
            x, w = np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])
            mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
            return (mid[:, None] + half[:, None] * x).ravel(), (half[:, None] * w).ravel()
    raise QuadratureUnderResolved(f"graded rule at lambda = {lam:.4g} passes {most:g} panels")


# Nodes per block of the boundary average and of the radial rule, and the most a row
# of the boundary average may take: it admits every lambda t <= 1.6e4 that the radial
# rule does (at most 2.46e5 nodes a row)
_BLOCK_NODES = 1 << 18


def _boundary_average(lam: float, t: np.ndarray, M: int = 32) -> np.ndarray:
    """phi_lambda at the 1-D radii t >= 0 as the boundary average of Helgason waves.

    At z = tanh(t/2) the bracket toward the angle psi from z's own is
    B = -log q, q = e^{-t} + 2 sinh t sin^2(psi/2) (``_polar_bracket``), and
    phi_lambda(t) = (1/2 pi) int e^{(i lambda + rho) B} dpsi over the circle.
    B is even in psi and phi is real, so this is (1/pi) int_0^pi e^{rho B}
    cos(lambda B) dpsi, taken on one set of angles that every row shares:
    ``_graded_rule`` on [0, pi] about 0 in units of e^{-T}, T the largest t,
    at lam = |lambda| min(1, (pi/2) e^T sinh T), with M nodes a panel.

    Why this suffices: in u = e^t psi, q vanishes first at
    u = +-2i e^t asinh(1/sqrt(e^{2t} - 1)), at least 2 from the real axis
    (their next zeros lie a half-turn on, past psi = pi), so every panel
    is as far from a singularity as in the line rule. There, the phase
    moves by at most 16 across a uniform panel and by 32 log 2 across a
    geometric one, from |d'| <= 1 and |d'| <= 2/|s - c|. Here
    |dB/du| = e^{-t} 2 sinh t |sin(psi/2) cos(psi/2)| / q is at most
    sqrt(1 - e^{-2t})/2 (q >= 2 sin(psi/2) sqrt(2 sinh t e^{-t})), at most
    sinh t (q >= e^{-t}), and at most cot(psi/2) e^{-t} <= 2/u, so
    |lambda| |dB/du| <= lam and |lambda| u |dB/du| <= 2 lam for u <= e^t pi,
    at every t <= T: the same bounds. A row at t < T sees the uniform panels
    e^{t - T} times narrower in its u, and the geometric ones at the same
    ratio r, so it is over-resolved near psi = 0, never under-resolved. The
    lam of small T keeps the node count bounded as lambda T is: it grows like
    lambda (T + 1.8) / 11 panels, not like e^T, and lambda T = 1.6e4 takes at
    most 7688 panels (at T = 0.41). Against the conical function, at lambda
    in {0, 0.5, 2, 7.5, 50, 200} and t in {0.5, 2, 5, 10, 20, 30} in one
    call, it errs within 2e-15 Xi(t), and 16-node panels within 4.5e-15.
    Rows are taken in blocks of at most _BLOCK_NODES nodes.
    Raises ValueError on a non-finite lambda, and QuadratureUnderResolved,
    before any node is made, where a row would take more than _BLOCK_NODES
    nodes. Callers keep t below 38, where e^T pi is finite.
    """
    if not math.isfinite(lam):
        raise ValueError("spherical function lambdas must be finite")
    T = float(np.max(t, initial=0.0))
    psi, w = _graded_rule(abs(lam) * min(1.0, 0.5 * math.pi * math.exp(T) * math.sinh(T)),
                          0.0, math.pi, 0.0, M, math.exp(-T), _BLOCK_NODES // M)
    out = np.empty(len(t))
    step = _BLOCK_NODES // len(psi)
    for lo in range(0, len(t), step):
        B = _polar_bracket(t[lo:lo + step, None], psi)
        out[lo:lo + step] = np.sum(w * np.exp(RHO * B) * np.cos(lam * B), axis=1) / np.pi
    return out


def _log1m_exp2(x: np.ndarray) -> np.ndarray:
    """log(1 - e^{-2x}) for x > 0 without overflow."""
    return np.log(-np.expm1(-2.0 * np.minimum(x, 700.0)))


def _log_sinh(x: np.ndarray) -> np.ndarray:
    """log(sinh x) for x > 0 without overflow."""
    x = np.asarray(x, float)
    return x + _log1m_exp2(x) - math.log(2.0)


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


def _node_count(key: np.ndarray, d: np.ndarray) -> np.ndarray:
    """The n, not rounded, for which the Gauss error bound proves the 2n-point
    rule within _RULE_TOL Xi(d); key = |lambda| d >= 0 (inf gives inf), d > 0.

    In x = v/sqrt(d) the rule integrates over [-1, 1] f = (sqrt(2)/pi) sqrt(d)
    cos(lambda d (1 - w)) q^(-1/2), w = x^2, s = dw/2 = sigma + i tau and
    q = sinh(d - s) sinh(s)/s. If f is analytic with |f| <= M in the Bernstein
    ellipse E_r, r = e^rho, it errs by at most (64/15) M r^(2-4n)/(r^2 - 1) (L. N.
    Trefethen, Approximation Theory and Approximation Practice, Thm 19.3).
    On E_r, |Im w| <= sinh(2 rho)/2, so |cos| <= e^(key sinh(2 rho)/2), and
    Re(d - s) >= g = d (1 - sinh^2 rho)/2 > 0 for rho < asinh 1. Where
    sigma <= 1/2, |tau| <= tau0 = (d/2) tanh(2 rho) cosh(rho) sqrt(sinh^2 rho
    + 1/d) < pi, and |sinh s|^2 = sinh^2 sigma + sin^2 tau >= |s|^2 sin^2(tau0)/tau0^2
    gives |q| >= sinh(max(d - 1/2, g)) sin(tau0)/tau0; elsewhere
    |q| >= sinh(d - sigma) sinh(sigma)/|s| >= 2 sinh(d - h) sinh(h)/(d cosh^2 rho),
    h = min(1/2, g), so q has no zero in E_r. With Xi(d) >= d/(pi sinh(d/2)),
    n = (log(64/15/_RULE_TOL) - log(1 - r^-2) + log(M/Xi(d)))/(4 rho), their
    e^(d/2) cancelled by hand. rho = min(0.85, 1.6/sqrt(d), 3 key^(-1/3)) keeps
    tau0 <= 3.02 (the zeros s = +-i pi bound rho by about sqrt(pi/d)) and sits
    near the least n, at sinh(2 rho) = (6L/key)^(1/3), L ~ 36: n grows like
    key/4 + O(key^(1/3)) and passes 4096 at key ~ 1.6e4 (README: measured counts).
    """
    rho = np.minimum(np.minimum(0.85, 1.6 / np.sqrt(d)), 3.0 / np.cbrt(np.clip(key, 1e-300, 1e300)))
    ch2, sh2 = np.cosh(rho) ** 2, np.sinh(rho) ** 2
    tau0 = 0.5 * np.tanh(2.0 * rho) * np.sqrt(ch2 * d) * np.sqrt(d * sh2 + 1.0)
    g = 0.5 * d * (1.0 - sh2)
    h = np.minimum(0.5, g)
    # log|q| - d from each bound, with sinh x = e^x (1 - e^(-2x))/2
    tip = (_log1m_exp2(np.maximum(d - 0.5, g)) - np.minimum(0.5, d - g) - math.log(2.0)
           + np.log(np.sinc(tau0 / np.pi)))
    body = _log1m_exp2(d - h) - h + _log_sinh(h) - np.log(d * ch2)
    # log(M/Xi(d)) + log(2)/2 = key sinh(2 rho)/2 + log(1 - e^-d) - (log d + log|q| - d)/2
    log_m = (0.5 * key * np.sinh(2.0 * rho) + _log1m_exp2(0.5 * d)
             - 0.5 * (np.log(d) + np.minimum(tip, body)))
    return (math.log(64.0 / 15.0 / math.sqrt(2.0) / _RULE_TOL)
            - np.log(-np.expm1(-2.0 * rho)) + log_m) / (4.0 * rho)


def _radial(lam: np.ndarray, d: np.ndarray) -> np.ndarray:
    """phi_lambda(d) of shape (L, len(d)) for 1-D distances d.

    lam has shape (L, len(d)), one lambda per distance in each row, or (L, 1),
    one lambda per row. Each distance is one Gauss sum on the rung of its key
    max_rows |lambda| d, which depends on that distance and its lambdas only,
    so blocking cannot change a value. Where x = (lambda^2 + 1/4) d^2 < 1e-16
    (only d < 2e-8 qualify), the series 1 - x/4 replaces the rule: its
    dropped O(x^2) term is below 1e-32, d = 0 gives exactly 1 (x = 0 there
    at any lambda), and the rule's squared nodes underflow below d ~ 1e-250.
    Raises ValueError on a negative or non-finite distance or a non-finite
    lambda, and QuadratureUnderResolved where the count passes _MAX_NODES or
    at a subnormal d, whose d - v^2 keeps too few digits (|lambda| > 4e299).
    """
    if not np.all(np.isfinite(d) & (d >= 0.0)):
        raise ValueError("spherical function distances must be finite and >= 0")
    if not np.all(np.isfinite(lam)):
        raise ValueError("spherical function lambdas must be finite")
    with np.errstate(over="ignore", invalid="ignore"):  # inf past the float range, nan as inf * 0
        x = np.where(d == 0.0, 0.0, (lam * lam + 0.25) * (d * d))
    series = x < 1e-16
    todo = np.flatnonzero(~np.all(series, axis=0))
    key, dj = (np.max(np.abs(lam), axis=0, initial=0.0) * d)[todo], d[todo]
    count = np.where(dj >= np.finfo(float).tiny, _node_count(key, dj), np.inf)
    if not np.all(count <= _MAX_NODES):
        j = int(np.argmax(count))
        raise QuadratureUnderResolved(f"radial rule at lambda*d = {key[j]:.4g}, d = {dj[j]:.4g} "
                                      f"needs {count[j]:.4g} nodes, more than {_MAX_NODES}")
    n = np.exp2(np.ceil(np.log2(np.maximum(count, _MIN_NODES)))).astype(int)
    out = np.empty(x.shape)
    for nodes in np.unique(n).tolist():
        idx = todo[n == nodes]
        step = max(1, _BLOCK_NODES // nodes)
        for lo in range(0, len(idx), step):
            j = idx[lo:lo + step]
            W, phase = _mehler_dirichlet(d[j], nodes)
            for i, row in enumerate(lam if lam.shape[1] == 1 else lam[:, j]):
                out[i, j] = np.sum(W * np.cos(row[:, None] * phase), axis=1)
    return np.where(series, 1.0 - 0.25 * x, out)


def spherical_radial(lam, d) -> np.ndarray:
    """phi_lambda at geodesic distance d from the center; broadcasts.

    Equals spherical(lam, tanh(d/2) * e^{i alpha}) for any angle alpha.
    Each element gets the node count an error bound proves enough at its own
    |lambda| d (``_node_count``), accurate to max(1e-13, 8 eps |lambda| d) Xi(d); the
    cosh difference under the square root is kept in log space, and a
    Taylor series takes over near d = 0. Raises ValueError for a negative
    or non-finite d and QuadratureUnderResolved where the rule would need
    more than 4096 nodes (|lambda| d above about 1.6e4).
    """
    lam_b, d_b = np.broadcast_arrays(np.asarray(lam, float), np.asarray(d, float))
    shape = lam_b.shape
    result = _radial(lam_b.reshape(1, -1), d_b.reshape(-1))[0].reshape(shape)
    return result if shape else result[()]


def spherical_radial_profile(lams: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Matrix phi[i, j] = phi_{lams[i]}(d[j]) for 1-D lams and d.

    Same rule and bound as ``spherical_radial``, but the lambda-independent
    kernel (weights times the regularized cosh-difference factor) is built
    once per distance and reused for every lambda, which is much faster
    than broadcasting when len(lams) is large. Each distance's node count
    is the one its largest |lambda| d needs.
    """
    lams = np.asarray(lams, float).ravel()
    d = np.asarray(d, float).ravel()
    return _radial(lams[:, None], d)


def xi_function(d) -> np.ndarray:
    """Harish-Chandra Xi function: the spherical function at lambda = 0."""
    return spherical_radial(0.0, d)


# B_2k / (2k (2k - 1)), k = 1..8: the terms of Stirling's series (DLMF 5.11.1)
_STIRLING = np.array([1/12, -1/360, 1/1260, -1/1680, 1/1188, -691/360360, 1/156, -3617/122400])


def _log_gamma(z: np.ndarray) -> np.ndarray:
    """log Gamma(z) for Re z >= 0, z != 0, up to a multiple of 2 pi i; elementwise.

    Stirling's series at w = z + 12, whose first dropped term is below 1e-19,
    then Gamma(z + 1) = z Gamma(z) (DLMF 5.5.1) back down to z. The absolute
    error is a few 2^-53 |log Gamma(z)|.
    """
    w = z + 12.0
    series = np.polyval(_STIRLING[::-1], w ** -2) / w + 0.5 * math.log(2.0 * math.pi)
    return (w - 0.5) * np.log(w) - w + series - np.log(z[..., None] + np.arange(12.0)).sum(-1)


def harish_chandra_c(lam) -> complex | np.ndarray:
    """c(lambda) = Gamma(i lambda) / (sqrt(pi) Gamma(1/2 + i lambda)); broadcasts.

    The closed form for the hyperbolic plane (Helgason, Groups and Geometric
    Analysis, ch. IV), from ``_log_gamma``; a scalar lambda gives a complex.
    Raises ValueError for a non-finite lambda, SpectralSingularity where any
    |lambda| < 1e-8 (the pole at 0), and HorowaveError where the phase
    round-off |lambda| (log|lambda| + 4) 2^-53 passes _WAVE_PHASE_TOL
    (``_wave_phase_error``), past about |lambda| = 5e5.
    """
    lam = np.asarray(lam, float)
    if not np.all(np.isfinite(lam)):
        raise ValueError("c-function lambdas must be finite")
    if np.any(np.abs(lam) < 1e-8):
        raise SpectralSingularity("c-function is singular at lambda = 0")
    _wave_phase_error(np.max(np.abs(lam)), np.log(np.max(np.abs(lam))))
    z = 1j * lam.reshape(-1)  # 1-d: numpy's scalar complex product rounds otherwise
    out = np.exp(_log_gamma(z) - _log_gamma(0.5 + z)).reshape(lam.shape) / math.sqrt(math.pi)
    return out if out.shape else complex(out)


def plancherel_density(lam) -> np.ndarray:
    """PLANCHEREL_KAPPA * lam * tanh(pi lam); even in lam, vanishing at lam = 0."""
    lam = np.asarray(lam, float)
    out = PLANCHEREL_KAPPA * lam * np.tanh(np.pi * lam)
    return out if out.shape else out[()]
