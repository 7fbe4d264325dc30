"""Horocycle superpositions of spherical functions and their wave limits.

The central object is the tapered superposition

    I(lambda) = kappa_H * density(lambda) * int theta(s) phi_lambda(d(y(s), x)) ds

over the zero horocycle y(s) of a boundary direction b0. As the taper
theta widens, I(lambda) does not converge pointwise -- the residual
oscillates with a phase like sigma^{2 i lambda} -- but its average against
any smooth compactly supported lambda-window converges to the same window
average of the standing wave e^{rho beta} cos(lambda beta), beta = <x, b0>:
I(lambda) is even in lambda, and its limit is the even part
(e_{lambda,b0} + e_{-lambda,b0})(x) / 2 of the Helgason wave. That equals
the Helgason wave e_{lambda,b0}(x) only at beta = 0, on the zero
horocycle, where every weak check runs. ``moire_integral`` is the
pointwise tapered estimator (oscillation band reported, not asserted);
``moire_weak`` is the lambda-windowed estimator that carries the
acceptance-grade claim.

The superposition includes the Plancherel density as a lambda weight; this
is what makes a single constant kappa_H work across the whole spectral
range (the bare tapered horocycle integral of phi_lambda carries an extra
1/(lambda tanh(pi lambda)) factor in its weak limit). With kappa = 1/(2 pi)
the Abel transform of phi_lambda gives kappa_H = pi exactly (Helgason,
Groups and Geometric Analysis, ch. IV); ``validate`` checks a windowed
estimate of it against pi.

Every sum of phi along the zero horocycle, a line integral on ``_line_rule``
or a center sum, is ``_phi_sums``. Against mpmath
(``tests/data/moire_refs.json``) the line integrals are within 2.1e-14 on the
compact tapers and 2.3e-12 on the Gaussian, whose cut at 7 sigma is that error.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureUnderResolved
from .geometry import (
    BoundaryPoint,
    DiskPoint,
    _polar_half_plane,
    busemann,
    distance_array,
    horocycle_coordinates,
    horocycle_points_array,
)
from .tapers import TaperSpec
from .transform import GridSpec, SampledField, _angle_offsets, _lambda_weights, _nested_levels
from .waves import (
    RHO,
    _graded_rule,
    helgason_wave,
    plancherel_density,
    spherical_radial,
    spherical_radial_profile,
)

__all__ = [
    "HOROCYCLE_KAPPA",
    "LambdaWindow",
    "MoireReport",
    "DEFAULT_TAPER",
    "kappa_h",
    "moire_integral",
    "moire_weak",
    "convergence_study",
    "moire_sum_discrete",
    "phase_correlation",
    "reduction_paths",
]

DEFAULT_TAPER = TaperSpec("gaussian", 12.0)
_REDUCTION_TAPER = TaperSpec("gaussian", 6.0)  # both paths of reduction_paths
_WINDOW_WIDTH = 0.45  # of every LambdaWindow's Gaussian


@dataclass(frozen=True)
class LambdaWindow:
    """Smooth weight on the spectral axis: truncated Gaussian bump.

    Gaussian of the given center and width _WINDOW_WIDTH multiplied by a
    raised-cosine cutoff vanishing at lo and hi, so the window is compactly
    supported in (lo, hi) with fast-decaying Fourier tails.
    """

    center: float
    lo: float = 0.5
    hi: float = 4.0

    def __post_init__(self):
        if not (self.lo < self.center < self.hi):
            raise ValueError("window center must lie inside (lo, hi)")

    def __call__(self, lam: np.ndarray) -> np.ndarray:
        lam = np.asarray(lam, float)
        bump = np.exp(-0.5 * ((lam - self.center) / _WINDOW_WIDTH) ** 2)
        u = (lam - self.lo) / (self.hi - self.lo)
        cut = np.where((u > 0) & (u < 1), np.sin(np.pi * np.clip(u, 0, 1)) ** 2, 0.0)
        return bump * cut


@dataclass
class MoireReport:
    """One tapered-superposition run against its Helgason-wave target.

    ``oscillation_amplitude`` and ``divergent`` describe the whole taper
    sweep the run belongs to (``convergence_study``).
    """

    lam: float
    b0: BoundaryPoint
    x: DiskPoint
    approx: complex
    target: complex
    taper: TaperSpec
    oscillation_amplitude: float
    divergent: bool

    @property
    def abs_error(self) -> float:
        return abs(self.approx - self.target)


# --- the horocycle measure constant ---------------------------------------

# kappa_H between arc length on a horocycle and the Haar measure of N
HOROCYCLE_KAPPA = math.pi


def kappa_h() -> float:
    """kappa_H: exactly pi (``HOROCYCLE_KAPPA``). Kept only for perfbench, which calls it."""
    return HOROCYCLE_KAPPA


# --- estimators -----------------------------------------------------------

def moire_integral(lam: float, b0: BoundaryPoint, x: DiskPoint) -> MoireReport:
    """Pointwise tapered superposition of spherical functions along ``xi(b0, 0)``.

    A single line integral of phi_lambda(d(y, x)), tapered by DEFAULT_TAPER:
    the one-width ``convergence_study``. Its target, the Helgason wave at x,
    is met only at beta = 0 (see the module doc), and there only up to the
    taper's oscillation band.
    """
    return convergence_study(lam, b0, x, [DEFAULT_TAPER.width], DEFAULT_TAPER.kind)[0]


def _sinh_half_distances(x):
    """s -> sinh(d/2) = |y(s) - x| / (2 sqrt(Im x)) on the zero horocycle y(s) = s + i."""
    scale = 0.5 / np.sqrt(x.imag)
    return lambda s: np.abs(s + 1j - x) * scale


def _phi_sums(lams, weights, x: np.ndarray, rules) -> list[np.ndarray]:
    """sum_j w_j sum_i weights[i] phi_{lams[i]}(d(y(s_j), x)) at every point x, per rule (s, w).

    x is a 1-D array of points e^beta (a + i) and a rule ascending nodes s and
    weights w, as in ``_sinh_half_distances``: d grows with |s - e^beta a|, so
    D, the largest distance at the rules' two end nodes, bounds all. One table
    on [0, D] of the weighted sum (``_phi_table``) serves every node; a pass
    takes ceil(N/P) of a rule's N nodes at the P points, in node order. A D
    past the float range is refused before any table.
    """
    sinh_half = _sinh_half_distances(x)  # at nodes s (k, 1)
    ends = [s[::max(len(s) - 1, 1), None] for s, _ in rules]  # both end nodes, a single one once
    with np.errstate(over="ignore"):  # sinh(D/2) is inf past D = 1420
        dmax = 2.0 * math.asinh(max(float(np.max(sinh_half(e))) for e in ends))
    if not dmax < math.inf:
        raise QuadratureUnderResolved(
            "phi along the zero horocycle: the distance from a point to the farthest node "
            "passes the float range (sinh(d/2) overflows)")
    coef = _phi_table(lams, weights, dmax)

    def pass_sum(s, w):
        h = sinh_half(s)
        np.arcsinh(h, out=h)  # d/2
        wc = np.cosh(h)
        np.divide(w, wc, out=wc)  # w / cosh(d/2)
        h /= 0.25 * dmax  # 4.0 / dmax would overflow at subnormal D
        h *= h
        h -= 2.0  # 2u, u = 2 (d/D)^2 - 1
        # the table at u by Clenshaw's recurrence, in place: chebval allocates at every term
        b1, b2, b = np.zeros_like(h), np.zeros_like(h), np.empty_like(h)
        for c in coef[:0:-1]:
            np.multiply(h, b1, out=b)
            b -= b2
            b += c
            b1, b2, b = b, b1, b2
        h *= 0.5 * b1
        h -= b2
        h += coef[0]
        return np.einsum("ij,ij->j", h, wc)

    return [sum(pass_sum(s[i:i + k, None], w[i:i + k, None]) for i in range(0, len(s), k))
            for s, w in rules for k in [-(-len(s) // x.size)]]


def _line_rule(taper: TaperSpec, c: float, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes s and weights, taper values included, of ``waves._graded_rule`` on [-S, S].

    S is the taper's ``support_radius``, c the arc length of the point of the
    horocycle nearest x, clipped into [-S, S], and lam the largest |lambda|;
    the panels take 32 nodes. A compact taper's edges +-S are panel edges, so
    every panel's integrand is analytic, with no branch on the taper's kind.
    """
    S = taper.support_radius
    s, w = _graded_rule(lam, -S, S, min(max(c, -S), S))
    return s, taper(s) * w


def _line_integrals(lams, weights, beta: float, a: float,
                    tapers: list[TaperSpec]) -> list[complex]:
    """Tapered integrals of sum_i weights[i] phi_{lams[i]}(d(y(s), x)) along ``xi(b0, 0)``.

    x is given by its horocycle coordinates (beta, a) toward b0; each taper
    takes its rule ``_line_rule`` at c = e^beta a. The taper is centered at
    s = 0, not under x: ``moire_weak`` runs at different points of the same
    horocycle then probe genuinely different tapered quadratures that must
    all converge to the same windowed target.
    """
    x = math.exp(beta) * (a + 1j)
    rules = [_line_rule(t, x.real, float(np.max(np.abs(lams)))) for t in tapers]
    return [complex(v[0]) for v in _phi_sums(lams, weights, np.array([x]), rules)]


def moire_weak(window: LambdaWindow, b0: BoundaryPoint, x: DiskPoint,
               taper: TaperSpec = DEFAULT_TAPER) -> tuple[complex, complex]:
    """Lambda-windowed estimator: (window average of approx, of the Helgason wave).

    The smoothing in lambda kills the taper's non-decaying oscillatory
    residual, so as the taper widens lhs approaches the window average of
    the standing wave e^{rho beta} cos(lambda beta), beta = <x, b0> (see the
    module doc). That is rhs only at beta = 0. With LambdaWindow(2.2) and
    a Gaussian taper of width 12, lhs is real, and at x = 0.4
    (beta = 0.847) |lhs - rhs| / |rhs| is 0.954 while its error against the
    windowed standing wave is 2.2e-2. Both averages take the trapezoid
    weights of ``transform._lambda_weights``.
    """
    lams = np.linspace(window.lo, window.hi, 81)
    chi = window(lams)
    if not np.any(chi):
        return 0j, 0j
    wl = _lambda_weights(lams)
    beta, a = horocycle_coordinates(x, b0)
    lhs = HOROCYCLE_KAPPA * _line_integrals(lams, wl * chi * plancherel_density(lams),
                                            beta, a, [taper])[0]
    rhs = wl @ (chi * np.exp((1j * lams + RHO) * beta))
    return complex(lhs), complex(rhs)


def convergence_study(lam: float, b0: BoundaryPoint, x: DiskPoint,
                      sigmas, kind: str) -> list[MoireReport]:
    """Taper-width sweep at fixed lambda; documents the oscillation band.

    One report per width, the superposition of ``moire_integral`` with a
    taper of that kind and width, all from one phi table. The taper is
    centered under x (arc position a = 0), so the study depends on x only
    through beta = <x, b0>, like the wave target: it is N-invariant by
    construction. Every report carries the sweep's ``oscillation_amplitude``,
    the diameter of the approx values over the largest three widths, and
    ``divergent``, which flags any approx past ten times the target modulus.
    """
    sigmas = [float(s) for s in sigmas]
    if not sigmas or any(b <= a for a, b in zip(sigmas, sigmas[1:])):
        raise ValueError(f"sigmas must be one or more increasing widths, got {sigmas}")
    tapers = [TaperSpec(kind, s) for s in sigmas]
    lines = _line_integrals([lam], [1.0], busemann(x, b0), 0.0, tapers)
    scale = HOROCYCLE_KAPPA * plancherel_density(lam)
    approx = [complex(scale * line) for line in lines]
    target = helgason_wave(lam, b0, x)
    tail = approx[-3:]
    osc = max(abs(a - b) for a in tail for b in tail)
    divergent = any(abs(a) > 10.0 * abs(target) for a in approx)
    return [MoireReport(lam, b0, x, a, target, t, osc, divergent)
            for a, t in zip(approx, tapers)]


def moire_sum_discrete(lam: float, b0: BoundaryPoint, n: int, spacing: float,
                       grid: GridSpec) -> SampledField:
    """Average of n spherical functions centered along ``xi(b0, 0)``.

    Centers sit at arc lengths spacing * (i - (n - 1)/2) (``_center_row``),
    symmetric about the geodesic axis toward b0: the finite figure-style
    sum, ``_phi_sums`` at weights 1/n on ``geometry._polar_half_plane``.
    End centers past the float range are -inf and inf, and ``_phi_sums`` refuses them.
    """
    if n < 1:
        raise ValueError("moire_sum_discrete requires n >= 1")
    if spacing <= 0:
        raise ValueError("moire_sum_discrete requires spacing > 0")
    psi = _angle_offsets(grid.n_theta, b0.theta, grid.n_theta)
    x = _polar_half_plane(grid.radii_t[:, None], psi)
    values = _phi_sums([lam], [1.0], x.ravel(), [(_center_row(n, spacing), np.full(n, 1 / n))])
    return SampledField(grid, values[0].reshape(x.shape).astype(complex))


def _center_row(n: int, spacing: float) -> np.ndarray:
    """The n centers spacing * (i - (n - 1)/2), i = 0, ..., n - 1: ascending, symmetric about 0.

    Past the float range the end centers are -inf and inf; every caller refuses them.
    """
    with np.errstate(over="ignore"):
        return spacing * (np.arange(n) - (n - 1) / 2.0)


_PHI_TABLE_MAX_NODES = 4096  # the largest degree in d/dmax, twice that in u
_PHI_TABLE_TAIL = 1e-14


def _phi_table(lams, weights, dmax: float) -> np.ndarray:
    """Chebyshev coefficients of u -> F(d) = cosh(d/2) sum_i weights[i] phi_{lams[i]}(d).

    u = 2 (d/dmax)^2 - 1 on [-1, 1]: one table of the one function the caller sums.
    F does not decay with d, so the table's error, divided back by cosh(d/2), stays
    relative to phi's envelope e^{-d/2}; it is even in d, so a table in u has half
    the terms of one in d/dmax. Its values at the Chebyshev points u = cos(pi q)
    of ``_nested_levels`` give the coefficients by a DCT-I; n doubles from 16
    until the top quarter of them is below tol = _PHI_TABLE_TAIL min(1, sum |w_i|),
    and the trailing terms whose |c_k| sum to at most tol are dropped, which
    moves no value by more than tol (J. L. Aurentz and L. N. Trefethen, ACM
    TOMS 43, 2017). Tables of each lambda to _PHI_TABLE_TAIL would bound the sum
    by _PHI_TABLE_TAIL sum |w_i|; tol is never looser than that, nor than one
    table of weight 1.
    """
    weights = np.asarray(weights, float)
    tol = _PHI_TABLE_TAIL * min(1.0, float(np.sum(np.abs(weights))))

    def phi(q):
        d = dmax * np.cos(0.5 * np.pi * q)
        return weights @ spherical_radial_profile(lams, d) * np.cosh(0.5 * d)

    tail = math.inf
    for q, values in _nested_levels(phi, 16, _PHI_TABLE_MAX_NODES // 2):
        n = len(q) - 1
        coef = np.fft.rfft(np.concatenate([values, values[-2:0:-1]])).real / n
        coef[[0, -1]] *= 0.5
        tail = float(np.max(np.abs(coef[-n // 4:])))
        if tail < tol:
            return coef[:np.count_nonzero(np.cumsum(np.abs(coef[::-1]))[::-1] > tol)]
    raise QuadratureUnderResolved(
        f"Chebyshev table of phi_lambda, |lambda| <= {np.max(np.abs(lams)):g}, on "
        f"[0, {dmax:g}] did not settle below {tol:g} at degree "
        f"{_PHI_TABLE_MAX_NODES} in d/{dmax:g} (last tail {tail:.2e})")


def phase_correlation(field: SampledField, lam: float, b0: BoundaryPoint) -> float:
    """Normalized L2 correlation with the wave phase pattern near the origin.

    Both the field and the reference e^{i lam busemann(z, b0)} are centered
    (weighted means removed) over the grid's radial rows t <= 1.5 before the
    correlation is taken; a constant one (a zero field, or lam = 0) has no norm, and is refused.
    """
    rows = field.grid.radii_t <= 1.5
    w = field.weights[rows]
    f = field.values[rows]
    g = np.exp(1j * lam * field.grid.busemann(b0.theta)[rows])
    for name, p in (("field", f), ("reference wave", g)):
        if np.all(p == p.flat[0]):
            raise ValueError(f"phase_correlation: a constant {name} at t <= 1.5 centers to 0")
    f = f - np.sum(w * f) / np.sum(w)
    g = g - np.sum(w * g) / np.sum(w)
    return abs(np.sum(w * np.conj(g) * f)) / math.sqrt(
        float(np.sum(w * np.abs(f) ** 2) * np.sum(w * np.abs(g) ** 2)))


def reduction_paths(lam: float, b0: BoundaryPoint, x: DiskPoint) -> tuple[complex, complex]:
    """Both sides of the change-of-variables reduction, each on the graded line rule.

    Path A integrates phi_lambda(d(., x)) over the zero horocycle with the
    taper _REDUCTION_TAPER (``_line_integrals``). Path B moves the integral
    to the horocycle through x, (beta, u0) the horocycle coordinates of x:

        A = e^beta * int theta(e^beta (t + u0)) phi_lambda(d(0, y_beta(t))) dt
          = int theta(s) phi_lambda(d(0, y_beta(s e^{-beta} - u0))) ds,

    on the nodes of ``_line_rule`` at c = e^beta u0, with the radial kernel
    at every node and distances from disk points, so that the two paths
    reach phi and d independently.
    """
    beta, u0 = horocycle_coordinates(x, b0)
    a = _line_integrals([lam], [1.0], beta, u0, [_REDUCTION_TAPER])[0]
    s, w = _line_rule(_REDUCTION_TAPER, math.exp(beta) * u0, abs(lam))
    y = horocycle_points_array(b0.theta, beta, s * math.exp(-beta) - u0)
    b = w @ spherical_radial(lam, distance_array(y, np.asarray(0j)))
    return complex(a), complex(b)
