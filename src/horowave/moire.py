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
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import chebval

from .errors import QuadratureUnderResolved
from .geometry import (
    BoundaryPoint,
    DiskPoint,
    act,
    busemann,
    distance_array,
    horocycle_coordinates,
    horocycle_points_array,
    nilpotent_flow,
)
from .tapers import TaperSpec
from .transform import GridSpec, SampledField, _chebyshev_levels, _tapered_line
from .waves import (
    RHO,
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

def _center_under(b0: BoundaryPoint, x: DiskPoint) -> DiskPoint:
    """Slide x along its horocycle onto the geodesic axis toward b0.

    The tapered estimators center the taper at the foot of x on the zero
    horocycle; since the nilpotent flow is an isometry fixing b0 and the
    wave target depends only on the Busemann level, this makes every
    estimator exactly N-invariant instead of invariant only up to a taper
    shift.
    """
    beta, u0 = horocycle_coordinates(x, b0)
    shift = math.exp(beta) * u0
    if shift == 0.0:
        return x
    return act(nilpotent_flow(b0, -shift), x)


def moire_integral(lam: float, b0: BoundaryPoint, x: DiskPoint) -> MoireReport:
    """Pointwise tapered superposition of spherical functions along ``xi(b0, 0)``.

    The spherical function centered at y evaluated at x equals
    phi_lambda(d(y, x)), so the superposition is a single line integral,
    tapered by DEFAULT_TAPER: the one-width ``convergence_study``. The
    target is the Helgason wave at x; agreement is expected only at
    beta = 0 (see the module doc), and there only up to the taper's
    oscillation band (see ``convergence_study``).
    """
    return convergence_study(lam, b0, x, [DEFAULT_TAPER.width], DEFAULT_TAPER.kind)[0]


def _horocycle_distances(b0: BoundaryPoint, x: DiskPoint, s: np.ndarray) -> np.ndarray:
    """d(y(s), x) at arc lengths s of the zero horocycle ``xi(b0, 0)``."""
    return distance_array(horocycle_points_array(b0.theta, 0.0, s), np.asarray(x.z))


def _line_integrals(lams, weights, b0: BoundaryPoint, x: DiskPoint,
                    tapers: list[TaperSpec]) -> list[complex]:
    """Tapered integrals of sum_i weights[i] phi_{lams[i]}(d(y(s), x)) along ``xi(b0, 0)``.

    One integral per taper, of the one integrand: the weights are linear,
    so they are applied to the Chebyshev table of phi (``_phi_table``)
    before any sum, and each level's new nodes of the tapered line rule
    (``transform._tapered_line``) cost one ``chebval`` of one column. The
    table covers [0, D], D the larger of the endpoint distances d(y(+-S), x)
    at the widest taper's support [-S, S]: in half-plane coordinates with b0
    at infinity and (beta, a) the horocycle coordinates of x,
    cosh d(y(s), x) = 1 + ((s - a)^2 + (1 - e^beta)^2) / (2 e^beta) grows
    with |s - a|, so D bounds the distance at every node of every taper.
    Raises QuadratureUnderResolved where y(+-S) rounds onto the boundary
    circle, so that D is not finite.

    The taper is centered at s = 0, not under x: ``moire_weak`` runs at
    different points of the same horocycle then probe genuinely different
    tapered quadratures that must all converge to the same windowed target.
    """
    S = max(t.support_radius for t in tapers)
    dmax = float(np.max(_horocycle_distances(b0, x, np.array([-S, S]))))
    if not math.isfinite(dmax):
        raise QuadratureUnderResolved(
            f"horocycle points at arc length +-{S:.4g} round onto the boundary circle")
    coef = _phi_table(lams, dmax) @ np.asarray(weights, float)

    def values(s: np.ndarray) -> np.ndarray:
        u = _horocycle_distances(b0, x, s) / dmax
        return chebval(2.0 * u * u - 1.0, coef)

    return [complex(_tapered_line(values, t, "horocycle line integrals")) for t in tapers]


def moire_weak(window: LambdaWindow, b0: BoundaryPoint, x: DiskPoint,
               taper: TaperSpec = DEFAULT_TAPER) -> tuple[complex, complex]:
    """Lambda-windowed estimator: (window average of approx, of the Helgason wave).

    The smoothing in lambda kills the taper's non-decaying oscillatory
    residual, so as the taper widens lhs approaches the window average of
    the standing wave e^{rho beta} cos(lambda beta), beta = <x, b0> (see the
    module doc). That is rhs only at beta = 0. With LambdaWindow(2.2) and
    a Gaussian taper of width 12, lhs is real, and at x = 0.4
    (beta = 0.847) |lhs - rhs| / |rhs| is 0.954 while its error against the
    windowed standing wave is 2.2e-2.
    """
    lams, step = np.linspace(window.lo, window.hi, 81, retstep=True)
    chi = window(lams)
    if not np.any(chi):
        return 0j, 0j
    weights = step * chi * plancherel_density(lams)
    weights[[0, -1]] *= 0.5  # the trapezoid's end weights
    lhs = HOROCYCLE_KAPPA * _line_integrals(lams, weights, b0, x, [taper])[0]
    beta = busemann(x, b0)
    rhs = np.trapezoid(chi * np.exp((1j * lams + RHO) * beta), lams)
    return complex(lhs), complex(rhs)


def convergence_study(lam: float, b0: BoundaryPoint, x: DiskPoint,
                      sigmas, kind: str) -> list[MoireReport]:
    """Taper-width sweep at fixed lambda; documents the oscillation band.

    One report per width, the superposition of ``moire_integral`` with a
    taper of that kind and width; every width reads one phi table
    (``_line_integrals``). Every report carries the sweep's
    ``oscillation_amplitude``, the diameter of the approx values over the
    largest three widths, and ``divergent``, which flags any approx
    exceeding ten times the target modulus.
    """
    sigmas = [float(s) for s in sigmas]
    if any(b <= a for a, b in zip(sigmas, sigmas[1:])):
        raise ValueError("sigmas must be strictly increasing")
    tapers = [TaperSpec(kind, s) for s in sigmas]
    lines = _line_integrals([lam], [1.0], b0, _center_under(b0, x), tapers)
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

    Centers sit at arc lengths spacing * (i - (n+1)/2), symmetric about
    the geodesic axis toward b0; this is the finite figure-style sum.
    phi_lambda is tabulated once per call (``_phi_table``) for distances
    up to D = R + max_c d(0, c), which bounds every grid-to-center distance
    by the triangle inequality; each center then costs one table sum over
    the grid. Raises QuadratureUnderResolved where a center rounds onto the
    boundary circle, so that D is not finite.
    """
    if n < 1:
        raise ValueError("moire_sum_discrete requires n >= 1")
    if spacing <= 0:
        raise ValueError("moire_sum_discrete requires spacing > 0")
    centers = _sum_centers(b0, n, spacing)
    dmax = grid.R + float(np.max(distance_array(centers, np.asarray(0j))))
    if not math.isfinite(dmax):
        raise QuadratureUnderResolved(
            f"centers at arc length +-{spacing * (n - 1) / 2:.4g} round onto the boundary circle")
    coef = _phi_table([lam], dmax)[:, 0]
    z = grid.z
    acc = np.zeros(z.shape)
    for c in centers:
        x = distance_array(z, np.asarray(c)) / dmax
        acc += chebval(2.0 * x * x - 1.0, coef)
    return SampledField(grid, (acc / n).astype(complex))


def _sum_centers(b0: BoundaryPoint, n: int, spacing: float) -> np.ndarray:
    """The n centers of ``moire_sum_discrete`` on ``xi(b0, 0)``, as complex disk points."""
    return horocycle_points_array(b0.theta, 0.0, spacing * (np.arange(1, n + 1) - (n + 1) / 2.0))


_PHI_TABLE_MAX_NODES = 4096  # the largest degree in d/dmax, twice that in u
_PHI_TABLE_TAIL = 1e-14


def _phi_table(lams, dmax: float) -> np.ndarray:
    """Chebyshev coefficients of u -> phi_lambda(d) on [-1, 1], u = 2 (d/dmax)^2 - 1.

    One column per lambda of the 1-D list lams: the result has shape
    (K, len(lams)), so ``chebval(u, coef)`` evaluates every lambda at once
    and returns shape (len(lams),) + u.shape.

    phi_lambda is even in d, so a table in u has half the terms of one in
    d/dmax. phi is taken at the Chebyshev points u = cos a_j of
    ``_chebyshev_levels``, at d = dmax cos(a_j / 2), which keeps its digits
    near d = 0 (u = -1), and the coefficients are their DCT-I: one rfft of
    the mirrored values, over n, with c_0 and c_n halved. n doubles from 16
    until the top quarter of the coefficients is below _PHI_TABLE_TAIL for
    every lambda; the trailing rows whose column-max |c_k| sum to at most
    _PHI_TABLE_TAIL are then dropped, which moves no value by more than
    that (J. L. Aurentz and L. N. Trefethen, ACM TOMS 43, 2017).
    """
    def phi(a):
        return spherical_radial_profile(lams, dmax * np.cos(0.5 * a)).T

    tail = math.inf
    for a, values in _chebyshev_levels(phi, 16, _PHI_TABLE_MAX_NODES // 2):
        n = len(a) - 1
        coef = np.fft.rfft(np.concatenate([values, values[-2:0:-1]]), axis=0).real / n
        coef[[0, -1]] *= 0.5
        tail = float(np.max(np.abs(coef[-n // 4:])))
        if tail < _PHI_TABLE_TAIL:
            kept = np.cumsum(np.max(np.abs(coef[::-1]), axis=1))[::-1] > _PHI_TABLE_TAIL
            return coef[:np.count_nonzero(kept)]
    raise QuadratureUnderResolved(
        f"Chebyshev table of phi_lambda, |lambda| <= {np.max(np.abs(lams)):g}, on "
        f"[0, {dmax:g}] did not settle below {_PHI_TABLE_TAIL:g} at degree "
        f"{_PHI_TABLE_MAX_NODES} in d/{dmax:g} (last tail {tail:.2e})")


def phase_correlation(field: SampledField, lam: float, b0: BoundaryPoint) -> float:
    """Normalized L2 correlation with the wave phase pattern near the origin.

    Both the field and the reference e^{i lam busemann(z, b0)} are centered
    (weighted means removed) over the grid's radial rows t <= 1.5 before the
    correlation is taken.
    """
    rows = field.grid.radii_t <= 1.5
    w = field.weights[rows]
    f = field.values[rows]
    g = np.exp(1j * lam * field.grid.busemann(b0.theta)[rows])
    f = f - np.sum(w * f) / np.sum(w)
    g = g - np.sum(w * g) / np.sum(w)
    num = abs(np.sum(w * np.conj(g) * f))
    den = math.sqrt(float(np.sum(w * np.abs(f) ** 2) * np.sum(w * np.abs(g) ** 2)))
    return num / den


def reduction_paths(lam: float, b0: BoundaryPoint, x: DiskPoint) -> tuple[complex, complex]:
    """Both sides of the change-of-variables reduction, each by the tapered line rule.

    Path A integrates phi_lambda(d(., x)) over the zero horocycle with the
    taper _REDUCTION_TAPER, reading phi from the Chebyshev table. Path B moves the
    integral to the horocycle through x: with (beta, u0) the horocycle
    coordinates of x,

        A = e^beta * int theta(e^beta (t + u0)) phi_lambda(d(0, y_beta(t))) dt
          = int theta(s) phi_lambda(d(0, y_beta(s e^{-beta} - u0))) ds,

    which path B evaluates in s with the radial kernel at every node, so the
    two paths reach phi independently.
    """
    a = _line_integrals([lam], [1.0], b0, x, [_REDUCTION_TAPER])[0]
    beta, u0 = horocycle_coordinates(x, b0)

    def on_level(s: np.ndarray) -> np.ndarray:
        y = horocycle_points_array(b0.theta, beta, s * math.exp(-beta) - u0)
        return spherical_radial(lam, distance_array(y, np.asarray(0j)))

    b = _tapered_line(on_level, _REDUCTION_TAPER, "reduction path B")
    return complex(a), complex(b)
