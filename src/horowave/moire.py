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
from dataclasses import dataclass, replace

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
from .transform import GridSpec, SampledField, _tapered_line
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
    """One tapered-superposition run against its Helgason-wave target."""

    lam: float
    b0: BoundaryPoint
    x: DiskPoint
    approx: complex
    target: complex
    abs_error: float
    taper: TaperSpec
    oscillation_amplitude: float = 0.0
    divergent: bool = False


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
    tapered by DEFAULT_TAPER. The target is the Helgason wave at x;
    agreement is expected only at beta = 0 (see the module doc), and there
    only up to the taper's oscillation band (see ``convergence_study``).
    """
    return _moire_reports(lam, b0, x, [DEFAULT_TAPER])[0]


def _moire_reports(lam: float, b0: BoundaryPoint, x: DiskPoint,
                   tapers: list[TaperSpec]) -> list[MoireReport]:
    """``moire_integral`` at each taper, every line integral reading one phi table.

    The table covers the distances of the widest taper's support, which
    bound those of every narrower one (see ``_line_integrals_multi``).
    """
    xc = _center_under(b0, x)
    table = _line_table([lam], b0, xc, max(t.support_radius for t in tapers))
    scale = HOROCYCLE_KAPPA * plancherel_density(lam)
    target = helgason_wave(lam, b0, x)
    reports = []
    for taper in tapers:
        line = _line_integrals_multi([lam], b0, xc, taper, table=table)[0]
        approx = complex(scale * line)
        reports.append(MoireReport(lam, b0, x, approx, target, abs(approx - target), taper))
    return reports


def _horocycle_distances(b0: BoundaryPoint, x: DiskPoint, s: np.ndarray) -> np.ndarray:
    """d(y(s), x) at arc lengths s of the zero horocycle ``xi(b0, 0)``."""
    return distance_array(horocycle_points_array(b0.theta, 0.0, s), np.asarray(x.z))


def _line_table(lams, b0: BoundaryPoint, x: DiskPoint, S: float) -> tuple[np.ndarray, float]:
    """(coefficients, D): the phi table for line integrals over [-S, S], D = max d(y(+-S), x)."""
    dmax = float(np.max(_horocycle_distances(b0, x, np.array([-S, S]))))
    return _phi_table(lams, dmax), dmax


def _line_integrals_multi(lams, b0: BoundaryPoint, x: DiskPoint,
                          taper: TaperSpec,
                          table: tuple[np.ndarray, float] | None = None) -> np.ndarray:
    """Tapered integrals of phi_lambda(d(y(s), x)) along ``xi(b0, 0)`` for a list of lambda.

    Every lambda shares the grid of the tapered line rule
    (``transform._tapered_line``). phi is read from one Chebyshev table
    (``_phi_table``) on [0, D], D the larger of the endpoint distances
    d(y(+-S), x): in half-plane coordinates with b0 at infinity and
    (beta, a) the horocycle coordinates of x,
    cosh d(y(s), x) = 1 + ((s - a)^2 + (1 - e^beta)^2) / (2 e^beta) grows
    with |s - a|, so D bounds the distance at every node. ``table`` is a
    ``_line_table`` of the same lams over a support at least as wide, for
    callers that share one; by default the call builds its own. Each
    level's new nodes cost one product of the (K x L) coefficients with
    the rows T_k(u) (``_cheb_sum``).

    The taper is centered at s = 0, not under x: ``moire_weak`` runs at
    different points of the same horocycle then probe genuinely different
    tapered quadratures that must all converge to the same windowed target.
    """
    coef, dmax = _line_table(lams, b0, x, taper.support_radius) if table is None else table

    def values(s: np.ndarray) -> np.ndarray:
        u = _horocycle_distances(b0, x, s) / dmax
        return _cheb_sum(coef, 2.0 * u * u - 1.0)

    return _tapered_line(values, taper, "horocycle line integrals")


# values of the rows T_k(u) that ``_cheb_sum`` holds at once
_CHEB_BLOCK = 1 << 18


def _cheb_sum(coef: np.ndarray, u: np.ndarray) -> np.ndarray:
    """sum_k coef[k, l] T_k(u) of shape (L, len(u)), for 1-D u in [-1, 1].

    ``chebval(u, coef)`` as one product per block of nodes: the rows T_k(u)
    come from the three-term recurrence, at most _CHEB_BLOCK values at a
    time, and are contracted with the coefficients in einsum's own loop.
    Against the Clenshaw sum this does a K x L x nodes product instead of
    K passes over an L x nodes array; as a two-thread OpenBLAS product it
    stalled after idle gaps (see ``transform._real_matmul``).
    """
    K = coef.shape[0]
    out = np.empty((coef.shape[1], len(u)))
    step = max(1, _CHEB_BLOCK // K)
    for lo in range(0, len(u), step):
        w = u[lo:lo + step]
        T = np.empty((K, len(w)))
        T[0] = 1.0
        if K > 1:
            T[1] = w
        w2 = 2.0 * w
        for k in range(2, K):
            np.multiply(w2, T[k - 1], out=T[k])
            T[k] -= T[k - 2]
        out[:, lo:lo + step] = np.einsum("kl,kn->ln", coef, T)
    return out


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
    lams = np.linspace(window.lo, window.hi, 81)
    chi = window(lams)
    if not np.any(chi):
        return 0j, 0j
    line = _line_integrals_multi(lams, b0, x, taper)
    lhs = HOROCYCLE_KAPPA * np.trapezoid(chi * plancherel_density(lams) * line, lams)
    beta = busemann(x, b0)
    rhs = np.trapezoid(chi * np.exp((1j * lams + RHO) * beta), lams)
    return complex(lhs), complex(rhs)


def convergence_study(lam: float, b0: BoundaryPoint, x: DiskPoint,
                      sigmas, kind: str = "gaussian") -> list[MoireReport]:
    """Taper-width sweep at fixed lambda; documents the oscillation band.

    ``oscillation_amplitude`` is the diameter of the approx values over the
    largest three widths; ``divergent`` flags any approx exceeding ten
    times the target modulus.
    """
    sigmas = [float(s) for s in sigmas]
    if any(b <= a for a, b in zip(sigmas, sigmas[1:])):
        raise ValueError("sigmas must be strictly increasing")
    reports = _moire_reports(lam, b0, x, [TaperSpec(kind, s) for s in sigmas])
    tail = [r.approx for r in reports[-3:]]
    osc = max(abs(a - b) for a in tail for b in tail)
    divergent = any(abs(r.approx) > 10.0 * abs(r.target) for r in reports)
    return [replace(r, oscillation_amplitude=osc, divergent=divergent)
            for r in reports]


def moire_sum_discrete(lam: float, b0: BoundaryPoint, n: int, spacing: float,
                       grid: GridSpec) -> SampledField:
    """Average of n spherical functions centered along ``xi(b0, 0)``.

    Centers sit at arc lengths spacing * (i - (n+1)/2), symmetric about
    the geodesic axis toward b0; this is the finite figure-style sum.
    phi_lambda is tabulated once per call (``_phi_table``) for distances
    up to D = R + max_c d(0, c), which bounds every grid-to-center distance
    by the triangle inequality; each center then costs one table sum over
    the grid.
    """
    if n < 1:
        raise ValueError("moire_sum_discrete requires n >= 1")
    if spacing <= 0:
        raise ValueError("moire_sum_discrete requires spacing > 0")
    s_i = spacing * (np.arange(1, n + 1) - (n + 1) / 2.0)
    centers = horocycle_points_array(b0.theta, 0.0, s_i)
    dmax = grid.R + float(np.max(distance_array(centers, np.asarray(0j))))
    coef = _phi_table([lam], dmax)[:, 0]
    z = grid.z
    acc = np.zeros(z.shape)
    for c in centers:
        x = distance_array(z, np.asarray(c)) / dmax
        acc += chebval(2.0 * x * x - 1.0, coef)
    return SampledField(grid, (acc / n).astype(complex))


_PHI_TABLE_MAX_NODES = 4096
_PHI_TABLE_TAIL = 1e-14


def _phi_table(lams, dmax: float) -> np.ndarray:
    """Chebyshev coefficients of u -> phi_lambda(d) on [-1, 1], u = 2 (d/dmax)^2 - 1.

    One column per lambda of the 1-D list lams: the result has shape
    (K, len(lams)), so ``chebval(u, coef)`` evaluates every lambda at once
    and returns shape (len(lams),) + u.shape.

    phi_lambda is even in d, so the table interpolates its even extension
    x -> phi_lambda(dmax * |x|): d = 0 then sits mid-interval instead of at
    an end point, where a table on [0, dmax] was off by up to 1e-14 near
    d = 0 (this one: 5e-16). The extension's odd coefficients vanish, and
    T_2k(x) = T_k(2x^2 - 1) turns its even ones into a table in u of half
    the length, so each sum takes half the steps. The n first-kind
    Chebyshev points pair up as x <-> -x, so phi is evaluated only at the
    n/2 positive ones: with N = n/2, the even coefficients c_2k are
    DCT-II_N of those values over N, c_0 halved, the DCT taken by one numpy
    FFT (``_dct2``). The node count n doubles from 32 until the top quarter
    of the even coefficients is below 1e-14 for every lambda.
    """
    n = 32
    while n <= _PHI_TABLE_MAX_NODES:
        N = n // 2
        x = np.cos(np.pi * (np.arange(N) + 0.5) / n)
        coef = _dct2(spherical_radial_profile(lams, dmax * x)).T / N
        coef[0] *= 0.5
        tail = float(np.max(np.abs(coef[-N // 4:])))
        if tail < _PHI_TABLE_TAIL:
            return coef
        n *= 2
    raise QuadratureUnderResolved(
        f"Chebyshev table of phi_lambda, |lambda| <= {np.max(np.abs(lams)):g}, on "
        f"[0, {dmax:g}] did not settle below {_PHI_TABLE_TAIL:g} with "
        f"{_PHI_TABLE_MAX_NODES} nodes (last tail {tail:.2e})")


def _dct2(y: np.ndarray) -> np.ndarray:
    """DCT-II along the last axis, 2 sum_n y_n cos(pi k (2n + 1) / 2N), by one FFT.

    It is 2 Re(V_k e^{-i pi k / 2N}), V the FFT of y_0, y_2, ..., then the
    odd samples backwards (J. Makhoul, IEEE Trans. ASSP 28, 1980).
    """
    N = y.shape[-1]
    V = np.fft.fft(np.concatenate([y[..., ::2], y[..., 1::2][..., ::-1]], axis=-1))
    return 2.0 * (V * np.exp(-0.5j * np.pi * np.arange(N) / N)).real


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
    a = _line_integrals_multi([lam], b0, x, _REDUCTION_TAPER)[0]
    beta, u0 = horocycle_coordinates(x, b0)

    def on_level(s: np.ndarray) -> np.ndarray:
        y = horocycle_points_array(b0.theta, beta, s * math.exp(-beta) - u0)
        return spherical_radial(lam, distance_array(y, np.asarray(0j)))

    b = _tapered_line(on_level, _REDUCTION_TAPER, "reduction path B")
    return complex(a), complex(b)
