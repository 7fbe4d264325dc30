"""Helgason-Fourier transform on sampled fields, and horocycle integrals.

Grids: the disk is sampled in geodesic polar coordinates, radii
r_j = tanh(t_j / 2) for midpoint geodesic radii t_j in (0, R), uniform
angles; the quadrature weight per node is sinh(t_j) dt dtheta (hyperbolic
area). The spectral side is a rectangular (lambda, b) grid whose angular
nodes coincide with the spatial ones, so that the Busemann kernel is
circulant in (angle - b) and both transform directions reduce to FFT
convolutions over the angle index.

The inverse integrates lambda over [0, Lambda] with the Plancherel weight
kappa * lambda * tanh(pi lambda); this equals the (1/w)-weighted integral
over [-Lambda, Lambda] because the boundary-integrated inversion integrand
is even in lambda. kappa is calibrated once from the round trip on a
reference Gaussian bump, then frozen.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NotRadial, SpectralTruncation, SupportOverflow
from .geometry import (
    BoundaryPoint,
    DiskPoint,
    Horocycle,
    busemann,
    busemann_array,
    horocycle_points_array,
    horocycle_through,
)
from .tapers import TaperSpec
from .waves import CONVENTION, RHO, _trapezoid_halving, plancherel_density, spherical_radial

__all__ = [
    "GridSpec",
    "SampledField",
    "SpectralField",
    "forward",
    "forward_at",
    "inverse",
    "spherical_transform",
    "plancherel_spectral",
    "horocycle_integral",
    "coarea_profile",
    "lemma_check",
    "calibrate_plancherel_kappa",
    "DEFAULT_GRID",
    "LAMBDA_MAX",
    "LAMBDA_STEP",
]

LAMBDA_MAX = 8.0
LAMBDA_STEP = 0.05

FieldFunction = Callable[[np.ndarray], np.ndarray]  # complex z array -> complex values


@dataclass(frozen=True)
class GridSpec:
    """Polar sampling of the disk: n_r geodesic radii up to R, n_theta angles."""

    n_r: int = 200
    n_theta: int = 256
    R: float = 4.0

    def __post_init__(self):
        if self.n_r < 1 or self.n_theta < 1:
            raise ValueError(f"grid needs at least one radius and one angle, "
                             f"got {self.n_r}x{self.n_theta}")
        if not (math.isfinite(self.R) and self.R > 0):
            raise ValueError(f"grid radius must be positive and finite, got {self.R}")

    @property
    def radii_t(self) -> np.ndarray:
        dt = self.R / self.n_r
        return (np.arange(self.n_r) + 0.5) * dt

    @property
    def angles(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.n_theta) / self.n_theta

    @property
    def row_weights(self) -> np.ndarray:
        """Hyperbolic area weight per node in radial row j."""
        dt = self.R / self.n_r
        dth = 2.0 * np.pi / self.n_theta
        return np.sinh(self.radii_t) * dt * dth

    @property
    def z(self) -> np.ndarray:
        r = np.tanh(self.radii_t / 2.0)
        return r[:, None] * np.exp(1j * self.angles[None, :])


DEFAULT_GRID = GridSpec()


@dataclass
class SampledField:
    """Complex samples of a function on the polar grid, with area weights."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        expect = (self.grid.n_r, self.grid.n_theta)
        if self.values.shape != expect:
            raise ValueError(f"values shape {self.values.shape} != grid shape {expect}")
        area = np.sum(self.grid.row_weights) * self.grid.n_theta
        exact = 2.0 * np.pi * (math.cosh(self.grid.R) - 1.0)
        if abs(area - exact) > 1e-3 * exact:
            raise ValueError("quadrature weights do not reproduce the hyperbolic area")

    @classmethod
    def from_function(cls, fn: FieldFunction, grid: GridSpec = DEFAULT_GRID) -> "SampledField":
        return cls(grid, np.asarray(fn(grid.z), complex))

    @classmethod
    def zeros(cls, grid: GridSpec = DEFAULT_GRID) -> "SampledField":
        return cls(grid, np.zeros((grid.n_r, grid.n_theta), complex))

    @property
    def weights(self) -> np.ndarray:
        return np.broadcast_to(self.grid.row_weights[:, None], self.values.shape)

    def norm2(self) -> float:
        """Squared L2 norm with respect to hyperbolic area."""
        return float(np.sum(self.weights * np.abs(self.values) ** 2))


@dataclass
class SpectralField:
    """Samples on the (lambda, b) rectangle; b nodes match the spatial angles."""

    lambda_grid: np.ndarray
    b_grid: np.ndarray
    values: np.ndarray
    grid: GridSpec = DEFAULT_GRID  # spatial grid this field transforms against

    def __post_init__(self):
        if self.values.shape != (len(self.lambda_grid), len(self.b_grid)):
            raise ValueError("values shape does not match the (lambda, b) grid")
        if len(self.lambda_grid) > 1 and not np.all(np.diff(self.lambda_grid) > 0):
            raise ValueError("lambda grid must be strictly increasing")
        _lambda_step(self.lambda_grid)


def _lambda_step(lams: np.ndarray) -> float:
    """Spacing h of an equally spaced lambda grid; 0.0 for fewer than two nodes.

    Raises ValueError when some node is off lams[0] + k h by more than
    1e-12 of the largest |lambda|.
    """
    lams = np.asarray(lams, float)
    n = len(lams)
    if n < 2:
        return 0.0
    h = (lams[-1] - lams[0]) / (n - 1)
    if np.max(np.abs(lams - (lams[0] + h * np.arange(n)))) > 1e-12 * np.max(np.abs(lams)):
        raise ValueError("lambda grid must be equally spaced")
    return h


def _busemann_exponentials(B: np.ndarray, lams: np.ndarray, sign: int):
    """exp((sign i lambda_k + rho) B) on an equally spaced lambda grid, by giant and baby steps.

    With s = ceil(sqrt(n)) and step h, returns (G, S), of shapes
    (ceil(n / s),) + B.shape and (s,) + B.shape, with
    G[a] = exp((sign i lams[a s] + rho) B) and S[b] = exp(sign i b h B), so
    that exp((sign i lams[k] + rho) B) = G[k // s] * S[k % s]: about
    2 sqrt(n) exponentials instead of n, each value one product of two
    correctly rounded ones. Raises ValueError on a grid that is not
    equally spaced.
    """
    lams = np.asarray(lams, float)
    h = _lambda_step(lams)
    s = math.isqrt(max(len(lams), 1) - 1) + 1
    G = np.exp(np.multiply.outer(sign * 1j * lams[::s] + RHO, B))
    S = np.exp(np.multiply.outer(sign * 1j * h * np.arange(s), B))
    return G, S


def _wave_kernel_ffts(grid: GridSpec, lams: np.ndarray):
    """Per lambda, the FFT over the angle index of e_{lambda,1} on the grid.

    The Busemann bracket of the node at angle index l toward the boundary
    node at index m depends only on l - m, so ``inverse`` is a circular
    convolution with this kernel over the angle index. ``forward`` is the
    circular correlation with e_{-lambda,1} = conj(e_{lambda,1}), whose
    FFT is the conjugate of this one.
    """
    G, S = _busemann_exponentials(busemann_array(grid.z, 0.0), lams, 1)
    s = len(S)
    for k in range(len(lams)):
        yield np.fft.fft(G[k // s] * S[k % s], axis=1)


def _check_support(f: SampledField) -> None:
    mass = np.sum(np.abs(f.values) * f.weights, axis=1)
    total = np.sum(mass)
    if total == 0.0:
        return
    tail_rows = max(1, f.grid.n_r // 20)
    if np.sum(mass[-tail_rows:]) > 1e-6 * total:
        raise SupportOverflow(
            "field mass near the grid boundary exceeds 1e-6 of the total; "
            "increase R or shrink the input's support"
        )


def _lambda_weights(lams: np.ndarray) -> np.ndarray:
    """Trapezoid weights on the grid's own spacing (a single node gets 0)."""
    w = np.full(len(lams), _lambda_step(lams))
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def forward(f: SampledField, lambda_max: float = LAMBDA_MAX,
            lambda_step: float = LAMBDA_STEP) -> SpectralField:
    """Helgason-Fourier transform: integral of e_{-lambda,b} f over the disk.

    Evaluated at every (lambda, b) node; the angle/b structure is circulant,
    so each lambda row is one FFT convolution.
    """
    _check_support(f)
    grid = f.grid
    lams = np.arange(0.0, lambda_max + lambda_step / 2.0, lambda_step)
    A = np.fft.fft(f.values * grid.row_weights[:, None], axis=1)
    out = np.empty((len(lams), grid.n_theta), complex)
    for i, K in enumerate(_wave_kernel_ffts(grid, lams)):
        out[i] = np.sum(A * np.conj(K), axis=0)
    return SpectralField(lams, grid.angles, np.fft.ifft(out, axis=1), grid)


def forward_at(f: SampledField, lams: np.ndarray, b: BoundaryPoint) -> np.ndarray:
    """Transform values at equally spaced lambda nodes for one boundary direction."""
    _check_support(f)
    B = busemann_array(f.grid.z, b.theta)
    G, S = _busemann_exponentials(B, lams, -1)
    G *= f.values * f.weights
    # out[a s + b] = sum over the grid of G[a] * S[b]
    return (G.reshape(len(G), B.size) @ S.reshape(len(S), B.size).T).ravel()[:len(lams)]


def inverse(F: SpectralField, kappa: float | None = None) -> SampledField:
    """Inversion with Plancherel weight; lambda over [0, Lambda] (see module doc)."""
    dens0 = plancherel_density(F.lambda_grid, kappa=1.0)
    energy = dens0 * np.sum(np.abs(F.values) ** 2, axis=1)
    total = np.sum(energy)
    tail_rows = max(1, len(energy) // 20)
    if total > 0 and np.sum(energy[-tail_rows:]) > 1e-3 * total:
        raise SpectralTruncation(
            "spectral energy has not decayed at the lambda boundary; raise lambda_max"
        )
    grid = F.grid
    if len(F.b_grid) != grid.n_theta or not np.allclose(F.b_grid, grid.angles):
        raise ValueError("b grid must coincide with the spatial angular grid")
    dens = plancherel_density(F.lambda_grid, kappa=kappa)
    wl = _lambda_weights(F.lambda_grid)
    db = 1.0 / grid.n_theta
    # inverse is linear: sum the kernel products over lambda, then one IFFT
    FF = np.fft.fft(F.values, axis=1) * (dens * wl * db)[:, None]
    acc = np.zeros((grid.n_r, grid.n_theta), complex)
    for i, K in enumerate(_wave_kernel_ffts(grid, F.lambda_grid)):
        K *= FF[i]
        acc += K
    return SampledField(grid, np.fft.ifft(acc, axis=1))


def _radial_profile(f: SampledField) -> np.ndarray:
    prof = np.mean(f.values, axis=1)
    scale = np.max(np.abs(f.values)) or 1.0
    if np.max(np.abs(f.values - prof[:, None])) > 1e-8 * scale:
        raise NotRadial("field is not K-invariant within 1e-8")
    return prof


def spherical_transform(f: SampledField, lams: np.ndarray) -> np.ndarray:
    """K-invariant transform: 2 pi int f(t) phi_{-lambda}(t) sinh(t) dt."""
    prof = _radial_profile(f)
    t = f.grid.radii_t
    dt = f.grid.R / f.grid.n_r
    lams = np.asarray(lams, float)
    phis = spherical_radial(lams[:, None], t[None, :])
    return 2.0 * np.pi * dt * np.sum(phis * (prof * np.sinh(t))[None, :], axis=1)


def plancherel_spectral(ftilde: np.ndarray, lams: np.ndarray,
                        kappa: float | None = None) -> float:
    """(1/w) int_{-L}^{L} |ftilde|^2 density dlam, by evenness = int_0^L."""
    wl = _lambda_weights(np.asarray(lams, float))
    return float(np.sum(wl * plancherel_density(lams, kappa=kappa) * np.abs(ftilde) ** 2))


def horocycle_integral(fn: FieldFunction, h: Horocycle, taper: TaperSpec,
                       tol: float = 1e-8, max_halvings: int = 12,
                       n_start: int = 513) -> complex:
    """Tapered line integral of fn along the horocycle, arc-length measure.

    fn must accept an ndarray of complex disk coordinates. The uniform
    trapezoid on n_start nodes is refined by halving its step until the
    result moves by less than tol; each node is passed to fn once.
    """
    S = taper.support_radius

    def values(s: np.ndarray) -> np.ndarray:
        y = horocycle_points_array(h.direction.theta, h.busemann_value, s)
        return taper(s) * np.asarray(fn(y), complex)

    return complex(_trapezoid_halving(values, -S, S, n_start - 1, tol, max_halvings,
                                      "horocycle integral"))


WIDE_TAPER = TaperSpec("gaussian", 20.0)


def coarea_profile(psi: FieldFunction, b0: BoundaryPoint, x: DiskPoint,
                   u_grid: np.ndarray, taper: TaperSpec = WIDE_TAPER) -> np.ndarray:
    """Level-set profile of psi along the horocycle foliation toward b0.

    Psi(u) = e^{rho u} * integral of psi over the horocycle at Busemann
    value busemann(x, b0) - u.
    """
    beta_x = busemann(x, b0)
    out = np.empty(len(u_grid), complex)
    for i, u in enumerate(np.asarray(u_grid, float)):
        line = horocycle_integral(psi, Horocycle(b0, beta_x - u), taper)
        out[i] = math.exp(RHO * u) * line
    return out


def lemma_check(psi: FieldFunction, b0: BoundaryPoint, x: DiskPoint,
                grid: GridSpec = DEFAULT_GRID,
                lambda_max: float = LAMBDA_MAX,
                lambda_step: float = LAMBDA_STEP) -> tuple[complex, complex]:
    """Weak test of the horocycle-Dirac transform identity.

    lhs: (1/2pi) int_{-L}^{L} e_{lambda,b0}(x) psi_hat(lambda, b0) dlambda,
    with psi_hat from the forward transform of the sampled psi.
    rhs: wide-tapered integral of psi over the horocycle through x toward b0.
    The two sides agree when x lies on the zero horocycle of direction b0.
    """
    f = SampledField.from_function(psi, grid)
    lams = np.arange(-lambda_max, lambda_max + lambda_step / 2.0, lambda_step)
    psi_hat = forward_at(f, lams, b0)
    beta_x = busemann(x, b0)
    wave = np.exp((1j * lams + RHO) * beta_x)
    lhs = complex(np.trapezoid(wave * psi_hat, lams) / (2.0 * np.pi))
    rhs = horocycle_integral(psi, horocycle_through(b0, x), WIDE_TAPER)
    return lhs, rhs


def calibrate_plancherel_kappa(grid: GridSpec = DEFAULT_GRID) -> float:
    """One-time kappa fit: L2 projection of the reference-bump round trip.

    The reference input is the radial Gaussian exp(-1.25 d(0,z)^2), narrow
    enough to clear the support check at the default R. kappa is the
    scalar minimizing ||kappa * inverse(forward(f0), 1) - f0||_{L2}.
    """
    f0 = SampledField.from_function(
        lambda z: np.exp(-1.25 * (2.0 * np.arctanh(np.abs(z))) ** 2), grid)
    g1 = inverse(forward(f0), kappa=1.0)
    w = f0.weights
    num = float(np.sum(w * np.conj(g1.values) * f0.values).real)
    den = float(np.sum(w * np.abs(g1.values) ** 2))
    return num / den


CONVENTION.register_calibrator(calibrate_plancherel_kappa)
