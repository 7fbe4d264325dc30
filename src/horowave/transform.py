"""Helgason-Fourier transform on sampled fields, and horocycle integrals.

Grids: the disk is sampled in geodesic polar coordinates, radii
r_j = tanh(t_j / 2) for midpoint geodesic radii t_j in (0, R), uniform
angles; the quadrature weight per node is sinh(t_j) dt dtheta (hyperbolic
area, end-corrected at t = 0). The spectral side is a rectangular
(lambda, b) grid whose angular nodes coincide with the spatial ones, so
that the Busemann kernel is circulant in (angle - b) and both transform
directions reduce to FFT convolutions over the angle index. The kernel is
analytic in the geodesic radius t, so it is built only at Q Chebyshev radii
on [t_0, t_{n_r - 1}] (65 on grids of R = 4 at the default band), chosen by a
measured check of the radii and the band edge alone (``_radial_nodes``): the
weighted field is projected onto them and sums there are interpolated back.
A grid of at most Q radii keeps its own radii.

The inverse integrates lambda over [0, Lambda] with the Plancherel weight
kappa * lambda * tanh(pi lambda); this equals the (1/w)-weighted integral
over [-Lambda, Lambda] because the boundary-integrated inversion integrand
is even in lambda. kappa is the exact 1/(2 pi) (``waves.PLANCHEREL_KAPPA``);
``calibrate_plancherel_kappa`` refits it from a round trip as a check.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NotRadial, QuadratureUnderResolved, SpectralTruncation, SupportOverflow
from .geometry import (
    BoundaryPoint,
    DiskPoint,
    Horocycle,
    _polar_bracket,
    busemann,
    horocycle_points_array,
    origin_distance,
)
from .tapers import TaperSpec
from .waves import PLANCHEREL_KAPPA, RHO, plancherel_density, spherical_radial_profile

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


def gaussian_bump(a: float) -> FieldFunction:
    """The radial Gaussian z -> exp(-a d(0, z)^2): a larger coefficient a is a narrower bump."""
    return lambda z: np.exp(-a * origin_distance(z) ** 2)


@dataclass(frozen=True)
class GridSpec:
    """Polar sampling of the disk: n_r geodesic radii up to R, n_theta angles."""

    n_r: int
    n_theta: int
    R: float

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
        """Hyperbolic area weight per node in radial row j: the one radial rule.

        Midpoint weights sinh(t_j) dt dtheta plus the Euler-Maclaurin end term
        -(dt^2/24) g'(0), g = sinh(t) F(t), with g'(0) = (27 g(t_0) - g(t_1)) / (12 dt)
        to O(dt^2) as g is odd: O(dt^4) for F vanishing at R (``_check_support``).
        One radius has no t_1 and keeps the midpoint weight.
        """
        dt = self.R / self.n_r
        dth = 2.0 * np.pi / self.n_theta
        w = np.sinh(self.radii_t) * dt * dth
        if self.n_r > 1:
            w[:2] *= (1.0 - 27.0 / 288.0, 1.0 + 1.0 / 288.0)
        return w

    @property
    def z(self) -> np.ndarray:
        r = np.tanh(self.radii_t / 2.0)
        return r[:, None] * np.exp(1j * self.angles[None, :])

    def busemann(self, theta: float) -> np.ndarray:
        """Busemann bracket toward e^{i theta} at every node (``geometry._polar_bracket``).

        ``moire.phase_correlation`` and the CLI's ``wave`` read every column.
        ``forward``, ``inverse`` and ``forward_at`` build their own offsets and
        take from ``_polar_bracket`` only the brackets they read
        (``_even_row_ffts``, ``_busemann_kernel``).
        """
        return _polar_bracket(self.radii_t[:, None],
                              _angle_offsets(self.n_theta, theta, self.n_theta))


def _angle_offsets(n: int, theta: float, count: int) -> np.ndarray:
    """a_l - theta at the first count of the n grid angles a_l = 2 pi l / n.

    With k the index of the grid angle nearest theta, a_l - theta is taken as
    2 pi m / n - (theta - 2 pi k / n), m = l - k wrapped into [-n/2, n/2).
    So the angles near theta keep their digits wherever theta sits: toward
    theta = 0 the angles just below 2 pi are the small negative angles they
    are, where sin((a_l - theta)/2) on the float a_l would cancel near pi.
    """
    k = np.rint(theta * n / (2.0 * np.pi))
    m = (np.arange(count) - k + n // 2) % n - n // 2
    return 2.0 * np.pi * m / n - (theta - 2.0 * np.pi * k / n)


DEFAULT_GRID = GridSpec(200, 256, 4.0)


@dataclass
class SampledField:
    """Complex samples of a function on the polar grid, with area weights."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        expect = (self.grid.n_r, self.grid.n_theta)
        if self.values.shape != expect:
            raise ValueError(f"values shape {self.values.shape} != grid shape {expect}")
        # the weights must integrate, within 1e-3, a field that vanishes at R as
        # _check_support asks of every input: F = cos^2(pi t / 2R), flat at R too,
        # whose integral over the disk is pi (2 sinh^2(R/2) - (cosh R + 1) / (1 + (pi/R)^2))
        R = self.grid.R
        # R past 710: nan, and refused; (pi/R)^2 is inf below R = 1e-154
        with np.errstate(over="ignore", invalid="ignore"):
            F = np.cos(0.5 * np.pi * self.grid.radii_t / R) ** 2
            area = float(np.sum(self.grid.row_weights * F)) * self.grid.n_theta
            exact = np.pi * (2.0 * np.sinh(0.5 * R) ** 2
                             - (np.cosh(R) + 1.0) / (1.0 + np.float64(np.pi / R) ** 2))
        if not abs(area - exact) <= 1e-3 * exact:
            raise ValueError("quadrature weights do not reproduce the hyperbolic area")

    @classmethod
    def from_function(cls, fn: FieldFunction, grid: GridSpec) -> "SampledField":
        return cls(grid, np.asarray(fn(grid.z), complex))

    @classmethod
    def zeros(cls, grid: GridSpec) -> "SampledField":
        return cls(grid, np.zeros((grid.n_r, grid.n_theta), complex))

    @property
    def weights(self) -> np.ndarray:
        return np.broadcast_to(self.grid.row_weights[:, None], self.values.shape)

    def norm2(self) -> float:
        """Squared L2 norm with respect to hyperbolic area."""
        return float(np.sum(self.weights * np.abs(self.values) ** 2))

    def __eq__(self, other):
        """The same grid and the same values (``np.array_equal``)."""
        if not isinstance(other, SampledField):
            return NotImplemented
        return self.grid == other.grid and np.array_equal(self.values, other.values)


@dataclass
class SpectralField:
    """Samples on the (lambda, b) rectangle; the b nodes are ``grid.angles``."""

    lambda_grid: np.ndarray
    values: np.ndarray
    grid: GridSpec  # spatial grid this field transforms against

    def __post_init__(self):
        if self.values.shape != (len(self.lambda_grid), self.grid.n_theta):
            raise ValueError("values shape does not match the (lambda, b) grid")
        if len(self.lambda_grid) > 1 and not np.all(np.diff(self.lambda_grid) > 0):
            raise ValueError("lambda grid must be strictly increasing")
        _lambda_step(self.lambda_grid)

    def __eq__(self, other):
        """The same spatial grid, lambda grid and values (``np.array_equal``)."""
        if not isinstance(other, SpectralField):
            return NotImplemented
        return (self.grid == other.grid and np.array_equal(self.lambda_grid, other.lambda_grid)
                and np.array_equal(self.values, other.values))


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


_KERNEL_TAIL = 1e-15       # bound on |J_{K-1}| at a row's largest |c B|
_KERNEL_MAX_TERMS = 4096
# bound on the kernel's interpolation error in t at the midpoints between the radial
# nodes, relative to each midpoint's largest |kernel| (``_radial_nodes``). The phase
# round-off of the kernel itself, about lam max|B| 2^-53, sets a floor of 0.7-1.7e-14
# at lam = 8 and R = 4 to 6, which the check must clear
_NODE_TOL = 5e-14
_NODE_CHECK_OFFSETS = _angle_offsets(256, 0.0, 129)  # what it reads: 0 to pi of 256 angles
_MAX_RADIAL_NODES = 1025  # past it the grid radii: the check's matrices stay below 9 MB
# float64 values per block's Bessel stack and per chunk of kernel-row FFTs, a complex
# value counting two: 0.5 MiB. At 200x256 a block of forward's outer radial nodes holds
# 11 nodes of 44 terms at 129 angles, and one chunk of their FFTs 11 of those terms. On
# a 2-core VM, 0.75 MiB took 0.3-1.2 MB off perfbench spectral's peak RSS and 0.5 MiB
# 0.9-1.3 MB, at the same op times (measured when the rows were built at every radius)
_BLOCK_FLOATS = 65536
# multiply-adds per BLAS call (``_real_matmul``): OpenBLAS runs a dgemm of at most
# 65536 x GEMM_MULTITHREAD_THRESHOLD (4) of them on one thread
_BLAS_BLOCK = 1 << 18


def _bessel_stack(z: np.ndarray, K: int) -> np.ndarray:
    """J_0(z), ..., J_{K-1}(z), of shape (K,) + z.shape, by Miller's backward recurrence.

    Three passes: the ratios r_k = J_k / J_{k-1} = z / (2k - z r_{k+1}) from
    r = 0 eight orders above K, so tiny |z| cannot overflow them; their
    product J_k = r_1 ... r_k from J_0 = 1; and the scale J_0 + 2 sum_k J_2k = 1,
    summed to order K - 1 only, as every caller's K is past the tail
    (_kernel_terms asks |J_{K-1}| < _KERNEL_TAIL, its own stack six orders
    past the count). Negative z needs nothing special. A denominator that
    rounds to exactly 0, possible where z sits on a zero of J_{k-1}, leaves
    the scale non-finite; those columns are taken again at the next float
    above z. See W. Gautschi, SIAM Review 9 (1967).
    """
    z = np.asarray(z, float)
    J = np.empty((K,) + z.shape)
    r, den = np.zeros_like(z), np.empty_like(z)  # r holds the ratios above order K - 1
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(K + 8, 0, -1):
            np.multiply(z, r, out=den)
            np.subtract(2.0 * k, den, out=den)
            r = J[k] if k < K else r
            np.divide(z, den, out=r)
        J[0] = 1.0
        for k in range(1, K):  # np.cumprod along axis 0 took ten times as long
            J[k] *= J[k - 1]
        scale = 1.0 + 2.0 * np.sum(J[2::2], axis=0)
        J /= scale
    bad = ~np.isfinite(scale) & np.isfinite(z)
    if bad.any():
        J[:, bad] = _bessel_stack(np.nextafter(z[bad], np.inf), K)
    return J


def _kernel_terms(zmax: np.ndarray) -> np.ndarray:
    """Jacobi-Anger terms for arguments |z| <= zmax, one count per entry of zmax.

    Each count K is one more than the first order k > zmax with
    |J_k(zmax)| < _KERNEL_TAIL. Past its turning point J_k(z) grows with
    |z|, so the bound holds at every |z| <= zmax. The count is about
    zmax + 12 + 9 zmax^(1/3) (45 at zmax = 16, 1103 at 1000), so one Bessel
    stack of z + 10 z^(1/3) + 12 orders, z = max zmax, settles it (with six
    orders to spare up to z = 3930); past about z = 3924 that reaches
    _KERNEL_MAX_TERMS, and a count it does not settle is QuadratureUnderResolved.
    """
    zmax = np.asarray(zmax, float)
    z = float(np.max(zmax))
    n = min(math.ceil(z + 10.0 * z ** (1.0 / 3.0)) + 12, _KERNEL_MAX_TERMS)
    j = np.abs(_bessel_stack(zmax, n))
    settled = (j < _KERNEL_TAIL) & (np.arange(n)[:, None] > zmax)
    if not settled.any(axis=0).all():
        raise QuadratureUnderResolved(
            f"Jacobi-Anger expansion at |c B| = {z:g} did not settle below "
            f"{_KERNEL_TAIL:g} with {n} terms (last |J_{n - 1}| = {np.max(j[-1]):.2e})")
    return settled.argmax(axis=0) + 1


def _barycentric(nodes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Matrix taking values at the Chebyshev points nodes = -cos(pi q / (Q - 1)) to the points x.

    The barycentric formula with weights (-1)^q, halved at both ends
    (J.-P. Berrut and L. N. Trefethen, SIAM Review 46, 2004, eq. 5.4); a
    point equal to a node takes that node's value.
    """
    w = np.where(np.arange(len(nodes)) % 2, -1.0, 1.0)
    w[[0, -1]] *= 0.5
    d = x[:, None] - nodes
    hit = d == 0.0
    d[hit] = 1.0
    M = w / d
    M /= np.sum(M, axis=1, keepdims=True)
    on_node = hit.any(axis=1)
    M[on_node] = hit[on_node]
    return M


def _nested_levels(f, n: int, max_n: int):
    """Yield (q, f(q)) at the fractions q_j = j / n, j = 0..n, for n, 2n, ... <= max_n.

    Each level's even fractions are the last level's, so f, which maps
    fractions to values along its first axis, sees only the new odd ones.
    """
    values = None
    while n <= max_n:
        q = np.arange(n + 1) / n
        if values is None:
            values = f(q)
        else:
            level = np.empty_like(values, shape=(n + 1,) + values.shape[1:])
            level[::2], level[1::2] = values, f(q[1::2])
            values = level
        yield q, values
        n *= 2


@functools.lru_cache(maxsize=32)
def _node_check(t0: float, t1: float, n: int, lam: float):
    """Chebyshev points x in [-1, 1] for the kernel rows on [t0, t1], n radii, band edge lam.

    The kernel e^{(i lam + rho) B(t, a)} is analytic in t on the strip
    |Im t| < pi/2: its only singularities are the zeros of
    cosh t - sinh t cos(a - theta), at t = log cot(|a - theta|/2) +- i pi/2.
    So its Chebyshev interpolant on [t0, t1] converges geometrically
    (L. N. Trefethen, Approximation Theory and Approximation Practice,
    Thm 8.2). Q doubles (33, 65, 129, ..., ``_nested_levels``) until the
    interpolant of the kernel at lam, the largest |lambda|, is within
    _NODE_TOL of it at the midpoints between the nodes, relative to the
    largest |kernel| at each midpoint, at _NODE_CHECK_OFFSETS: the strip is
    the same at every angle, so these nodes serve every grid and every b.
    Returns (x, err), x read-only and err that midpoint error, or (None, 0.0)
    once Q reaches n (or passes _MAX_RADIAL_NODES); made once per radii and lam.
    """
    mid, half = 0.5 * (t1 + t0), 0.5 * (t1 - t0)

    def kernel(q):
        t = mid - half * np.cos(np.pi * q)
        return np.exp((1j * lam + RHO) * _polar_bracket(t[:, None], _NODE_CHECK_OFFSETS))

    max_n = min(2 * n - 4, 2 * _MAX_RADIAL_NODES - 2)  # Q < n, Q <= _MAX_RADIAL_NODES
    for q, K in _nested_levels(kernel, 64, max_n):
        x, Km = -np.cos(np.pi * q[::2]), K[1::2]
        P = _real_matmul(_barycentric(x, -np.cos(np.pi * q[1::2])), K[::2]) - Km
        err = float(np.max(np.max(np.abs(P), axis=1) / np.max(np.abs(Km), axis=1)))
        if err <= _NODE_TOL:
            x.setflags(write=False)
            return x, err
    return None, 0.0


def _radial_nodes(t: np.ndarray, lam: float):
    """Radii at which to build the kernel rows, and the map from them back to the radii t.

    Returns (nodes, I, err): ``_node_check``'s nodes on [t_0, t_{n-1}] and
    midpoint error, and I of shape (n, Q) taking values at the nodes to the
    radii t; (t, None, 0.0) where the grid keeps its radii.
    """
    x, err = _node_check(float(t[0]), float(t[-1]), len(t), float(lam))
    if x is None:
        return t, None, 0.0
    mid, half = 0.5 * (t[-1] + t[0]), 0.5 * (t[-1] - t[0])
    return mid + half * x, _barycentric(x, (t - mid) / half), err


def _busemann_kernel(t: np.ndarray, offsets: np.ndarray, lams: np.ndarray):
    """The Busemann kernel e^{(i lam + rho) B} of every lambda, as lambda-free rows.

    B is the bracket at the radii t and the angle offsets ``offsets``
    (``_polar_bracket``), taken a block of radii at a time. With
    lam = mid + c x on [min lams, max lams], x in [-1, 1], the Jacobi-Anger
    expansion (DLMF 10.12.1-3) gives
    e^{(i lam + rho) B} = sum_k T_k(x) s_k J_k(c B) e^{(i mid + rho) B},
    s_k = eps_k i^k with eps_0 = 1 and eps_k = 2. Returns (T, s, blocks):
    T[i, k] = T_k(x_i), of shape (len(lams), K), s of shape (K,), and an
    iterator over blocks of radii yielding (rows, J, E) with
    J[k] = J_k(c B[rows]) and E = e^{(i mid + rho) B[rows]}, so the kernel
    of lams[i] is sum_k T[i, k] s_k J[k] E. ``forward`` and ``inverse`` form
    the products J[k] E (``_even_row_ffts``); ``forward_at`` never does, and
    contracts J with E times the weighted field. |B| <= t at every angle
    (with equality at theta and theta + pi), so each radius takes as many
    terms as c t needs (_kernel_terms), and as |J_k(z)| grows with z once
    k > z, a block and K take their last radius's; a block holds as many
    radii as keep its Bessel stack (its terms times its points) within
    _BLOCK_FLOATS, and at least one. The counts follow c max|B|, not lambdas.
    """
    lams = np.asarray(lams, float)
    lo, hi = (lams.min(), lams.max()) if lams.size else (0.0, 0.0)
    mid, c = 0.5 * (hi + lo), 0.5 * (hi - lo)
    row_terms = _kernel_terms(c * t)
    starts = [0]
    for j, n in enumerate(row_terms.tolist()):
        if j > starts[-1] and n * (j + 1 - starts[-1]) * len(offsets) > _BLOCK_FLOATS:
            starts.append(j)
    k = np.arange(row_terms[-1])
    s = np.where(k, 2.0, 1.0) * np.array([1, 1j, -1, -1j])[k % 4]
    x = (lams - mid) / c if c else np.zeros_like(lams)
    T = np.ones((len(k), lams.size))  # T_k(x) by chebvander's recurrence, then transposed
    T[1:2], x2 = x, 2.0 * x
    for i in range(2, len(k)):
        T[i] = T[i - 1] * x2 - T[i - 2]
    T = T.T

    def blocks():
        for a, b in zip(starts, [*starts[1:], len(t)]):
            B = _polar_bracket(t[a:b, None], offsets)
            yield (slice(a, b), _bessel_stack(c * B, row_terms[b - 1]),
                   np.exp((1j * mid + RHO) * B))

    return T, s, blocks()


def _even_row_ffts(t: np.ndarray, n: int, lams: np.ndarray):
    """``_busemann_kernel`` toward b = 0 at the radii t and n grid angles, rows as FFTs.

    Returns (T, s, chunks), chunks yielding (rows, ks, FW) with FW[i] the
    FFT along the angle of J_k(c B[rows]) e^{(i mid + rho) B[rows]} for
    k = ks.start + i. ``forward`` and ``inverse`` take t from
    ``_radial_nodes``. Toward b = 0 the bracket depends on the angle only
    through sin^2(theta/2), so each row is even in the angle index: the
    bracket and the rows are built at the h = n_theta // 2 + 1 angles
    theta <= pi, where sin(theta/2) keeps its digits, and mirrored onto the
    rest. A block's K rows are formed, mirrored and transformed a chunk of
    terms at a time, each chunk within _BLOCK_FLOATS (one term's rows at
    least), in one buffer that every chunk reuses: FW is overwritten by
    the next chunk.
    """
    h = n // 2 + 1
    T, s, blocks = _busemann_kernel(t, _angle_offsets(n, 0.0, h), lams)

    def ffts():
        buf = np.empty(_BLOCK_FLOATS // 2, complex)
        for rows, J, E in blocks:
            per_term = len(E) * n
            step = max(1, len(buf) // per_term)
            if step * per_term > len(buf):  # one term's rows past the budget
                buf = np.empty(per_term, complex)
            for a in range(0, len(J), step):
                ks = slice(a, min(a + step, len(J)))
                W = buf[:(ks.stop - a) * per_term].reshape(-1, len(E), n)
                np.multiply(J[ks], E, out=W[..., :h])
                W[..., h:] = W[..., n - h:0:-1]  # angle index l -> n - l, odd or even n
                yield rows, ks, np.fft.fft(W, axis=-1, out=W)
            del J, E  # free this block's Bessel stack before the next one is built

    return T, s, ffts()


def _real_matmul(T: np.ndarray, X: np.ndarray) -> np.ndarray:
    """T @ X for a real T and an X, real or complex, whose rows are contiguous, in BLAS blocks.

    A complex X is taken as its real view, two columns per value. The
    product is one ``np.matmul`` per block of at most _BLAS_BLOCK
    multiply-adds, each written into its part of one output array: blocks
    of columns of X, and of rows of T too where m k alone passes
    _BLAS_BLOCK (k is not split; here it is at most a grid's radii, a term
    count or a block's points). OpenBLAS runs a product of that size on one
    thread. The four products of a 200x256 round trip, with two OpenBLAS
    threads and other work between calls, took 8.5 / 8.8 / 11.3 ms
    (median / p90 / max of 400) in einsum's own loop, 0.75 / 0.81 / 107 ms
    as one BLAS call each, and 1.8 / 1.9 / 2.8 ms in blocks, at a process
    CPU/wall of 1.0.
    """
    Xf = X.view(float) if np.iscomplexobj(X) else X
    (m, k), n = T.shape, Xf.shape[1]
    out = np.empty((m, n))
    rows = max(1, min(m, _BLAS_BLOCK // k))
    cols = max(1, _BLAS_BLOCK // (rows * k))
    for i in range(0, m, rows):
        for j in range(0, n, cols):
            np.matmul(T[i:i + rows], Xf[:, j:j + cols], out=out[i:i + rows, j:j + cols])
    return out.view(complex) if Xf is not X else out


def _tail_holds(x: np.ndarray, tol: float) -> bool:
    """Whether the last max(1, len(x) // 20) entries of x hold more than tol of its sum."""
    tail = max(1, len(x) // 20)
    return np.sum(x[-tail:]) > tol * np.sum(x)


def _check_support(f: SampledField) -> None:
    if _tail_holds(np.sum(np.abs(f.values) * f.weights, axis=1), 1e-6):
        raise SupportOverflow(
            "field mass near the grid boundary exceeds 1e-6 of the total; "
            "increase R or shrink the input's support"
        )


def _lambda_weights(lams: np.ndarray) -> np.ndarray:
    """Trapezoid weights on the grid's own spacing (a single node gets 0)."""
    w = np.full(len(lams), _lambda_step(lams))
    w[[0, -1]] *= 0.5
    return w


def _weighted_rows(f: SampledField, I) -> np.ndarray:
    """The weighted field w_j f_j at the grid radii, or (I^T diag w) f at the nodes of I.

    Folding the row weights into I projects f without forming the weighted
    field on the grid.
    """
    w = f.grid.row_weights
    if I is None:
        return np.multiply(f.values, w[:, None], dtype=complex)
    return _real_matmul(I.T * w, np.ascontiguousarray(f.values, dtype=complex))


def forward(f: SampledField) -> SpectralField:
    """Helgason-Fourier transform: integral of e_{-lambda,b} f over the disk.

    Evaluated at every (lambda, b) node, lambda in [0, LAMBDA_MAX] by LAMBDA_STEP;
    the angle/b structure is circulant, so each lambda row is one FFT convolution.
    The kernel rows are built at the radial nodes (``_radial_nodes``), onto
    which the weighted field is projected first.
    """
    _check_support(f)
    grid = f.grid
    lams = np.arange(0.0, LAMBDA_MAX + LAMBDA_STEP / 2.0, LAMBDA_STEP)
    t, I, _ = _radial_nodes(grid.radii_t, float(lams[-1]))
    conj_a = _weighted_rows(f, I)
    np.conj(np.fft.fft(conj_a, axis=1, out=conj_a), out=conj_a)
    T, s, chunks = _even_row_ffts(t, grid.n_theta, lams)
    # row k of P: the sum over radii of conj(A) times the FFT of kernel row k;
    # forward correlates with e_{-lambda,1} = conj(e_{lambda,1}), so out = conj(T s P)
    P = np.zeros((len(s), grid.n_theta), complex)
    for rows, ks, FW in chunks:
        P[ks] += np.einsum("jl,kjl->kl", conj_a[rows], FW)
    del FW  # a view of the chunk buffer
    out = _real_matmul(T, s[:, None] * P)
    np.conj(out, out=out)
    return SpectralField(lams, np.fft.ifft(out, axis=1, out=out), grid)


def forward_at(f: SampledField, lams: np.ndarray, b: BoundaryPoint) -> np.ndarray:
    """Transform values at the lambda nodes lams, in any order and spacing, toward b."""
    _check_support(f)
    lams = np.asarray(lams, float)
    if not np.isfinite(lams).all():
        raise ValueError(f"lambda must be finite, got {lams[~np.isfinite(lams)][0]}")
    # the value at lam is sum_p e^{(-i lam + rho) B_p} g_p, g the weighted field: with
    # mu = |lam| that is conj(sum_p e^{(i mu + rho) B_p} conj(g_p)) for lam >= 0 and
    # sum_p e^{(i mu + rho) B_p} g_p for lam < 0, so one kernel over the |lam| serves
    # both signs, and a list symmetric about 0 takes the terms of half its width. The
    # kernel is built at the radial nodes, and g projected onto them (``_radial_nodes``)
    mu = np.abs(lams)
    offsets = _angle_offsets(f.grid.n_theta, b.theta, f.grid.n_theta)
    t, I, _ = _radial_nodes(f.grid.radii_t, float(np.max(mu, initial=0.0)))
    weighted = _weighted_rows(f, I)
    T, s, blocks = _busemann_kernel(t, offsets, mu)
    # V[k] = sum over the block's points p of J_k(c B_p) (w_p, v_p), w = E conj(g) and
    # v = E g, formed a block at a time: one real (K x P) by (P x 4) product, never
    # forming J E, on the real and imaginary parts of w and v as the columns of a
    # (P x 4) array
    V = np.zeros((len(s), 4))
    for rows, J, E in blocks:
        g = weighted[rows].ravel()
        E = E.ravel()
        w, v = E * np.conj(g), E * g
        V[:len(J)] += _real_matmul(J.reshape(len(J), -1),
                                   np.stack((w.real, w.imag, v.real, v.imag), axis=1))
        del J, E, w, v  # free this block's Bessel stack before the next one is built
    out = _real_matmul(T, s[:, None] * V.view(complex))
    return np.where(lams >= 0.0, np.conj(out[:, 0]), out[:, 1])


def inverse(F: SpectralField) -> SampledField:
    """Inversion with Plancherel weight; lambda over [0, Lambda] (see module doc).

    The kernel rows are built at the radial nodes (``_radial_nodes``), and
    the sum there is interpolated back to the grid radii before the IFFT.
    """
    dens = plancherel_density(F.lambda_grid)
    if _tail_holds(dens * np.sum(np.abs(F.values) ** 2, axis=1), 1e-3):
        raise SpectralTruncation(
            "spectral energy has not decayed at the lambda boundary; forward stops at "
            f"the fixed band edge transform.LAMBDA_MAX = {LAMBDA_MAX:g}"
        )
    grid = F.grid
    wl = _lambda_weights(F.lambda_grid)
    db = 1.0 / grid.n_theta
    # inverse is linear: fold the lambda rows onto the K kernel rows,
    # G = s T^T FF, sum the kernel products over those rows, then one IFFT
    FF = np.fft.fft(F.values, axis=1)
    FF *= (dens * wl * db)[:, None]
    t, I, _ = _radial_nodes(grid.radii_t, float(np.max(np.abs(F.lambda_grid))))
    T, s, chunks = _even_row_ffts(t, grid.n_theta, F.lambda_grid)
    G = s[:, None] * _real_matmul(T.T, FF)
    del FF
    acc = np.zeros((len(t), grid.n_theta), complex)
    for rows, ks, FW in chunks:
        acc[rows] += np.einsum("kjl,kl->jl", FW, G[ks])
    del FW  # a view of the chunk buffer
    if I is not None:
        acc = _real_matmul(I, acc)
    return SampledField(grid, np.fft.ifft(acc, axis=1, out=acc))


def _radial_profile(f: SampledField) -> np.ndarray:
    prof = np.mean(f.values, axis=1)
    scale = np.max(np.abs(f.values)) or 1.0
    if np.max(np.abs(f.values - prof[:, None])) > 1e-8 * scale:
        raise NotRadial("field is not K-invariant within 1e-8")
    return prof


def spherical_transform(f: SampledField, lams: np.ndarray) -> np.ndarray:
    """K-invariant transform: 2 pi int f(t) phi_{-lambda}(t) sinh(t) dt, on row_weights."""
    prof = _radial_profile(f)
    phis = spherical_radial_profile(lams, f.grid.radii_t)
    return _real_matmul(phis, (prof * f.grid.row_weights * f.grid.n_theta)[:, None])[:, 0]


def plancherel_spectral(ftilde: np.ndarray, lams: np.ndarray) -> float:
    """(1/w) int_{-L}^{L} |ftilde|^2 density dlam, by evenness = int_0^L."""
    wl = _lambda_weights(np.asarray(lams, float))
    return float(np.sum(wl * plancherel_density(lams) * np.abs(ftilde) ** 2))


@functools.cache
def _cc_weights(n: int) -> np.ndarray:
    """Weights, summing to 2, of the (n + 1)-point Clenshaw-Curtis rule at cos(pi j / n), n even.

    One inverse FFT of the even T_k's moments 2 / (1 - k^2) (J. Waldvogel, BIT 46, 2006).
    """
    w = np.fft.irfft(2.0 / (1.0 - np.arange(0.0, n + 1, 2) ** 2), n)[np.arange(n + 1) % n]
    w[[0, -1]] *= 0.5
    w.setflags(write=False)
    return w


# the levels of the line rule for functions that a caller passes in, read at each call
_HOROCYCLE_TOL = 1e-9
_HOROCYCLE_MAX_HALVINGS = 11


def _tapered_line(values: Callable[[np.ndarray], np.ndarray], taper: TaperSpec, what: str):
    """Integral of taper(s) * values(s) over the taper's support [-S, S].

    values maps arc lengths s to values with s on the last axis. Its peak is
    not known, so 64 equal panels are read at 33, 65, 129, ... Clenshaw-Curtis
    points (``_cc_weights``), the nested fractions of ``_nested_levels``, until
    two levels differ by less than _HOROCYCLE_TOL (max-abs). A level that is
    not finite raises QuadratureUnderResolved, and so does the budget: m
    integrals at once stop before the level k >= 2 with m 2^k >
    2^_HOROCYCLE_MAX_HALVINGS, but always compare levels 0 and 1. Level k leaves
    no gap wider than 0.0016 S / 2^k (0.22 / 2^k at WIDE_TAPER); a much
    narrower feature can go unseen by the first two levels.
    """
    S, T = taper.support_radius, math.inf

    def integrand(q: np.ndarray) -> np.ndarray:
        r = np.fmod(64.0 * q, 1.0)  # q's fraction of its panel; s takes it to the CC point
        s = S * (2.0 * q - 1.0) + S / 32.0 * (0.5 - 0.5 * np.cos(np.pi * r) - r)
        return np.ascontiguousarray(np.moveaxis(values(s) * taper(s), -1, 0))

    for k, (q, y) in enumerate(_nested_levels(integrand, 2048, 2048 << _HOROCYCLE_MAX_HALVINGS)):
        n, w = 32 << k, _cc_weights(32 << k)
        by_j = np.sum(y[:-1].reshape((64, n) + y.shape[1:]), axis=0)  # point j < n, all panels
        T, last = S / 64.0 * (w[:-1] @ by_j + w[-1] * np.sum(y[n::n], axis=0)), T
        if not np.all(np.isfinite(T)):
            raise QuadratureUnderResolved(f"{what} is not finite on {len(q)} nodes")
        change = float(np.max(np.abs(T - last), initial=0.0))
        if change < _HOROCYCLE_TOL:
            return T
        if k and np.size(T) * 2 ** (k + 1) > 2 ** _HOROCYCLE_MAX_HALVINGS:
            break
    raise QuadratureUnderResolved(
        f"{what} did not settle below {_HOROCYCLE_TOL:g} after {k} halvings "
        f"(last change {change:.2e})")


def _horocycle_line(fn: FieldFunction, theta: float, level, taper: TaperSpec, what: str):
    """``_tapered_line`` of fn along the horocycle toward e^{i theta} at a Busemann level.

    level is a scalar, or a column of levels, one integral per row.
    """
    def values(s: np.ndarray) -> np.ndarray:
        return np.asarray(fn(horocycle_points_array(theta, level, s)), complex)

    return _tapered_line(values, taper, what)


def horocycle_integral(fn: FieldFunction, h: Horocycle, taper: TaperSpec) -> complex:
    """Tapered line integral of fn along the horocycle, by arc length (``_horocycle_line``).

    fn must accept an ndarray of complex disk coordinates.
    """
    return complex(_horocycle_line(fn, h.direction.theta, h.busemann_value, taper,
                                   "horocycle integral"))


WIDE_TAPER = TaperSpec("gaussian", 20.0)


def coarea_profile(psi: FieldFunction, b0: BoundaryPoint, x: DiskPoint,
                   u_grid: np.ndarray) -> np.ndarray:
    """Level-set profile of psi along the horocycle foliation toward b0.

    Psi(u) = e^{rho u} * integral of psi, tapered by WIDE_TAPER, over the
    horocycle at Busemann value busemann(x, b0) - u; psi takes every
    level's nodes at once, in an array of shape (len(u_grid), nodes)
    (``_horocycle_line`` on the column of levels).
    """
    u = np.asarray(u_grid, float)
    levels = (busemann(x, b0) - u)[:, None]
    return np.exp(RHO * u) * _horocycle_line(psi, b0.theta, levels, WIDE_TAPER, "coarea profile")


def lemma_check(psi: FieldFunction, b0: BoundaryPoint,
                x: DiskPoint) -> tuple[complex, complex]:
    """Weak test of the horocycle-Dirac transform identity.

    lhs: (1/2pi) int_{-L}^{L} e_{lambda,b0}(x) psi_hat(lambda, b0) dlambda,
    L = LAMBDA_MAX in steps of LAMBDA_STEP, with psi_hat from the forward
    transform of psi sampled on DEFAULT_GRID.
    rhs: wide-tapered integral of psi over the horocycle through x toward b0,
    in the Haar measure of N: at Busemann level beta = <x, b0> that is
    e^{2 rho beta} times arc length, as N moves the half-plane line
    w = e^beta (s + i) by w -> w + u. The two sides agree at every x.
    """
    f = SampledField.from_function(psi, DEFAULT_GRID)
    lams = np.arange(-LAMBDA_MAX, LAMBDA_MAX + LAMBDA_STEP / 2.0, LAMBDA_STEP)
    psi_hat = forward_at(f, lams, b0)
    beta_x = busemann(x, b0)
    wave = np.exp((1j * lams + RHO) * beta_x)
    lhs = complex(_lambda_weights(lams) @ (wave * psi_hat) / (2.0 * np.pi))
    line = horocycle_integral(psi, Horocycle(b0, beta_x), WIDE_TAPER)
    return lhs, math.exp(2.0 * RHO * beta_x) * line


def _relative_l2(g: SampledField, f: SampledField) -> float:
    """||g - f|| / ||f|| in the hyperbolic-area L2 norm of f's grid."""
    return math.sqrt(float(np.sum(f.weights * np.abs(g.values - f.values) ** 2)) / f.norm2())


def calibrate_plancherel_kappa() -> float:
    """kappa refitted from a round trip on DEFAULT_GRID, as a check of PLANCHEREL_KAPPA.

    The input exp(-1.25 d(0,z)^2) is narrow enough to clear the default R's support check.
    """
    f0 = SampledField.from_function(gaussian_bump(1.25), DEFAULT_GRID)
    return _kappa_fit(f0, inverse(forward(f0)))


def _kappa_fit(f0: SampledField, g: SampledField) -> float:
    """PLANCHEREL_KAPPA times the a minimizing ||a g - f0||_{L2}, g = inverse(forward(f0))."""
    w = f0.weights
    num = float(np.sum(w * np.conj(g.values) * f0.values).real)
    den = float(np.sum(w * np.abs(g.values) ** 2))
    return PLANCHEREL_KAPPA * num / den
