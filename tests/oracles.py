"""Independent reference computations used to pin down expected values.

Everything here is deliberately built on a different integral
representation (or a different library routine) than the implementation
under test.
"""
import mpmath
import numpy as np
from scipy.integrate import quad
from scipy.special import j0

from horowave.euclid import bessel_wave_array
from horowave.geometry import busemann_array, distance_array, horocycle_points_array
from horowave.waves import _trapezoid_halving, spherical_radial_profile


def legendre_spherical(lam: float, d: float) -> float:
    """Spherical function via the Legendre-type boundary integral.

    (1/pi) * int_0^pi (cosh d - sinh d cos u)^(-(1/2 + i lam)) du,
    evaluated through its (real) cosine form.
    """
    if d == 0.0:
        return 1.0

    def integrand(u):
        L = np.log(np.cosh(d) - np.sinh(d) * np.cos(u))
        return np.exp(-0.5 * L) * np.cos(lam * L)

    val, _ = quad(integrand, 0.0, np.pi, limit=400)
    return val / np.pi


def conical_spherical(lam: float, d: float) -> float:
    """phi_lambda(d) as the conical function P_{-1/2+i lam}(cosh d), in mpmath.

    cosh d is formed at 40 digits, so distances far below the float64
    resolution of cosh d near 1 stay distinct from 0.
    """
    with mpmath.workdps(40):
        z = mpmath.cosh(mpmath.mpf(d))
        return float(mpmath.re(mpmath.legenp(mpmath.mpc(-0.5, lam), 0, z, type=3)))


def boundary_moire_sum(lam: float, z: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(1/n) sum_c phi_lambda(d(z, c)) through the addition formula.

    phi_lambda(d(x, y)) = int_B e_{lambda,b}(x) e_{-lambda,b}(y) db, so the
    center sum is the boundary mean of e_{lambda,b}(z) against
    S(b) = (1/n) sum_c e_{-lambda,b}(c). The periodic trapezoid in b
    doubles its node count from 256 until the result moves by less than
    1e-14; the node count it needs grows like e^{d(0, z) + d(0, c)}.
    """
    z = np.asarray(z, complex).ravel()
    centers = np.asarray(centers, complex).ravel()

    def bracket(w, beta):
        b = np.exp(1j * beta)[None, :]
        return np.log((1.0 - np.abs(w[:, None]) ** 2) / np.abs(w[:, None] - b) ** 2)

    prev, m = None, 256
    while m <= 1 << 16:
        beta = 2.0 * np.pi * np.arange(m) / m
        S = np.mean(np.exp((0.5 - 1j * lam) * bracket(centers, beta)), axis=0)
        val = np.exp((0.5 + 1j * lam) * bracket(z, beta)) @ S / m
        if prev is not None and np.max(np.abs(val - prev)) < 1e-14:
            return val
        prev, m = val, 2 * m
    raise RuntimeError("boundary trapezoid did not settle with 65536 nodes")


def kernel_moire_sum(lam: float, z: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(1/n) sum_c phi_lambda(d(z, c)), one radial kernel call per center."""
    z = np.asarray(z, complex).ravel()
    acc = np.zeros(z.shape)
    for c in np.asarray(centers, complex).ravel():
        acc += spherical_radial_profile([lam], distance_array(z, np.asarray(c)))[0]
    return acc / len(centers)


def line_integrals_per_node(lams, b0, x, taper, tol: float = 1e-7,
                            n_start: int = 2048, max_halvings: int = 8) -> np.ndarray:
    """Tapered integrals of phi_lambda(d(y(s), x)) along the zero horocycle of b0.

    The same halving trapezoid as ``moire._line_integrals_multi``, but with
    the radial kernel called at every node of every level instead of a
    Chebyshev table of phi.
    """
    S = taper.support_radius
    xz = np.asarray(x.z)

    def values(s):
        d = distance_array(horocycle_points_array(b0.theta, 0.0, s), xz)
        return taper(s)[None, :] * spherical_radial_profile(lams, d)

    return _trapezoid_halving(values, -S, S, n_start, tol, max_halvings,
                              "per-node horocycle line integrals")


def line_moire_loop(lam: float, n: int, spacing: float, q: np.ndarray,
                    m: int = 256) -> np.ndarray:
    """Average of n J0 rings on the y-axis, one circle average per center."""
    centers = spacing * (np.arange(1, n + 1) - (n + 1) / 2.0)
    out = np.zeros(np.shape(q), complex)
    for c in centers:
        out = out + bessel_wave_array(lam, 1j * c, q, m=m)
    return out / n


def field_csv_rows(xy: np.ndarray, values: np.ndarray, footer: dict) -> bytes:
    """A field CSV written one f-string row at a time (x, y, re, im at %.12g)."""
    lines = ["x,y,re,im"]
    for p, v in zip(xy.ravel(), values.ravel()):
        lines.append(f"{p.real:.12g},{p.imag:.12g},{v.real:.12g},{v.imag:.12g}")
    for key, val in footer.items():
        lines.append(f"# {key}={val}")
    return ("\n".join(lines) + "\n").encode()


def bessel_j0(x):
    """Reference J0 from scipy.special."""
    return j0(x)


def gaussian_taper_mass(width: float) -> float:
    """Exact integral of exp(-s^2 / (2 width^2)) over the real line."""
    return width * np.sqrt(2.0 * np.pi)


def horocycle_bump_integral(coeff: float, taper_width: float) -> float:
    """Tapered integral of exp(-coeff * d(0, y(s))^2) along the zero horocycle.

    Uses the arc-length law cosh d = 1 + s^2/2 and adaptive 1-D quadrature.
    """
    def integrand(s):
        d = np.arccosh(1.0 + 0.5 * s * s)
        return np.exp(-coeff * d * d) * np.exp(-0.5 * (s / taper_width) ** 2)

    val, _ = quad(integrand, -6.0 * taper_width, 6.0 * taper_width, limit=800)
    return val


def direct_forward(f, lams: np.ndarray) -> np.ndarray:
    """Helgason-Fourier transform on the (lams, grid angles) rectangle, one exp per lambda.

    Row i is the circular correlation over the angle index of the weighted
    samples with e_{-lambda_i, 1}, each kernel built by its own np.exp.
    """
    B = busemann_array(f.grid.z, 0.0)
    A = np.fft.fft(f.values * f.grid.row_weights[:, None], axis=1)
    out = np.empty((len(lams), f.grid.n_theta), complex)
    for i, lam in enumerate(lams):
        K = np.fft.fft(np.exp((1j * lam + 0.5) * B), axis=1)
        out[i] = np.fft.ifft(np.sum(A * np.conj(K), axis=0))
    return out


def direct_inverse(lams: np.ndarray, values: np.ndarray, grid, kappa: float) -> np.ndarray:
    """Plancherel-weighted inversion over [lams[0], lams[-1]], one exp and IFFT per lambda.

    Trapezoid weights in lambda on the grid's first step, density
    kappa * lambda * tanh(pi lambda).
    """
    B = busemann_array(grid.z, 0.0)
    h = lams[1] - lams[0] if len(lams) > 1 else 0.0
    wl = np.full(len(lams), h)
    wl[[0, -1]] *= 0.5
    dens = kappa * lams * np.tanh(np.pi * lams)
    acc = np.zeros((grid.n_r, grid.n_theta), complex)
    for i, lam in enumerate(lams):
        K = np.fft.fft(np.exp((1j * lam + 0.5) * B), axis=1)
        FF = np.fft.fft(values[i])
        acc += (dens[i] * wl[i] / grid.n_theta) * np.fft.ifft(K * FF[None, :], axis=1)
    return acc


def direct_forward_at(f, lams: np.ndarray, theta: float) -> np.ndarray:
    """Transform values toward the boundary angle theta, one exp per lambda."""
    B = busemann_array(f.grid.z, theta)
    g = f.values * f.weights
    return np.array([np.sum(np.exp((-1j * lam + 0.5) * B) * g) for lam in lams])
