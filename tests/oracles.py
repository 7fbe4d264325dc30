"""Independent reference computations used to pin down expected values.

Everything here is deliberately built on a different integral
representation (or a different library routine) than the implementation
under test.
"""
import mpmath
import numpy as np
from scipy.fft import dct
from scipy.integrate import quad
from scipy.special import j0, jv

from horowave.geometry import distance_array, horocycle_points_array
from horowave.transform import _tapered_line
from horowave.waves import spherical_radial_profile


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


def hyperbolic_distance(z: complex, w: complex) -> float:
    """d(z, w) = arccosh(1 + 2|z - w|^2 / ((1 - |z|^2)(1 - |w|^2))) in mpmath.

    z and w are taken as exact and the argument is formed at 40 digits, so
    distances down to 1e-12 keep their digits past the 1 + ... rounding.
    """
    with mpmath.workdps(40):
        z, w = mpmath.mpc(z), mpmath.mpc(w)
        den = (1 - abs(z) ** 2) * (1 - abs(w) ** 2)
        return float(mpmath.acosh(1 + 2 * abs(z - w) ** 2 / den))


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


def line_integrals_per_node(lams, b0, x, taper, weights) -> list[float]:
    """Tapered integrals of sum_i w[i] phi_{lams[i]}(d(y(s), x)) along the zero horocycle.

    One integral per row w of the 2-D weights, each by the same tapered
    line rule as ``moire._line_integrals`` (``transform._tapered_line``),
    but with the radial kernel called at every node of every level instead
    of a Chebyshev table of phi. The rows share each level's kernel values.
    """
    xz = np.asarray(x.z)
    profiles = {}

    def profile(s):
        key = (s[0], len(s))
        if key not in profiles:
            d = distance_array(horocycle_points_array(b0.theta, 0.0, s), xz)
            profiles[key] = spherical_radial_profile(lams, d)
        return profiles[key]

    return [_tapered_line(lambda s: w @ profile(s), taper, "per-node horocycle line integrals")
            for w in np.asarray(weights, float)]


def line_moire_loop(lam: float, n: int, spacing: float, q: np.ndarray,
                    m: int = 256) -> np.ndarray:
    """Average of n J0 rings on the y-axis, one m-node circle average per center."""
    centers = spacing * (np.arange(1, n + 1) - (n + 1) / 2.0)
    u = 2.0 * np.pi * np.arange(m) / m
    k = 2.0 * np.pi / lam
    out = np.zeros(np.shape(q), complex)
    for c in centers:
        dq = np.asarray(q) - 1j * c
        phase = k * (np.cos(u) * dq.real[..., None] + np.sin(u) * dq.imag[..., None])
        out = out + np.mean(np.exp(1j * phase), axis=-1)
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


def direct_transforms(f, forward_lams, inverse_args, kappa: float):
    """Forward rows and inversions from one kernel per distinct lambda, each by its own np.exp.

    Each distinct lambda of the lists in forward_lams and inverse_args gets
    its kernel fft(exp((i lambda + 1/2) B)) along the angle once, B from
    ``polar_bracket``, and that kernel serves every row and every inversion
    term at that lambda.
    Forward: for each lambda grid of forward_lams, row i is the circular
    correlation over the angle index of f's weighted samples with
    e_{-lambda_i, 1}. Inverse: for each (lams, values) of inverse_args, the
    Plancherel-weighted inversion over [lams[0], lams[-1]], trapezoid
    weights in lambda on the grid's first step and density
    kappa * lambda * tanh(pi lambda), on f's grid. Returns the list of
    forward arrays and the list of inverse arrays.
    """
    grid = f.grid
    B = polar_bracket(grid, 0.0)
    A = np.fft.fft(f.values * grid.row_weights[:, None], axis=1)
    rows = [np.empty((len(lams), grid.n_theta), complex) for lams in forward_lams]
    terms = []
    for lams, values in inverse_args:
        wl = np.full(len(lams), lams[1] - lams[0] if len(lams) > 1 else 0.0)
        wl[[0, -1]] *= 0.5
        scale = kappa * lams * np.tanh(np.pi * lams) * wl / grid.n_theta
        terms.append((lams, scale[:, None] * np.fft.fft(values, axis=1),
                      np.zeros((grid.n_r, grid.n_theta), complex)))
    for lam in np.unique(np.concatenate([*forward_lams, *(l for l, _ in inverse_args)])):
        K = np.fft.fft(np.exp((1j * lam + 0.5) * B), axis=1)
        for lams, out in zip(forward_lams, rows):
            out[lams == lam] = np.sum(A * np.conj(K), axis=0)
        for lams, FF, acc in terms:
            for i in np.flatnonzero(lams == lam):
                acc += K * FF[i]
    return ([np.fft.ifft(out, axis=1) for out in rows],
            [np.fft.ifft(acc, axis=1) for _, _, acc in terms])


def polar_bracket(grid, beta: float, t=None) -> np.ndarray:
    """Busemann bracket toward e^{i beta} at every node of a polar grid, from (t, angle).

    -log(cosh t - sinh t cos(a - beta)) at the nominal angles a = 2 pi m / n,
    m the angle index taken in [-n/2, n/2), so that angles near 2 pi keep
    their digits as small negative ones, with the argument written as
    e^{-t} + 2 sinh t sin^2((a - beta)/2), which does not cancel near
    a = beta. Unlike ``busemann_array`` on the Cartesian nodes, it does not
    lose the digits of 1 - |z|^2 at large t. The radii are the grid's, or t.
    """
    n = grid.n_theta
    t = (grid.radii_t if t is None else np.asarray(t))[:, None]
    half = np.pi * ((np.arange(n) + n // 2) % n - n // 2) / n - 0.5 * beta
    return -np.log(np.exp(-t) + 2.0 * np.sinh(t) * np.sin(half) ** 2)


def kernel_row_ffts_full(grid, t, lams, K: int) -> np.ndarray:
    """Angular FFTs of K kernel rows of ``forward`` and ``inverse``, built at every angle.

    The Jacobi-Anger rows J_k(c B) e^{(i mid + rho) B}, k < K, at the radii
    t and every angle of ``polar_bracket(grid, 0, t)``, with lambda = mid + c x
    mapping [min lams, max lams] onto x in [-1, 1] and J_k from scipy's jv,
    transformed by np.fft.fft without using that the rows are even in the
    angle index. Returns an array of shape (K, len(t), n_theta).
    """
    lo, hi = np.min(lams), np.max(lams)
    mid, c = 0.5 * (hi + lo), 0.5 * (hi - lo)
    B = polar_bracket(grid, 0.0, t)
    J = jv(np.arange(K)[:, None, None], c * B)
    return np.fft.fft(J * np.exp((1j * mid + 0.5) * B), axis=-1)


def direct_forward_at(f, lams: np.ndarray, theta: float) -> np.ndarray:
    """Transform values toward the boundary angle theta, one exp per lambda."""
    B = polar_bracket(f.grid, theta)
    g = f.values * f.weights
    return np.array([np.sum(np.exp((-1j * lam + 0.5) * B) * g) for lam in lams])


def phi_table_full_nodes(lams, dmax: float) -> np.ndarray:
    """``moire._phi_table`` from the values at all n + 1 Chebyshev points in u, in one call.

    scipy's DCT-I of phi_lambda at d = dmax cos(pi j / 2n), j = 0..n, the
    points u = cos(pi j / n) of u = 2 (d/dmax)^2 - 1, evaluated afresh at
    every level; n doubles from 16 until the top quarter of the
    coefficients is below 1e-14, and the trailing rows whose column-max
    |c_k| sum to at most 1e-14 are dropped.
    """
    n = 16
    while n <= 2048:
        d = dmax * np.cos(np.pi * np.arange(n + 1) / (2 * n))
        coef = dct(spherical_radial_profile(lams, d), type=1).T / n
        coef[[0, -1]] *= 0.5
        if np.max(np.abs(coef[-n // 4:])) < 1e-14:
            colmax = np.max(np.abs(coef), axis=1)
            keep = len(coef)
            while np.sum(colmax[keep - 1:]) <= 1e-14:
                keep -= 1
            return coef[:keep]
        n *= 2
    raise RuntimeError("full-node phi table did not settle at degree 2048 in u")


def harish_chandra_c(lam: float) -> complex:
    """c(lambda) = Gamma(i lambda) / (sqrt(pi) Gamma(1/2 + i lambda)) in mpmath.

    The closed form for the hyperbolic plane, rho = 1/2 (Helgason, Groups and
    Geometric Analysis, ch. IV).
    """
    with mpmath.workdps(30):
        il = mpmath.mpc(0, lam)
        return complex(mpmath.gamma(il) / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(0.5 + il)))


def busemann_polar(beta: float, t: float, a: float) -> float:
    """Busemann bracket toward e^{i beta} at z = tanh(t/2) e^{i a}, in mpmath.

    It is -log(cosh t - sinh t cos(a - beta)), with t, a and beta taken as
    exact. The difference cancels up to 2t / log(10) digits, so the working
    precision is 40 digits more than t.
    """
    with mpmath.workdps(40 + int(t)):
        t, phi = mpmath.mpf(t), mpmath.mpf(a) - mpmath.mpf(beta)
        return -mpmath.log(mpmath.cosh(t) - mpmath.sinh(t) * mpmath.cos(phi))


def wave_polar(lam: float, beta: float, t: float, a: float) -> complex:
    """e_{lambda, e^{i beta}} at z = tanh(t/2) e^{i a}, from ``busemann_polar``."""
    with mpmath.workdps(40):
        B = busemann_polar(beta, t, a)
        return complex(mpmath.exp(mpmath.mpc(0.5, lam) * B))
