"""Property suites shared by the CLI ``validate`` subcommand and the tests.

Each suite returns a list of CheckResult; everything is deterministic
(fixed RNG seeds, fixed grids) so repeated runs produce identical output.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import euclid, moire, transform
from .geometry import (
    BoundaryPoint,
    DiskPoint,
    GroupElement,
    Horocycle,
    act,
    busemann,
    distance_array,
    geodesic_distance,
    horocycle_coordinates,
    horocycle_point,
    horocycle_through,
    iwasawa,
    origin_distance,
)
from .tapers import TaperSpec
from .transform import (
    SampledField,
    _bessel_stack,
    _kernel_terms,
    _relative_l2,
    calibrate_plancherel_kappa,
    coarea_profile,
    forward,
    gaussian_bump,
    horocycle_integral,
    inverse,
    lemma_check,
    plancherel_spectral,
    spherical_transform,
)
from .waves import (
    PLANCHEREL_KAPPA,
    harish_chandra_c,
    helgason_wave_array,
    spherical,
    spherical_radial,
)

__all__ = ["CheckResult", "SUITES", "run_suites"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def _check(name: str, value: float, tol: float) -> CheckResult:
    return CheckResult(name, value <= tol, f"{value:.3e} (tol {tol:.0e})")


def _random_group(rng: np.random.Generator) -> GroupElement:
    t = rng.uniform(-2.5, 2.5)
    phi1, phi2 = rng.uniform(0, 2 * math.pi, 2)
    return (GroupElement.rotation(phi1)
            .compose(GroupElement.translation(t))
            .compose(GroupElement.rotation(phi2)))


def suite_hypgeo() -> list[CheckResult]:
    rng = np.random.default_rng(0)
    out = []

    worst = 0.0
    for _ in range(1000):
        g = _random_group(rng)
        h = iwasawa(g).recompose()
        worst = max(worst, abs(g.alpha - h.alpha), abs(g.beta - h.beta))
    out.append(_check("iwasawa round trip (1000 elements)", worst, 1e-10))

    # k a_t k' with k' near the identity, where alpha + beta cancels for t < 0;
    # relative to |alpha| + |beta|, which reaches e^15
    near = np.random.default_rng(1)
    worst = 0.0
    for _ in range(200):
        g = (GroupElement.rotation(near.uniform(0, 2 * math.pi))
             .compose(GroupElement.translation(near.uniform(-30.0, 30.0)))
             .compose(GroupElement.rotation(10.0 ** near.uniform(-12.0, -2.0))))
        h = iwasawa(g).recompose()
        err = max(abs(g.alpha - h.alpha), abs(g.beta - h.beta))
        worst = max(worst, err / (abs(g.alpha) + abs(g.beta)))
    out.append(_check("iwasawa round trip near cancellation (200 elements)", worst, 1e-8))

    worst = 0.0
    for _ in range(200):
        g = _random_group(rng)
        z = DiskPoint(rng.uniform(0, 0.9) * np.exp(1j * rng.uniform(0, 2 * math.pi)))
        w = DiskPoint(rng.uniform(0, 0.9) * np.exp(1j * rng.uniform(0, 2 * math.pi)))
        d1 = geodesic_distance(z, w)
        d2 = geodesic_distance(act(g, z), act(g, w))
        worst = max(worst, abs(d1 - d2))
    out.append(_check("G-invariance of distance", worst, 1e-11))

    h = Horocycle(BoundaryPoint(0.7), 0.0)
    y0 = horocycle_point(h, 0.0)
    worst = 0.0
    for s in np.linspace(-6, 6, 25):
        d = geodesic_distance(y0, horocycle_point(h, float(s)))
        worst = max(worst, abs(math.cosh(d) - (1.0 + s * s / 2.0)))
    out.append(_check("horocycle arc-length law", worst, 1e-9))

    b = BoundaryPoint(1.3)
    dev = abs(busemann(DiskPoint(0.5 * b.b), b) - math.log(3.0))
    out.append(_check("radial Busemann closed form", dev, 1e-12))
    return out


def _fd_laplacian_ratio(f, z0: complex, h: float = 1e-3) -> complex:
    lap = (f(z0 + h) + f(z0 - h) + f(z0 + 1j * h) + f(z0 - 1j * h) - 4 * f(z0)) / h**2
    return ((1.0 - abs(z0) ** 2) ** 2 / 4.0) * lap / f(z0)


def suite_waves() -> list[CheckResult]:
    out = []

    worst = 0.0
    for lam in (0.0, 1.0, 2.5, 4.0):
        for d, M in ((0.5, 512), (2.0, 512), (3.5, 2048), (5.0, 8192)):
            z = DiskPoint(math.tanh(d / 2.0) * np.exp(0.4j))
            worst = max(worst, abs(spherical(lam, z, M=M) - spherical_radial(lam, d)))
    out.append(_check("boundary vs radial spherical function", worst, 1e-8))

    lams = np.linspace(0.0, 4.0, 17)
    ds = np.linspace(0.0, 5.0, 21)
    P = spherical_radial(lams[:, None], ds[None, :])
    out.append(_check("phi at origin equals 1", float(np.max(np.abs(P[:, 0] - 1.0))), 1e-12))
    out.append(_check("Weyl symmetry phi_lambda = phi_-lambda",
                      float(np.max(np.abs(P - spherical_radial(-lams[:, None], ds[None, :])))),
                      1e-12))
    out.append(_check("modulus bound |phi| <= 1", float(np.max(np.abs(P)) - 1.0), 1e-12))

    worst_sym, worst_ratio = 0.0, 0.0
    for lam in np.linspace(0.5, 4.0, 8):
        c = harish_chandra_c(float(lam))
        worst_sym = max(worst_sym, abs(harish_chandra_c(float(-lam)) - np.conj(c)))
        ratio = (1.0 / abs(c) ** 2) / (lam * math.tanh(math.pi * lam))
        worst_ratio = max(worst_ratio, abs(ratio / math.pi - 1.0))
    out.append(_check("c-function conjugation symmetry", worst_sym, 1e-6))
    out.append(_check("|c|^-2 proportional to lam tanh(pi lam)", worst_ratio, 1e-8))

    worst = 0.0
    for lam in (0.5, 1.0, 2.0, 4.0):
        target = -(lam**2 + 0.25)
        fw = lambda z: complex(helgason_wave_array(lam, 0.0, np.asarray(z)))
        fs = lambda z: complex(spherical_radial(lam, distance_array(np.asarray(z), 0j)))
        for f, z0 in ((fw, 0.3 + 0.2j), (fs, 0.25 - 0.35j)):
            worst = max(worst, abs(_fd_laplacian_ratio(f, z0) - target) / abs(target))
    out.append(_check("Laplacian eigenvalue -(lam^2 + 1/4)", worst, 1e-5))
    return out


def _mobius_to(z: np.ndarray, w: complex) -> np.ndarray:
    return (z - w) / (1.0 - np.conj(w) * z)


_BUMPS = {
    "radial": gaussian_bump(1.25),
    "offcenter": lambda z: np.exp(-1.7 * origin_distance(_mobius_to(z, 0.25)) ** 2),
    "two-lobe": lambda z: (np.exp(-1.5 * origin_distance(_mobius_to(z, 0.2j)) ** 2)
                           + 0.5 * np.exp(-2.0 * origin_distance(_mobius_to(z, -0.15)) ** 2)),
}

_LEMMA_FUNCS = {
    "radial": _BUMPS["radial"],
    "offcenter": _BUMPS["offcenter"],
    "oscillating": lambda z: _BUMPS["radial"](z) * np.cos(3.0 * origin_distance(z)),
}


def suite_hft() -> list[CheckResult]:
    out = []
    out.append(_check("kappa fit equals 1/(2 pi)",
                      abs(calibrate_plancherel_kappa() / PLANCHEREL_KAPPA - 1.0), 1e-6))

    for name, fn in _BUMPS.items():
        f = SampledField.from_function(fn, transform.DEFAULT_GRID)
        out.append(_check(f"round trip {name} bump", _relative_l2(inverse(forward(f)), f), 1e-4))

    step = transform.LAMBDA_STEP
    lams = np.arange(0.0, transform.LAMBDA_MAX + step / 2.0, step)
    for a in (1.25, 1.7, 2.2):
        f = SampledField.from_function(gaussian_bump(a), transform.DEFAULT_GRID)
        ft = spherical_transform(f, lams)
        ratio = plancherel_spectral(ft, lams) / f.norm2()
        out.append(_check(f"Plancherel isometry (width {a})", abs(ratio - 1.0), 1e-6))

    b0, x0 = BoundaryPoint(0.0), DiskPoint(0j)
    for name, psi in _LEMMA_FUNCS.items():
        lhs, rhs = lemma_check(psi, b0, x0)
        out.append(_check(f"lemma weak equality ({name})", abs(lhs - rhs) / abs(rhs), 1e-2))

    psi = _LEMMA_FUNCS["radial"]
    lhs, rhs = lemma_check(psi, b0, DiskPoint(-0.3 + 0j))  # beta = -0.62
    out.append(_check("lemma weak equality off the zero horocycle",
                      abs(lhs - rhs) / abs(rhs), 1e-2))

    prof0 = coarea_profile(psi, b0, x0, [0.0])[0]
    direct = horocycle_integral(psi, horocycle_through(b0, x0), transform.WIDE_TAPER)
    out.append(_check("coarea Psi(0) equals horocycle integral", abs(prof0 - direct), 1e-6))

    u = np.linspace(-5.0, 5.0, 161)
    prof = coarea_profile(psi, b0, x0, u)
    lam_box = np.arange(-transform.LAMBDA_MAX, transform.LAMBDA_MAX + step / 2.0, step)
    phase = np.exp(1j * lam_box[:, None] * u[None, :])
    rec = np.trapezoid(np.trapezoid(phase * prof[None, :], u, axis=1), lam_box) / (2 * np.pi)
    out.append(_check("coarea Fourier-inversion chain", abs(rec - prof0) / abs(prof0), 1e-6))
    return out


def _weak_moire_checks(centers, points) -> list[CheckResult]:
    """Per window center and point toward b0 = 1: the ``moire_weak`` error at
    sigma 12 (``moire.DEFAULT_TAPER``) within 3e-2, and below the one at sigma 4."""
    out = []
    b0 = BoundaryPoint(0.0)
    narrow = TaperSpec("gaussian", 4.0)
    for c in centers:
        win = moire.LambdaWindow(c)
        for x in points:
            lhs12, rhs = moire.moire_weak(win, b0, x)
            lhs4, _ = moire.moire_weak(win, b0, x, narrow)
            e12 = abs(lhs12 - rhs) / abs(rhs)
            e4 = abs(lhs4 - rhs) / abs(rhs)
            tag = f"window {c}, s={horocycle_coordinates(x, b0)[1]:+.1f}"
            out.append(_check(f"weak moire error at sigma 12 [{tag}]", e12, 3e-2))
            out.append(CheckResult(f"weak moire sigma monotone [{tag}]", e12 < e4,
                                   f"sigma12 {e12:.3e} < sigma4 {e4:.3e}"))
    return out


def suite_moire() -> list[CheckResult]:
    b0 = BoundaryPoint(0.0)
    zero = Horocycle(b0, 0.0)
    out = _weak_moire_checks((2.2,), (DiskPoint(0j), horocycle_point(zero, -2.5)))

    # a window negligible at lo and hi: lhs / rhs - 1 = pi / kappa_H,fit - 1
    # falls as O(sigma^-2), to 8.5e-6 at width 96
    clean = moire.LambdaWindow(2.5, lo=0.1, hi=6.0)
    lhs, rhs = moire.moire_weak(clean, b0, DiskPoint(0j), TaperSpec("gaussian", 96.0))
    out.append(_check("horocycle constant equals pi", abs(lhs / rhs - 1.0), 2e-5))

    worst = 0.0
    for xz in (0.3 + 0.2j, -0.25 + 0.4j):
        a, b = moire.reduction_paths(1.5, b0, DiskPoint(xz))
        worst = max(worst, abs(a - b))
    out.append(_check("reduction identity (two code paths)", worst, 1e-8))

    r0 = moire.moire_integral(1.5, b0, DiskPoint(0j))
    r1 = moire.moire_integral(1.5, b0, horocycle_point(zero, 1.2))
    out.append(_check("N-invariance of tapered estimator", abs(r1.approx - r0.approx), 1e-6))
    return out


def suite_euclid() -> list[CheckResult]:
    out = []
    r = np.linspace(0.01, 9.9, 60)
    bw = euclid.bessel_wave_array(1.3, 0j, r.astype(complex))
    z = 2 * np.pi * r / 1.3  # J0 by Miller's recurrence, independent of the circle average
    dev = float(np.max(np.abs(bw - _bessel_stack(z, int(_kernel_terms(z[-1:])[0]))[0])))
    out.append(_check("bessel_wave matches J0", dev, 1e-10))

    Q = np.linspace(2.0, 6.0, 81)[None, :] + 1j * np.linspace(-2.0, 2.0, 81)[:, None]
    pw = euclid.plane_wave_array((2 * np.pi, 0.0), Q)  # lambda = 1
    dists = []
    for n in (5, 15, 60):
        lm = euclid.line_moire_array(1.0, n, 0.5, Q)
        scale = np.vdot(lm, pw) / np.vdot(lm, lm)
        dists.append(float(np.sqrt(np.mean(np.abs(scale * lm - pw) ** 2))))
    ok = all(a >= b for a, b in zip(dists, dists[1:]))
    out.append(CheckResult("line moire approaches plane wave",
                           ok, "L2 dist " + " -> ".join(f"{d:.4f}" for d in dists)))
    return out


SUITES = {
    "hypgeo": suite_hypgeo,
    "waves": suite_waves,
    "hft": suite_hft,
    "moire": suite_moire,
    "euclid": suite_euclid,
}


def run_suites(names=None):
    """Run the requested suites, all by default; returns (results, all_ok).

    An unknown name raises KeyError.
    """
    results = []
    for name in names or SUITES:
        results.extend(SUITES[name]())
    return results, all(r.ok for r in results)
