"""Reference values of the tapered horocycle line integrals of phi_lambda, from mpmath alone.

    python tests/make_moire_refs.py [OUT]

Writes OUT (default tests/data/moire_refs.json, which ``test_moire`` reads).
Each entry is the single-lambda line integral

    int theta(s) phi_lambda(d(y(s), x)) ds

along the zero horocycle y(s) = s + i of b0 at infinity in the half-plane,
at x = e^beta (a + i), for the taper theta of the given kind and width sigma:
the Gaussian exp(-s^2 / (2 sigma^2)) on all of R (cut at 12 sigma, where it
is below 1e-31), the raised cosine cos^2(pi s / (2 sigma)) and the indicator,
both on [-sigma, sigma]. Nothing here comes from horowave: with
c = e^beta a, cosh d = 1 + ((s - c)^2 + (1 - e^beta)^2) / (2 e^beta), so

    phi_lambda(d) = 2F1(1/2 - i lambda, 1/2 + i lambda; 1; (1 - cosh d) / 2)

is taken from mpmath's ``hyp2f1`` at -((s - c)^2 + (1 - e^beta)^2) / (4 e^beta),
and mpmath's ``quad`` (tanh-sinh, at _DPS digits) integrates it between split
points at c +- 2^k and at the multiples of sigma. The file records each
entry's quadrature error estimate, the run time and the mpmath version.
"""
import json
import pathlib
import sys
import time

import mpmath as mp

_DPS = 20
_OUT = pathlib.Path(__file__).parent / "data" / "moire_refs.json"
# x at beta = <x, b0> on and off the zero horocycle, each at its own arc position a
_POINTS = ((0.0, 0.0), (0.85, 0.5), (-0.85, -1.5))
_CASES = [(lam, beta, a, kind, sigma)
          for lam in (0.5, 2.0, 7.5) for beta, a in _POINTS
          for kind in ("gaussian", "cosine", "hard") for sigma in (4.0, 12.0, 96.0)]
_CASES.append((2.0, 0.0, 0.0, "gaussian", 1e16))


def line_integral(lam: float, beta: float, a: float, kind: str, sigma: float):
    """(value, error estimate) of one tapered line integral."""
    lam, eb, sig = mp.mpf(lam), mp.exp(beta), mp.mpf(sigma)
    c, gap = eb * a, (1 - eb) ** 2
    if kind == "gaussian":
        end = 12 * sig
        taper = lambda s: mp.exp(-s * s / (2 * sig * sig))
    else:
        end = sig
        taper = ((lambda s: mp.cos(mp.pi * s / (2 * sig)) ** 2) if kind == "cosine"
                 else (lambda s: mp.mpf(1)))

    def integrand(s):
        z = -((s - c) ** 2 + gap) / (4 * eb)
        return taper(s) * mp.re(mp.hyp2f1(0.5 - 1j * lam, 0.5 + 1j * lam, 1, z))

    points = {-end, end, c}
    points.update(c + sign * mp.mpf(2) ** k for k in range(200) for sign in (-1, 1)
                  if mp.mpf(2) ** k < end + abs(c))
    points.update(j * sig for j in range(-12, 13))
    points = sorted(p for p in points if -end <= p <= end)
    value, err = mp.quad(integrand, points, error=True)
    return float(value), float(err)


def main(argv: list[str]) -> int:
    out = pathlib.Path(argv[0]) if argv else _OUT
    mp.mp.dps = _DPS
    start = time.perf_counter()
    entries = []
    for lam, beta, a, kind, sigma in _CASES:
        value, err = line_integral(lam, beta, a, kind, sigma)
        entries.append({"lam": lam, "beta": beta, "a": a, "kind": kind, "sigma": sigma,
                        "value": value, "quad_error": err})
        print(f"lam {lam} beta {beta} a {a} {kind} sigma {sigma:g}: {value!r} "
              f"(error {err:.1e})", flush=True)
    run = {"mpmath": mp.__version__, "dps": _DPS,
           "run_seconds": round(time.perf_counter() - start, 1), "entries": entries}
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(run, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
