"""Euclidean baseline: Bessel ring profiles and the line moire."""
import numpy as np
import pytest
from scipy.special import jv

import oracles
from horowave.euclid import (
    _kapteyn,
    PlanePoint,
    bessel_wave,
    bessel_wave_array,
    line_moire,
    line_moire_array,
    plane_wave,
    plane_wave_array,
)


def test_plane_wave_values():
    assert plane_wave((1.0, 0.0), PlanePoint(0.0, 0.0)) == pytest.approx(1.0)
    got = plane_wave((2.0, -1.0), PlanePoint(0.3, 0.7))
    assert got == pytest.approx(np.exp(1j * (2.0 * 0.3 - 0.7)), abs=1e-14)


def test_bessel_wave_is_j0_of_scaled_distance():
    lam = 1.3
    r = np.linspace(0.0, 9.9, 67)
    got = bessel_wave_array(lam, 0j, r.astype(complex))
    np.testing.assert_allclose(got, oracles.bessel_j0(2 * np.pi * r / lam),
                               atol=1e-12)
    assert np.max(np.abs(got.imag)) < 1e-14


def test_bessel_wave_center_translation():
    lam = 0.8
    q = PlanePoint(1.0, 2.0)
    a = bessel_wave(lam, PlanePoint(0.5, -0.3), q)
    b = bessel_wave(lam, PlanePoint(0.0, 0.0), PlanePoint(0.5, 2.3))
    assert a == pytest.approx(b, abs=1e-13)


def test_bessel_wave_rejects_bad_wavelength():
    """Every entry point refuses a wavelength that is not finite and positive."""
    q = np.array([1.0 + 0.5j, 3.2 - 1.1j])
    calls = (lambda lam: line_moire_array(lam, 3, 0.5, q),
             lambda lam: line_moire(lam, 3, 0.5, PlanePoint(1, 1)),
             lambda lam: bessel_wave_array(lam, 0j, q),
             lambda lam: bessel_wave(lam, PlanePoint(0, 0), PlanePoint(1, 1)))
    for lam in (0.0, np.nan, np.inf, -1.0):
        for call in calls:
            with pytest.raises(ValueError, match="wavelength"):
                call(lam)


def test_line_moire_single_center_reduces_to_bessel():
    q = np.array([1.0 + 0.5j, 3.2 - 1.1j])
    np.testing.assert_allclose(line_moire_array(1.0, 1, 0.4, q),
                               oracles.bessel_j0(2 * np.pi * np.abs(q) / 1.0), rtol=0, atol=1e-14)


@pytest.mark.parametrize("lam", [0.5, 4.0])
@pytest.mark.parametrize("n", [1, 60])
def test_line_moire_matches_per_center_loop(lam, n):
    xs = np.linspace(2.0, 6.0, 9)
    ys = np.linspace(-2.0, 2.0, 7)
    # off tensor grids too: scattered points (every coordinate distinct), and
    # points that share coordinates and repeat outright
    rng = np.random.default_rng(11)
    scattered = rng.uniform(2.0, 6.0, (7, 5)) + 1j * rng.uniform(-2.0, 2.0, (7, 5))
    repeated = rng.choice([2.0, 3.5, 5.25], (6, 4)) + 1j * rng.choice([-1.5, 0.0, 0.75], (6, 4))
    for q in (np.asarray(3.1 - 0.4j), xs + 0.3j, xs[None, :] + 1j * ys[:, None],
              scattered, repeated):
        got = line_moire_array(lam, n, 0.5, q)
        assert got.shape == q.shape
        assert np.max(np.abs(got - oracles.line_moire_loop(lam, n, 0.5, q))) <= 1e-14


def test_line_moire_validates_input():
    with pytest.raises(ValueError):
        line_moire(1.0, 0, 0.5, PlanePoint(1, 0))
    with pytest.raises(ValueError):
        line_moire(1.0, 5, -0.5, PlanePoint(1, 0))


def test_line_moire_refuses_end_centers_past_the_float_range():
    # +-1.7e308 (5 - 1) / 2 overflows; it returned all NaN, with overflow warnings
    with pytest.raises(ValueError, match="finite end centers"):
        line_moire_array(1.0, 5, 1.7e308, np.array([3.0 + 0.5j, 4.0 - 1.0j]))


@pytest.mark.parametrize("x, y", [(np.nan, 0.0), (0.0, np.inf), (-np.inf, 1.0)])
def test_plane_point_refuses_non_finite_coordinates(x, y):
    with pytest.raises(ValueError) as exc:
        PlanePoint(x, y)
    assert str(exc.value) == "PlanePoint requires finite coordinates"


def test_line_moire_mirror_symmetry():
    q = np.array([2.0 + 0.7j, 2.0 - 0.7j])
    vals = line_moire_array(1.0, 6, 0.5, q)
    assert abs(vals[0] - vals[1]) < 1e-14


def test_line_moire_approaches_plane_wave():
    lam = 1.0
    xs = np.linspace(2.0, 6.0, 81)
    ys = np.linspace(-2.0, 2.0, 81)
    Q = xs[None, :] + 1j * ys[:, None]
    pw = plane_wave_array((2 * np.pi / lam, 0.0), Q)
    dists = []
    for n in (5, 15, 60):
        lm = line_moire_array(lam, n, 0.5, Q)
        scale = np.vdot(lm, pw) / np.vdot(lm, lm)
        dists.append(float(np.sqrt(np.mean(np.abs(scale * lm - pw) ** 2))))
    assert dists[0] >= dists[1] >= dists[2]


@pytest.mark.parametrize("m", [2, 3, 16, 97, 256, 1024])
def test_kapteyn_bounds_the_aliased_bessel_terms(m):
    """K_m(x) >= |J_m(x)| for x < m, and it covers the whole aliasing series
    sum_{j>=1} |J_{jm}(x)| that the m-node circle average errs by."""
    x = np.linspace(0.0, m, 513)[:-1]
    K = np.array([_kapteyn(m, v) for v in x])
    assert np.all(K >= np.abs(jv(m, x)))
    assert np.all(K >= sum(np.abs(jv(j * m, x)) for j in range(1, 6)))
