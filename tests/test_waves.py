"""Helgason waves, spherical functions, c-function, Plancherel density."""
import math
import warnings

import numpy as np
import pytest

import oracles
from horowave import transform, waves
from horowave.errors import QuadratureUnderResolved, SpectralSingularity
from horowave.geometry import BoundaryPoint, DiskPoint
from horowave.transform import GridSpec, calibrate_plancherel_kappa
from horowave.waves import (
    PLANCHEREL_KAPPA,
    harish_chandra_c,
    helgason_wave,
    plancherel_density,
    spherical,
    spherical_radial,
    spherical_radial_profile,
    xi_function,
)

# Reference values from the independent Legendre-type boundary integral
# (adaptive scipy quadrature, see oracles.legendre_spherical).
FROZEN_PHI = {
    (0.5, 1.0): 0.883537898848224,
    (1.5, 2.0): -0.180444085540770,
    (2.5, 0.7): 0.360870406027664,
    (4.0, 3.0): 0.023500161059165,
}


def test_helgason_wave_is_one_at_origin():
    for lam, th in ((0.5, 0.0), (2.0, 1.3), (4.0, 4.0)):
        assert helgason_wave(lam, BoundaryPoint(th), DiskPoint(0j)) == pytest.approx(1.0)


def test_helgason_wave_closed_form_on_axis():
    # On the ray toward b the Busemann bracket equals the geodesic distance.
    lam, r = 1.5, 0.4
    B = math.log((1 - r * r) / (1 - r) ** 2)
    expect = math.exp(0.5 * B) * complex(math.cos(lam * B), math.sin(lam * B))
    got = helgason_wave(lam, BoundaryPoint(0.0), DiskPoint(r + 0j))
    assert abs(got - expect) < 1e-13


def test_spherical_matches_frozen_oracle_values():
    for (lam, d), expect in FROZEN_PHI.items():
        assert spherical_radial(lam, d) == pytest.approx(expect, abs=1e-12)


def test_spherical_matches_live_legendre_oracle():
    for lam in (0.0, 0.8, 2.1, 3.6):
        for d in (0.2, 1.4, 3.0, 5.0):
            assert spherical_radial(lam, d) == pytest.approx(
                oracles.legendre_spherical(lam, d), abs=1e-10)


def test_boundary_average_agrees_with_radial_path():
    for lam in (0.0, 1.0, 2.5, 4.0):
        for d, M in ((0.5, 512), (2.0, 512), (3.5, 2048), (5.0, 8192)):
            p = DiskPoint(math.tanh(d / 2) * np.exp(0.4j))
            assert abs(spherical(lam, p, M=M) - spherical_radial(lam, d)) < 1e-8


def test_spherical_rotation_invariance():
    vals = [spherical(1.3, DiskPoint(0.6 * np.exp(1j * a)), M=512) for a in (0.0, 1.0, 4.4)]
    assert max(abs(v - vals[0]) for v in vals) < 1e-12


def test_spherical_doubling_guard_raises_for_far_points():
    far = DiskPoint(math.tanh(3.0) + 0j)  # d = 6, far beyond M = 64 resolution
    with pytest.raises(QuadratureUnderResolved):
        spherical(1.0, far, M=64)


def test_spherical_basic_properties():
    lams = np.linspace(0.0, 4.0, 9)
    ds = np.linspace(0.0, 5.0, 11)
    P = spherical_radial(lams[:, None], ds[None, :])
    np.testing.assert_allclose(P[:, 0], 1.0, atol=1e-12)
    np.testing.assert_allclose(P, spherical_radial(-lams[:, None], ds[None, :]),
                               atol=1e-12)
    assert np.max(np.abs(P)) <= 1.0 + 1e-12


def test_profile_matches_broadcast_path():
    lams = np.array([0.3, 1.1, 2.7])
    ds = np.array([0.0, 0.4, 1.9, 4.2])
    P1 = spherical_radial_profile(lams, ds)
    P2 = spherical_radial(lams[:, None], ds[None, :])
    np.testing.assert_allclose(P1, P2, atol=1e-13)


def test_radial_paths_at_tiny_distances():
    for lam in (0.0, 2.0):
        for d in (1e-18, 1e-16, 1e-12, 1e-8):
            expect = oracles.conical_spherical(lam, d)
            assert abs(spherical_radial(lam, d) - expect) < 1e-14
            assert abs(spherical_radial_profile([lam], [d])[0, 0] - expect) < 1e-14


@pytest.mark.parametrize("lam", [0.0, 1.0, 32.0])
def test_radial_paths_where_the_quadrature_underflows(lam):
    for d in (1e-250, 1e-300, 1e-310):
        expect = oracles.conical_spherical(lam, d)
        assert abs(spherical_radial(lam, d) - expect) < 1e-14
        assert abs(spherical_radial_profile([lam], [d])[0, 0] - expect) < 1e-14


@pytest.mark.parametrize("lam", [1e160, 1e300, -1e300])
def test_spherical_function_is_one_at_the_center_for_every_finite_lambda(lam):
    # lambda^2 overflows here; phi_lambda(0) = 1 all the same, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert spherical_radial(lam, 0.0) == 1.0
        assert spherical_radial_profile([lam], [0.0])[0, 0] == 1.0


def _one_block(rows, d, key):
    """The radial rule at each distance's first rung, each rung in one block."""
    n = waves._first_rung(key)
    out = np.empty((len(rows), len(d)))
    for nodes in np.unique(n):
        j = n == nodes
        out[:, j] = waves._rule_sums(rows if rows.shape[1] == 1 else rows[:, j],
                                     d[j], nodes)[0]
    return out


def test_spherical_radial_blocks_match_one_block(monkeypatch):
    rng = np.random.default_rng(5)
    d = rng.uniform(0.01, 12.0, 5000)
    lam = rng.uniform(0.0, 8.0, 5000)
    one_block = _one_block(lam[None, :], d, lam * d)[0]
    # small blocks: 25 distances per block on the 128-node rung
    monkeypatch.setattr(waves, "_BLOCK", 96 * 50)
    np.testing.assert_array_equal(spherical_radial(lam, d), one_block)


def test_spherical_radial_profile_blocks_match_one_block(monkeypatch):
    rng = np.random.default_rng(6)
    d = rng.uniform(0.01, 12.0, 5000)
    lams = np.array([0.5, 3.0, 8.0])
    one_block = _one_block(lams[:, None], d, 8.0 * d)
    monkeypatch.setattr(waves, "_BLOCK", 96 * 50)
    np.testing.assert_array_equal(spherical_radial_profile(lams, d), one_block)


@pytest.mark.parametrize("lam", [0.0, 0.5, 4.0, 16.0, 32.0])
def test_radial_paths_against_conical_function_at_the_edges(lam):
    for d in (1e-6, 1.8, 12.0, 40.0, 80.0):
        expect = oracles.conical_spherical(lam, d)
        tol = 1e-12 * oracles.conical_spherical(0.0, d)
        assert abs(spherical_radial(lam, d) - expect) < tol
        assert abs(spherical_radial_profile([lam], [d])[0, 0] - expect) < tol


def test_radial_paths_raise_where_the_rule_would_need_too_many_nodes():
    with pytest.raises(QuadratureUnderResolved):
        spherical_radial(1e4, 80.0)
    with pytest.raises(QuadratureUnderResolved):
        spherical_radial_profile([0.5, 1e4], [1.0, 80.0])


def test_radial_paths_raise_when_doubling_runs_past_the_ladder(monkeypatch):
    # at lambda = 0, d = 80 the first rung (32 nodes) fails its check and doubles
    monkeypatch.setattr(waves, "_MAX_NODES", 32)
    with pytest.raises(QuadratureUnderResolved, match="did not settle"):
        spherical_radial(0.0, 80.0)
    with pytest.raises(QuadratureUnderResolved, match="did not settle"):
        spherical_radial_profile([0.0], [1.0, 80.0])


@pytest.mark.parametrize("d", [-1.0, -1e-300, math.nan, math.inf])
def test_radial_paths_reject_negative_or_non_finite_distances(d):
    with pytest.raises(ValueError):
        spherical_radial(1.0, d)
    with pytest.raises(ValueError):
        spherical_radial_profile([1.0], [0.5, d])


def test_xi_function_is_lambda_zero():
    ds = np.array([0.3, 1.0, 2.5])
    np.testing.assert_allclose(xi_function(ds), spherical_radial(0.0, ds), atol=0)


def test_c_function_conjugation_symmetry():
    for lam in (0.5, 1.5, 3.0):
        assert abs(harish_chandra_c(-lam) - np.conj(harish_chandra_c(lam))) < 1e-6


def test_c_function_matches_closed_form():
    for lam in np.arange(1, 9) / 2.0:
        exact = oracles.harish_chandra_c(lam)
        assert abs(harish_chandra_c(lam) / exact - 1.0) <= 1e-9
        assert abs(harish_chandra_c(-lam) / np.conj(exact) - 1.0) <= 1e-9


def test_c_function_modulus_law():
    # |c(lam)|^-2 is proportional to lam tanh(pi lam); the constant is pi.
    for lam in (0.5, 1.0, 2.0, 4.0):
        inv2 = 1.0 / abs(harish_chandra_c(lam)) ** 2
        assert inv2 / (lam * math.tanh(math.pi * lam)) == pytest.approx(math.pi,
                                                                        rel=1e-6)


def test_c_function_singular_at_zero():
    with pytest.raises(SpectralSingularity):
        harish_chandra_c(0.0)


def test_plancherel_density_shape():
    lams = np.linspace(-3, 3, 13)
    dens = plancherel_density(lams)
    np.testing.assert_allclose(dens, dens[::-1], atol=1e-15)  # even
    assert plancherel_density(0.0) == 0.0
    assert np.all(dens >= 0)


def test_kappa_calibrates_to_inverse_two_pi(monkeypatch):
    # the round-trip fit lands on the exact constant to O(dt^4)
    kappa = 1.0 / (2.0 * math.pi)
    assert calibrate_plancherel_kappa() == pytest.approx(kappa, rel=1e-7)
    monkeypatch.setattr(transform, "DEFAULT_GRID", GridSpec(100, 256, 4.0))
    assert calibrate_plancherel_kappa() == pytest.approx(kappa, rel=1e-6)
    assert PLANCHEREL_KAPPA == kappa
