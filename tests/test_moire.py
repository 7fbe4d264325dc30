"""Tapered horocycle superpositions, weak limits, discrete figure sums."""
import json
import math
import pathlib

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval

import oracles
from horowave.geometry import (
    BoundaryPoint,
    DiskPoint,
    Horocycle,
    _polar_bracket,
    _polar_half_plane,
    act,
    horocycle_coordinates,
    horocycle_point,
    horocycle_points_array,
    nilpotent_flow,
)
from horowave import moire
from horowave.errors import QuadratureUnderResolved
from horowave.moire import (
    LambdaWindow,
    _line_integrals,
    _phi_table,
    _sinh_half_distances,
    convergence_study,
    moire_integral,
    moire_sum_discrete,
    moire_weak,
    phase_correlation,
    reduction_paths,
)
from horowave.tapers import TaperSpec
from horowave.transform import GridSpec, SampledField, _angle_offsets, _lambda_weights
from horowave.waves import (helgason_wave, plancherel_density, spherical_radial,
                            spherical_radial_profile)

B0 = BoundaryPoint(0.0)
X0 = DiskPoint(0j)
ZERO_HOROCYCLE = Horocycle(B0, 0.0)


# --- taper windows -----------------------------------------------------------

def test_taper_invariants():
    s = np.linspace(-5, 5, 41)
    for kind in ("gaussian", "cosine", "hard"):
        taper = TaperSpec(kind, 2.0)
        vals = taper(s)
        assert taper(np.array(0.0)) == 1.0
        np.testing.assert_allclose(vals, vals[::-1], atol=1e-15)  # even
        pos = taper(np.linspace(0, 5, 21))
        assert np.all(np.diff(pos) <= 1e-15)  # non-increasing


def test_hard_taper_is_indicator():
    taper = TaperSpec("hard", 1.5)
    np.testing.assert_array_equal(taper(np.array([-2.0, -1.5, 0.0, 1.5, 1.51])),
                                  [0.0, 1.0, 1.0, 1.0, 0.0])


def test_taper_validation():
    with pytest.raises(ValueError):
        TaperSpec("triangular", 1.0)
    with pytest.raises(ValueError):
        TaperSpec("gaussian", 0.0)


def test_lambda_window_support():
    win = LambdaWindow(2.0, lo=0.5, hi=4.0)
    assert win(np.array([0.5, 4.0, 0.2, 6.0])).tolist() == [0.0, 0.0, 0.0, 0.0]
    assert win(np.array(2.0)) > 0.9


@pytest.mark.parametrize("center", [0.5, 4.0, 5.0])
def test_lambda_window_center_outside_its_support_is_refused(center):
    with pytest.raises(ValueError) as exc:
        LambdaWindow(center, lo=0.5, hi=4.0)
    assert str(exc.value) == "window center must lie inside (lo, hi)"


# --- pointwise tapered estimator ---------------------------------------------

def test_moire_integral_origin_target():
    report = moire_integral(1.5, B0, X0)
    assert report.target == 1.0
    assert report.abs_error == abs(report.approx - report.target)
    # tapered approximation lands within the documented oscillation band
    assert abs(report.approx - 1.0) < 0.2


def test_moire_integral_n_invariance():
    r0 = moire_integral(1.5, B0, X0)
    r1 = moire_integral(1.5, B0, horocycle_point(ZERO_HOROCYCLE, 1.2))
    assert r1.target == pytest.approx(1.0, abs=1e-12)
    assert abs(r1.approx - r0.approx) < 1e-6


def test_convergence_study_is_n_invariant_off_the_zero_horocycle():
    # the taper is centered under x, so n_u x (same beta, shifted arc) reads the
    # same line integrals; what is left is the rounding of beta through act
    b0, x = BoundaryPoint(0.7), DiskPoint(0.6 + 0.5j)
    assert horocycle_coordinates(x, b0)[0] > 2.0
    r0 = convergence_study(1.5, b0, x, [4.0, 8.0, 12.0], "gaussian")
    for u in (1.2, -3.0):
        r1 = convergence_study(1.5, b0, act(nilpotent_flow(b0, u), x), [4.0, 8.0, 12.0],
                               "gaussian")
        for a, b in zip(r0, r1):
            assert abs(a.approx - b.approx) < 1e-14
            assert abs(a.target - b.target) < 1e-14


def test_moire_integral_target_closed_form():
    report = moire_integral(1.5, B0, DiskPoint(0.4 + 0j))
    B = math.log(0.84 / 0.36)
    expect = math.sqrt(0.84 / 0.36) * complex(math.cos(1.5 * B), math.sin(1.5 * B))
    assert abs(report.target - expect) < 1e-12
    assert report.target == helgason_wave(1.5, B0, DiskPoint(0.4 + 0j))


# --- weak (lambda-windowed) estimator ----------------------------------------

def test_moire_weak_zero_window(monkeypatch):
    # the 81 lambda nodes are 0.04375 apart, the nearest 0.00625 from 2.2:
    # at width 1e-4 every chi value underflows to 0
    monkeypatch.setattr(moire, "_WINDOW_WIDTH", 1e-4)
    lhs, rhs = moire_weak(LambdaWindow(2.2), B0, X0)
    assert lhs == 0 and rhs == 0


def test_moire_weak_accuracy_and_monotonicity():
    win = LambdaWindow(2.2)
    lhs12, rhs = moire_weak(win, B0, X0, TaperSpec("gaussian", 12.0))
    lhs4, _ = moire_weak(win, B0, X0, TaperSpec("gaussian", 4.0))
    e12 = abs(lhs12 - rhs) / abs(rhs)
    e4 = abs(lhs4 - rhs) / abs(rhs)
    assert e12 <= 3e-2
    assert e12 < e4


# --- convergence study --------------------------------------------------------

def test_convergence_study_rejects_unsorted():
    with pytest.raises(ValueError):
        convergence_study(1.5, B0, X0, [8.0, 4.0, 12.0], "gaussian")


def test_convergence_study_refuses_no_widths_before_any_table(monkeypatch):
    monkeypatch.setattr(moire, "_phi_table", lambda *a: pytest.fail("a table was built"))
    with pytest.raises(ValueError, match="sigmas"):
        convergence_study(1.5, B0, X0, [], "gaussian")


def test_convergence_study_reports():
    reports = convergence_study(1.5, B0, X0, [4.0, 6.0, 8.0, 10.0, 12.0], "gaussian")
    assert len(reports) == 5
    assert all(not r.divergent for r in reports)
    assert reports[0].oscillation_amplitude > 0
    assert all(r.oscillation_amplitude == reports[0].oscillation_amplitude
               for r in reports)
    # the band is bounded: no blow-up, mean of the last sweep near the target
    mean_tail = np.mean([r.approx for r in reports[-3:]])
    assert abs(mean_tail - 1.0) < 0.1
    assert all(np.isfinite(r.approx) for r in reports)


def test_convergence_study_lambda_zero_edge():
    # lambda = 0 is the degenerate edge: allowed, flagged only on blow-up.
    reports = convergence_study(0.0, B0, X0, [4.0, 8.0], "gaussian")
    assert all(np.isfinite(r.approx) for r in reports)


# --- discrete sums --------------------------------------------------------------

SMALL_GRID = GridSpec(75, 128, 1.8)


def test_moire_sum_single_center():
    fld = moire_sum_discrete(2.0, B0, 1, 0.35, SMALL_GRID)
    d = 2.0 * np.arctanh(np.abs(SMALL_GRID.z))
    np.testing.assert_allclose(fld.values.real, spherical_radial(2.0, d), atol=1e-12)


def _sampled_center_sum(lam, grid):
    """24 centers' moire_sum_discrete at 24 seeded grid nodes, with the nodes
    and the centers."""
    b0 = BoundaryPoint(0.7)
    values = moire_sum_discrete(lam, b0, 24, 0.35, grid).values.ravel()
    idx = np.random.default_rng(3).choice(values.size, 24, replace=False)
    centers = horocycle_points_array(b0.theta, 0.0, 0.35 * (np.arange(1, 25) - 12.5))
    return values[idx], grid.z.ravel()[idx], centers


@pytest.mark.parametrize("lam", [0.5, 4.0])
@pytest.mark.parametrize("grid", [SMALL_GRID, GridSpec(200, 256, 4.0)],
                         ids=["75x128-R1.8", "200x256-R4"])
def test_moire_sum_matches_addition_formula(grid, lam):
    got, z, centers = _sampled_center_sum(lam, grid)
    expect = oracles.boundary_moire_sum(lam, z, centers)
    assert np.max(np.abs(got - expect)) < 1e-12


@pytest.mark.parametrize("lam", [0.5, 4.0])
def test_moire_sum_matches_kernel_sum_far_out(lam):
    # at R = 8 the boundary trapezoid needs ~1e5 nodes; compare to the
    # radial kernel summed center by center instead
    got, z, centers = _sampled_center_sum(lam, GridSpec(75, 128, 8.0))
    assert np.max(np.abs(got - oracles.kernel_moire_sum(lam, z, centers))) < 1e-12


@pytest.mark.parametrize("t", [1e-3, 0.01, 0.0125, 0.1, 1.0, 10.0, 30.0, 38.0, 400.0])
def test_polar_coordinates_match_the_cayley_map(t):
    """e^beta and e^beta a of the polar nodes, from (t, psi) alone, within 1e-14 relative of
    mpmath, and beta within 1e-15 t. Past t = 37 the disk point ``GridSpec.z`` rounds onto the
    circle; they need none. beta taken as log(e^beta) erred by 1.9e-13 t at t = 1e-3."""
    for n, theta in ((16, 0.0), (16, 0.7), (128, 2.0), (128, 5.9)):
        offsets = _angle_offsets(n, theta, n)
        x = _polar_half_plane(t, offsets)
        beta = _polar_bracket(np.array([t])[:, None], offsets)[0]
        for got_eb, got_eba, got_beta, psi in zip(x.imag, x.real, beta, offsets):
            ref_eb, ref_eba = oracles.polar_horocycle_coordinates(t, psi)
            assert abs(got_eb - ref_eb) <= 1e-14 * ref_eb
            assert abs(got_eba - ref_eba) <= 1e-14 * abs(ref_eba)
            assert abs(got_beta - oracles.busemann_polar(0.0, t, psi)) <= 1e-15 * t


@pytest.mark.parametrize("shape", [(75, 128), (200, 256), (16, 16), (120, 192)])
@pytest.mark.parametrize("theta", [0.0, 0.7, 2.3])
def test_moire_footer_reads_the_field_nodes_bit_for_bit(shape, theta):
    """The ``moire`` footer maps its 16 sampled (row, column) pairs alone; each point must be
    the whole grid's, or its spot check would not check the field's own nodes."""
    grid = GridSpec(*shape, 1.8)
    psi = _angle_offsets(grid.n_theta, theta, grid.n_theta)
    whole = _polar_half_plane(grid.radii_t[:, None], psi).ravel()
    sample = np.linspace(0, whole.size - 1, 16).astype(np.intp)
    row, col = np.divmod(sample, grid.n_theta)
    assert np.array_equal(_polar_half_plane(grid.radii_t[row], psi[col]), whole[sample])


@pytest.mark.parametrize("spacing", [0.35, 50.0, 5000.0, 1e8])
def test_moire_sum_matches_mpmath_at_any_spacing(spacing):
    """Five centers, at six seeded nodes, against the mean of mpmath's conical function at
    mpmath's distances. The disk route erred by 3.0e-13 at spacing 5000 and refused 1e8,
    whose end centers round onto the circle."""
    lam, b0, n, grid = 2.0, BoundaryPoint(0.7), 5, GridSpec(16, 16, 1.8)
    values = moire_sum_discrete(lam, b0, n, spacing, grid).values
    psi = _angle_offsets(grid.n_theta, b0.theta, grid.n_theta)
    centers = spacing * (np.arange(1, n + 1) - (n + 1) / 2.0)
    for node in np.random.default_rng(11).choice(values.size, 6, replace=False):
        j, l = divmod(int(node), grid.n_theta)
        eb, eba = oracles.polar_horocycle_coordinates(grid.radii_t[j], psi[l])
        expect = np.mean([oracles.conical_spherical(
            lam, oracles.horocycle_distance(b0.theta, math.log(eb), eba / eb, s)) for s in centers])
        assert abs(values[j, l] - expect) <= 2e-14


FIT_LAMBDAS = np.linspace(0.5, 4.0, 81)


def _phi_table_values(coef, d, dmax):
    """A phi table's sum at distances d: its Chebyshev series in u, divided back by cosh(d/2)."""
    return chebval(2.0 * (d / dmax) ** 2 - 1.0, coef) / np.cosh(0.5 * d)


@pytest.mark.parametrize("lam, dmax", [(0.5, 3.0), (2.0, 4.3), (4.0, 12.0),
                                       ((0.0, 0.7, 2.2, 4.0), 9.5), (7.5, 8.0),
                                       (FIT_LAMBDAS, 20.0)])
def test_phi_table_in_even_variable_matches_radial_kernel(lam, dmax):
    """Each lambda's table at weight 1, and a list's at weights summing to 1 in modulus."""
    lams = np.atleast_1d(lam)
    d = np.concatenate([[0.0, dmax], np.random.default_rng(5).uniform(0.0, dmax, 200)])
    profile = spherical_radial_profile(lams, d)
    for lam_i, expect in zip(lams, profile):
        coef = _phi_table([lam_i], [1.0], dmax)
        assert coef.ndim == 1
        assert np.max(np.abs(_phi_table_values(coef, d, dmax) - expect)) < 1e-13
        # at d = 0, u = -1 and T_k(-1) = (-1)^k: the exactly rounded alternating sum
        assert abs(math.fsum((-1.0) ** np.arange(len(coef)) * coef) - 1.0) < 1e-14
    w = np.random.default_rng(6).uniform(-1.0, 1.0, len(lams))
    w /= np.sum(np.abs(w))
    got = _phi_table_values(_phi_table(lams, w, dmax), d, dmax)
    assert np.max(np.abs(got - w @ profile)) < 1e-13


@pytest.mark.parametrize("dmax", [20.0, 25.0])
def test_phi_table_at_large_lambda_d_matches_mpmath(dmax):
    """lambda = 8 out to lambda d = 200, against mpmath's conical function.

    The table's error peaks near d = 0.02, where 2001 even d in [0, dmax]
    read 1.7e-13 (dmax 20) and 2.9e-13 (dmax 25); these 20 seeded d read
    8.9e-14 and 1.7e-13. The radial rule agrees with mpmath there within
    5e-16, so the error is the table's.
    """
    coef = _phi_table([8.0], [1.0], dmax)
    d = np.concatenate([[0.0, dmax], np.random.default_rng(7).uniform(0.0, dmax, 20)])
    ref = np.array([oracles.conical_spherical(8.0, x) for x in d])
    assert np.max(np.abs(_phi_table_values(coef, d, dmax) - ref)) < 3e-13


@pytest.mark.parametrize("lams", [[0.0], [0.5], [4.0], [8.0], FIT_LAMBDAS,
                                  [0.0, 0.7, 2.2, 4.0]],
                         ids=["0", "0.5", "4", "8", "fit", "mixed"])
def test_phi_table_on_half_nodes_matches_full_node_table(lams):
    """Each lambda's table at weight 1, and the list's at seeded weights of either sign."""
    cases = [([lam], [1.0]) for lam in lams]
    cases.append((lams, np.random.default_rng(8).uniform(-1.0, 1.0, len(lams))))
    for dmax in (0.5, 3.0, 6.4, 11.3, 25.0):
        for lam_list, w in cases:
            got = _phi_table(lam_list, w, dmax)
            expect = oracles.phi_table_full_nodes(lam_list, w, dmax)
            assert got.shape == expect.shape
            assert np.max(np.abs(got - expect)) <= 1e-15


def test_weighted_phi_table_is_the_weighted_sum_of_its_one_hot_tables():
    """Each table moves no value of its cosh(d/2)-scaled sum by more than its tol =
    1e-14 min(1, sum |w_i|), so the weighted table and the weighted sum of the one-hot
    tables differ by at most tol + 1e-14 sum |w_i|: at moire_weak's window weights, whose
    sum |w_i| is 0.34, and at seeded weights of either sign, whose sum |w_i| is 11.4."""
    lams = np.linspace(0.5, 4.0, 9)
    window = LambdaWindow(2.2)(lams) * _lambda_weights(lams) * plancherel_density(lams)
    signed = np.random.default_rng(9).uniform(-2.0, 2.0, len(lams))
    for w in (window, signed):
        for dmax in (3.0, 12.0, 20.0):
            u = 2.0 * np.linspace(0.0, 1.0, 501) ** 2 - 1.0  # at d = 0 .. dmax
            one_hot = [_phi_table(lams, e, dmax) for e in np.eye(len(lams))]
            parts = w @ np.array([chebval(u, c) for c in one_hot])
            got = chebval(u, _phi_table(lams, w, dmax))
            total = float(np.sum(np.abs(w)))
            assert np.max(np.abs(got - parts)) <= 1e-14 * (min(1.0, total) + total)


def test_convergence_study_shares_one_table_across_widths():
    x = DiskPoint(0.3 - 0.2j)
    for lam in (0.7, 2.0, 3.9):
        shared = [r.approx for r in convergence_study(lam, B0, x, [4.0, 8.0, 12.0], "gaussian")]
        own = [convergence_study(lam, B0, x, [s], "gaussian")[0].approx
               for s in (4.0, 8.0, 12.0)]
        assert np.max(np.abs(np.subtract(shared, own))) <= 1e-13 * np.max(np.abs(own))
        # moire_integral is the one-width study at DEFAULT_TAPER, report for report
        assert moire_integral(lam, B0, x) == convergence_study(lam, B0, x, [12.0], "gaussian")[0]


def test_weak_estimator_evaluates_half_nodes_once_per_level(monkeypatch):
    # all 17 points of the first level, then only each level's new half
    sizes = []

    def counting(lams, d):
        sizes.append(np.size(d))
        return spherical_radial_profile(lams, d)

    monkeypatch.setattr(moire, "spherical_radial_profile", counting)
    moire_weak(LambdaWindow(1.5), B0, X0, TaperSpec("gaussian", 48.0))
    assert sizes == [17, 16, 32, 64]


def test_weak_estimator_tables_settle_where_the_windowed_sum_does(monkeypatch):
    # one table of the weighted lambda sum, not one column per lambda: 65 distances
    # serve every lambda here, where the worst of 81 columns took 129
    sizes = []

    def counting(lams, d):
        sizes.append(np.size(d))
        return spherical_radial_profile(lams, d)

    monkeypatch.setattr(moire, "spherical_radial_profile", counting)
    x = horocycle_point(ZERO_HOROCYCLE, -2.5)
    moire_weak(LambdaWindow(2.2), B0, x, TaperSpec("gaussian", 12.0))
    assert sum(sizes) == 65


def test_phi_table_that_does_not_settle_raises(monkeypatch):
    monkeypatch.setattr(moire, "_PHI_TABLE_MAX_NODES", 32)
    with pytest.raises(QuadratureUnderResolved):
        moire_sum_discrete(2.0, B0, 5, 0.35, SMALL_GRID)
    with pytest.raises(QuadratureUnderResolved):
        moire_weak(LambdaWindow(2.2), B0, X0, TaperSpec("gaussian", 4.0))


@pytest.mark.parametrize("theta", [0.0, 0.7, 2.0])
def test_horocycle_distances_match_mpmath(theta):
    """sinh(d/2) = |s + i - x| / (2 sqrt(Im x)) at x = e^beta (a + i), against mpmath's disk
    distance of the same two points.

    Through float disk coordinates of y(s), the distance lost digits as s grew:
    5e-15 relative at s = 37, 3e-10 at 1e4 and 2e-6 at 1e6.
    """
    b0 = BoundaryPoint(theta)
    s = np.array([0.0, 1.0, 37.0, 100.0, 1e4, 1e6])
    for xz in (0j, 0.3 - 0.2j, -0.25 + 0.4j, 0.6 + 0.5j):
        beta, a = horocycle_coordinates(DiskPoint(xz), b0)
        got = 2.0 * np.arcsinh(_sinh_half_distances(np.array(math.exp(beta) * (a + 1j)))(s))
        for g, si in zip(got, s):
            ref = oracles.horocycle_distance(b0.theta, beta, a, si)
            assert abs(g - ref) <= 1e-15 * ref


@pytest.mark.parametrize("width", [4.0, 12.0, 48.0])
def test_line_integrals_match_per_node_kernel(width):
    lams = np.linspace(0.5, 4.0, 81)
    # one random weight vector, and one-hot vectors at three lambda
    weights = np.vstack([np.random.default_rng(5).uniform(-1.0, 1.0, len(lams)),
                         np.eye(len(lams))[[0, 40, 80]]])
    for kind in ("gaussian", "cosine", "hard"):
        taper = TaperSpec(kind, width)
        for arc in (0.0, 1.2, -2.5):
            x = horocycle_point(ZERO_HOROCYCLE, arc)
            expect = oracles.line_integrals_per_node(lams, B0, x, taper, weights)
            for w, e in zip(weights, expect):
                got = _line_integrals(lams, w, *horocycle_coordinates(x, B0), [taper])[0]
                assert abs(got - e) <= 1e-13 * abs(e)


_REFS = pathlib.Path(__file__).parent / "data" / "moire_refs.json"


@pytest.mark.parametrize("kind", ["gaussian", "cosine", "hard"])
def test_line_integrals_match_mpmath_references(kind):
    """Within 1e-11 of mpmath's line integrals (tests/make_moire_refs.py); the Gaussian's on all of R."""
    entries = [e for e in json.loads(_REFS.read_text())["entries"] if e["kind"] == kind]
    assert len(entries) >= 27
    for e in entries:
        taper = TaperSpec(kind, e["sigma"])
        got = _line_integrals([e["lam"]], [1.0], e["beta"], e["a"], [taper])[0]
        assert abs(got - e["value"]) <= 1e-11, e


@pytest.mark.parametrize("width", [4.0, 96.0, 1e16])
def test_line_rule_integrates_each_taper_to_its_closed_form(width):
    """sigma sqrt(2 pi) erf(7 / sqrt 2) for the Gaussian cut at 7 sigma, sigma and 2 sigma."""
    exact = {"gaussian": width * math.sqrt(2.0 * math.pi) * math.erf(7.0 / math.sqrt(2.0)),
             "cosine": width, "hard": 2.0 * width}
    for kind, value in exact.items():
        for c in (0.0, 1.3, -width):
            s, w = moire._line_rule(TaperSpec(kind, width), c, 2.0)
            assert len(s) < (1200 if width <= 1e4 else 4096)
            assert abs(np.sum(w) - value) <= 1e-14 * value


def test_moire_sum_mirror_symmetry():
    fld = moire_sum_discrete(2.0, B0, 6, 0.35, SMALL_GRID)
    vals = fld.values
    idx = (-np.arange(vals.shape[1])) % vals.shape[1]
    assert np.max(np.abs(vals - vals[:, idx])) < 1e-10


def test_moire_sum_validation():
    with pytest.raises(ValueError):
        moire_sum_discrete(2.0, B0, 0, 0.35, SMALL_GRID)
    with pytest.raises(ValueError):
        moire_sum_discrete(2.0, B0, 5, 0.0, SMALL_GRID)


@pytest.mark.parametrize("n", [5, 60])
def test_phase_correlation_is_rotation_invariant(n):
    # whole radial rows make the disk a union of rows, so rotating the field
    # and b0 by whole grid steps moves no node across its edge
    fld = moire_sum_discrete(2.0, B0, n, 0.35, SMALL_GRID)
    ref = phase_correlation(fld, 2.0, B0)
    for k in (1, 5, 37):
        rolled = SampledField(SMALL_GRID, np.roll(fld.values, k, axis=1))
        got = phase_correlation(rolled, 2.0, BoundaryPoint(2.0 * math.pi * k / 128))
        assert abs(got - ref) < 1e-12


@pytest.mark.parametrize("value", [0.0, 1.0, 0.3, 0.7 + 0.2j])
def test_phase_correlation_refuses_a_constant_field(value):
    """A constant field centers to zero, or to its rounding: it read NaN at 0 and 1, with a
    RuntimeWarning, and 4.0e-17 at 0.3."""
    fld = SampledField(SMALL_GRID, np.full((75, 128), value, complex))
    with pytest.raises(ValueError, match="constant field"):
        phase_correlation(fld, 2.0, B0)
    with pytest.raises(ValueError, match="constant reference wave"):
        phase_correlation(moire_sum_discrete(2.0, B0, 5, 0.35, SMALL_GRID), 0.0, B0)


def test_moire_sum_resemblance_trend():
    corr5 = phase_correlation(moire_sum_discrete(2.0, B0, 5, 0.35, SMALL_GRID), 2.0, B0)
    corr60 = phase_correlation(moire_sum_discrete(2.0, B0, 60, 0.35, SMALL_GRID), 2.0, B0)
    assert corr60 > corr5


# --- reduction identity and the measure constant ---------------------------------

def test_reduction_identity_two_paths():
    for xz in (0.3 + 0.2j, -0.25 + 0.4j, 0.26 - 0.44j):
        a, b = reduction_paths(1.5, B0, DiskPoint(xz))
        assert abs(a - b) < 1e-8


def test_kappa_h_is_pi():
    assert moire.kappa_h() == math.pi


def test_clean_window_estimate_of_kappa_h_converges_to_pi():
    # the window is negligible at lo and hi, so lhs / rhs = pi / kappa_H,fit
    # tends to 1 as O(sigma^-2)
    win = LambdaWindow(2.5, lo=0.1, hi=6.0)
    errs = []
    for width, tol in ((48.0, 3e-5), (96.0, 1.2e-5), (192.0, 3e-6)):
        lhs, rhs = moire_weak(win, B0, X0, TaperSpec("gaussian", width))
        errs.append(abs(lhs / rhs - 1.0))
        assert errs[-1] <= tol
    assert errs[0] > errs[1] > errs[2]
