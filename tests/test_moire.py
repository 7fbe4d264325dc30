"""Tapered horocycle superpositions, weak limits, discrete figure sums."""
import math

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval

import oracles
from horowave.geometry import (
    BoundaryPoint,
    DiskPoint,
    Horocycle,
    horocycle_point,
    horocycle_points_array,
)
from horowave import moire
from horowave.errors import QuadratureUnderResolved
from horowave.moire import (
    LambdaWindow,
    _line_integrals,
    _phi_table,
    convergence_study,
    moire_integral,
    moire_sum_discrete,
    moire_weak,
    phase_correlation,
    reduction_paths,
)
from horowave.tapers import TaperSpec
from horowave.transform import GridSpec, SampledField
from horowave.waves import helgason_wave, spherical_radial, spherical_radial_profile

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


FIT_LAMBDAS = np.linspace(0.5, 4.0, 81)


@pytest.mark.parametrize("lam, dmax", [(0.5, 3.0), (2.0, 4.3), (4.0, 12.0),
                                       ((0.0, 0.7, 2.2, 4.0), 9.5), (7.5, 8.0),
                                       (FIT_LAMBDAS, 20.0)])
def test_phi_table_in_even_variable_matches_radial_kernel(lam, dmax):
    lams = np.atleast_1d(lam)
    coef = _phi_table(lams, dmax)
    assert coef.shape[1] == len(lams)
    d = np.concatenate([[0.0, dmax], np.random.default_rng(5).uniform(0.0, dmax, 200)])
    got = chebval(2.0 * (d / dmax) ** 2 - 1.0, coef)
    assert np.max(np.abs(got - spherical_radial_profile(lams, d))) < 1e-13
    assert np.max(np.abs(got[:, 0] - 1.0)) < 1e-14


@pytest.mark.parametrize("lams", [[0.0], [0.5], [4.0], [8.0], FIT_LAMBDAS,
                                  [0.0, 0.7, 2.2, 4.0]],
                         ids=["0", "0.5", "4", "8", "fit", "mixed"])
def test_phi_table_on_half_nodes_matches_full_node_table(lams):
    for dmax in (0.5, 3.0, 6.4, 11.3, 25.0):
        got = _phi_table(lams, dmax)
        expect = oracles.phi_table_full_nodes(lams, dmax)
        assert got.shape == expect.shape
        assert np.max(np.abs(got - expect)) <= 1e-15


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


def test_phi_table_that_does_not_settle_raises(monkeypatch):
    monkeypatch.setattr(moire, "_PHI_TABLE_MAX_NODES", 32)
    with pytest.raises(QuadratureUnderResolved):
        moire_sum_discrete(2.0, B0, 5, 0.35, SMALL_GRID)
    with pytest.raises(QuadratureUnderResolved):
        moire_weak(LambdaWindow(2.2), B0, X0, TaperSpec("gaussian", 4.0))


@pytest.mark.parametrize("width", [4.0, 12.0, 48.0])
def test_line_integrals_match_per_node_kernel(width):
    lams = np.linspace(0.5, 4.0, 81)
    taper = TaperSpec("gaussian", width)
    # one random weight vector, and one-hot vectors at three lambda
    weights = np.vstack([np.random.default_rng(5).uniform(-1.0, 1.0, len(lams)),
                         np.eye(len(lams))[[0, 40, 80]]])
    for arc in (0.0, 1.2, -2.5):
        x = horocycle_point(ZERO_HOROCYCLE, arc)
        expect = oracles.line_integrals_per_node(lams, B0, x, taper, weights)
        for w, e in zip(weights, expect):
            got = _line_integrals(lams, w, B0, x, [taper])[0]
            assert abs(got - e) <= 1e-13 * abs(e)


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
