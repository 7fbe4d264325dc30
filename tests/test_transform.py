"""Helgason-Fourier transform, horocycle integrals, coarea, lemma pairing."""
import math
import sys
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import jn_zeros, jv

import oracles
from conftest import disk_distance
from horowave import cli, geometry, moire, transform
from horowave.checks import _mobius_to
from horowave.errors import (
    NotRadial,
    QuadratureUnderResolved,
    SpectralTruncation,
    SupportOverflow,
)
from horowave.geometry import (
    BoundaryPoint,
    DiskPoint,
    GroupElement,
    Horocycle,
    horocycle_point,
    horocycle_through,
)
from horowave.tapers import TaperSpec
from horowave.transform import (
    DEFAULT_GRID,
    GridSpec,
    SampledField,
    SpectralField,
    coarea_profile,
    forward,
    forward_at,
    horocycle_integral,
    inverse,
    lemma_check,
    plancherel_spectral,
    spherical_transform,
)
from horowave.waves import PLANCHEREL_KAPPA, RHO

BUMPS = {
    "radial": lambda z: np.exp(-1.25 * disk_distance(z) ** 2),
    "offcenter": lambda z: np.exp(-1.7 * disk_distance(_mobius_to(z, 0.25)) ** 2),
    "two-lobe": lambda z: (np.exp(-1.5 * disk_distance(_mobius_to(z, 0.2j)) ** 2)
                           + 0.5 * np.exp(-2.0 * disk_distance(_mobius_to(z, -0.15)) ** 2)),
}


def rel_l2(f: SampledField, g: SampledField) -> float:
    return math.sqrt(float(np.sum(f.weights * np.abs(g.values - f.values) ** 2))
                     / f.norm2())


def test_grid_reproduces_hyperbolic_area():
    grid = GridSpec(150, 128, 3.0)
    area = float(np.sum(grid.row_weights) * grid.n_theta)
    assert area == pytest.approx(2 * math.pi * (math.cosh(3.0) - 1.0), rel=1e-4)


@pytest.mark.parametrize("n_r, n_theta, R", [(0, 8, 1.0), (8, 0, 1.0), (8, 8, 0.0),
                                          (8, 8, -1.0), (8, 8, math.inf),
                                          (8, 8, math.nan)])
def test_grid_spec_rejects_empty_or_bad_radius(n_r, n_theta, R):
    with pytest.raises(ValueError):
        GridSpec(n_r, n_theta, R)


def test_grids_with_one_or_two_radii():
    # one radius has no second node to end-correct with: it keeps the midpoint weight
    one = GridSpec(1, 8, 0.1)
    np.testing.assert_allclose(one.row_weights, [math.sinh(0.05) * 0.1 * math.pi / 4],
                               rtol=1e-15)
    # two radii take both corrections
    two = GridSpec(2, 8, 0.1)
    mid = np.sinh([0.025, 0.075]) * 0.05 * math.pi / 4
    np.testing.assert_allclose(two.row_weights, mid * [1 - 27 / 288, 1 + 1 / 288],
                               rtol=1e-15)
    # neither integrates a field that vanishes at R (68% and 2% off), so the check refuses
    for grid in (one, two):
        with pytest.raises(ValueError, match="hyperbolic area"):
            SampledField.zeros(grid)


@pytest.mark.parametrize("R, first", [(0.1, 5), (1.0, 5), (4.0, 7)])
def test_area_check_passes_from_a_few_radii_at_any_radius(R, first):
    """The area check integrates F = cos^2(pi t / 2R), which vanishes at R with its slope.

    Its verdict at n_r = 1..20 is whether the rule's error against scipy's
    quad of 2 pi int_0^R F sinh t dt is within 1e-3, and every grid from
    ``first`` radii on passes. With F = 1 the t = R end left
    (dt^2/24) cosh R, and grids of fewer than about 10 radii failed at any R.
    """
    exact = 2.0 * math.pi * quad(lambda t: math.sinh(t) * math.cos(0.5 * math.pi * t / R) ** 2,
                                 0.0, R, epsabs=0.0, epsrel=1e-13)[0]
    for n_r in range(1, 21):
        grid = GridSpec(n_r, 8, R)
        F = np.cos(0.5 * np.pi * grid.radii_t / R) ** 2
        err = abs(float(np.sum(grid.row_weights * F)) * 8 - exact) / exact
        try:
            SampledField.zeros(grid)
            passed = True
        except ValueError:
            passed = False
        assert passed == (err <= 1e-3) == (n_r >= first), n_r


def test_area_check_refuses_a_radius_past_the_float_range():
    """Past R = 710 sinh and cosh overflow: the check refuses, it does not raise OverflowError."""
    with pytest.raises(ValueError, match="hyperbolic area"):
        SampledField.zeros(GridSpec(4000, 8, 800.0))


def test_sampled_field_shape_guard():
    with pytest.raises(ValueError):
        SampledField(GridSpec(10, 8, 2.0), np.zeros((10, 9), complex))


def test_round_trip_three_bumps():
    for name, fn in BUMPS.items():
        f = SampledField.from_function(fn, DEFAULT_GRID)
        g = inverse(forward(f))
        assert rel_l2(f, g) < 1e-4, name


@pytest.mark.parametrize("shape", [(120, 192, 4.0), (160, 256, 4.0)])
def test_round_trip_at_exact_kappa(shape):
    grid = GridSpec(*shape)
    for name, fn in BUMPS.items():
        f = SampledField.from_function(fn, grid)
        assert rel_l2(f, inverse(forward(f))) < 1e-4, name


@pytest.mark.parametrize("step", [0.025, 0.05, 0.1])
def test_round_trip_on_the_grids_own_lambda_step(step, monkeypatch):
    monkeypatch.setattr(transform, "LAMBDA_STEP", step)
    f = SampledField.from_function(BUMPS["offcenter"], DEFAULT_GRID)
    F = forward(f)
    assert len(F.lambda_grid) == round(8.0 / step) + 1
    g = inverse(F)
    assert rel_l2(f, g) < 1e-4


def test_unequally_spaced_lambda_grid_is_rejected():
    f = SampledField.from_function(BUMPS["radial"], DEFAULT_GRID)
    lams = np.array([0.0, 0.05, 0.1, 0.2])
    with pytest.raises(ValueError, match="equally spaced"):
        SpectralField(lams, np.zeros((4, f.grid.n_theta), complex), f.grid)


def test_spectral_field_needs_one_column_per_grid_angle():
    grid = GridSpec(10, 8, 2.0)
    lams = np.array([0.0, 0.05, 0.1])
    SpectralField(lams, np.zeros((3, 8), complex), grid)
    for shape in ((3, 7), (3, 9), (2, 8)):
        with pytest.raises(ValueError, match="does not match"):
            SpectralField(lams, np.zeros(shape, complex), grid)


def test_forward_at_takes_unequally_spaced_lambdas():
    f = SampledField.from_function(BUMPS["offcenter"], DEFAULT_GRID)
    lams = np.sort(np.random.default_rng(11).uniform(-8.0, 8.0, 57))
    ref = oracles.direct_forward_at(f, lams, 0.7)
    got = forward_at(f, lams, BoundaryPoint(0.7))
    assert np.max(np.abs(got - ref)) < 1e-13 * np.max(np.abs(ref))


def _rel_max(got: np.ndarray, ref: np.ndarray) -> float:
    scale = np.max(np.abs(ref))
    return float(np.max(np.abs(got - ref)) / scale) if scale else float(np.max(np.abs(got)))


@pytest.mark.parametrize("shape", [(120, 192, 4.0), (160, 256, 4.0), (200, 256, 4.0),
                                   (240, 512, 6.0)])
def test_transform_matches_direct_exponentials(shape, monkeypatch):
    """Jacobi-Anger kernel rows against one np.exp per lambda.

    n_lambda in {1, 2, 3, 161, 321, 641}; at R = 6 forward's max|c B| is 24
    and forward_at's 48.
    """
    grid = GridSpec(*shape)
    f = SampledField.from_function(BUMPS["offcenter"], grid)
    rng = np.random.default_rng(7)
    fwd, inv = [], []
    for lambda_max, step, n_lambda in ((0.0, 0.05, 1), (0.05, 0.05, 2), (0.1, 0.05, 3),
                                       (8.0, 0.05, 161), (8.0, 0.025, 321), (8.0, 0.0125, 641)):
        monkeypatch.setattr(transform, "LAMBDA_MAX", lambda_max)
        monkeypatch.setattr(transform, "LAMBDA_STEP", step)
        F = forward(f)
        assert len(F.lambda_grid) == n_lambda
        if len(F.lambda_grid) > 3:
            lams, vals = F.lambda_grid, F.values
        else:  # off lambda = 0, with the last row empty so the truncation check passes
            lams = 0.5 + F.lambda_grid
            vals = rng.standard_normal(F.values.shape) + 1j * rng.standard_normal(F.values.shape)
            vals[-1] = 0.0
        fwd.append(F)
        inv.append((lams, vals, inverse(SpectralField(lams, vals, grid)).values))
    ref_fwd, ref_inv = oracles.direct_transforms(f, [F.lambda_grid for F in fwd],
                                                 [(l, v) for l, v, _ in inv], PLANCHEREL_KAPPA)
    for F, ref in zip(fwd, ref_fwd):
        assert _rel_max(F.values, ref) < 1e-13
    for (_, _, got), ref in zip(inv, ref_inv):
        assert _rel_max(got, ref) < 1e-13
    lemma_lams = np.arange(-8.0, 8.025, 0.05)
    ref = oracles.direct_forward_at(f, lemma_lams, 0.7)
    for n in (1, 2, 3, 161, 321):
        got = forward_at(f, lemma_lams[:n], BoundaryPoint(0.7))
        assert np.max(np.abs(got - ref[:n])) < 1e-13 * np.max(np.abs(ref))


def _weight_at_every_radius(grid: GridSpec, seed: int) -> SampledField:
    """Random complex values times cos^8(pi t / 2R) e^{-t}: no radius is left out."""
    rng = np.random.default_rng(seed)
    shape = (grid.n_r, grid.n_theta)
    t = grid.radii_t[:, None]
    noise = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return SampledField(grid, noise * np.cos(0.5 * np.pi * t / grid.R) ** 8 * np.exp(-t))


@pytest.mark.parametrize("shape, lambda_max", [((200, 256, 4.0), 8.0), ((200, 128, 6.0), 8.0),
                                               ((200, 3, 4.0), 8.0), ((200, 3, 4.0), 2.0)],
                         ids=["shape0", "shape1", "shape2", "shape2-lambda2"])
def test_radial_nodes_match_direct_exponentials_at_every_radius(shape, lambda_max, monkeypatch):
    """The kernel rows at the radial nodes, against one np.exp per lambda at every grid radius.

    The bumps of ``test_transform_matches_direct_exponentials`` vanish at
    the outer radii, where an under-resolved interpolant in t would show;
    this field and these spectral rows do not. With 65 nodes at R = 6
    (error 4e-10 of the kernel at the midpoints) forward and forward_at are
    off by 7e-11 to 1e-10, and inverse by 2e-12. Three angles take the odd
    mirror of the even rows with the projection; at LAMBDA_MAX = 2 they
    take 65 nodes, where a check at only their own angles took 33.
    """
    monkeypatch.setattr(transform, "LAMBDA_MAX", lambda_max)
    grid = GridSpec(*shape)
    f = _weight_at_every_radius(grid, 23)
    assert len(transform._radial_nodes(grid.radii_t, transform.LAMBDA_MAX)[0]) < grid.n_r
    F = forward(f)
    lams = F.lambda_grid
    rng = np.random.default_rng(29)
    vals = ((rng.standard_normal(F.values.shape) + 1j * rng.standard_normal(F.values.shape))
            * np.cos(0.5 * np.pi * lams / transform.LAMBDA_MAX)[:, None] ** 2)
    got = inverse(SpectralField(lams, vals, grid)).values
    (ref_fwd,), (ref_inv,) = oracles.direct_transforms(f, [lams], [(lams, vals)],
                                                       PLANCHEREL_KAPPA)
    assert _rel_max(F.values, ref_fwd) < 1e-13
    assert _rel_max(got, ref_inv) < 1e-13
    lemma_lams = np.arange(-8.0, 8.025, 0.05)
    for theta in (0.0, 0.7):
        ref = oracles.direct_forward_at(f, lemma_lams, theta)
        assert _rel_max(forward_at(f, lemma_lams, BoundaryPoint(theta)), ref) < 1e-13


def test_chebyshev_levels_evaluate_each_angle_once():
    """Each level's even angles are the last level's, and f sees only the new ones."""
    seen = []

    def f(a):
        seen.append(a.copy())
        return np.stack([np.cos(3.0 * a), a], axis=1)  # a value, and its angle

    last = None
    levels = list(transform._chebyshev_levels(f, 4, 32))
    for a, values in levels:
        n = len(a) - 1
        np.testing.assert_array_equal(a, np.pi * np.arange(n + 1) / n)
        if last is not None:
            assert np.array_equal(a[::2], last)
        np.testing.assert_array_equal(values[:, 1], a)
        np.testing.assert_array_equal(values[:, 0], np.cos(3.0 * a))
        last = a
    assert [len(a) - 1 for a, _ in levels] == [4, 8, 16, 32]
    assert [len(a) for a in seen] == [5, 4, 8, 16]
    assert list(transform._chebyshev_levels(f, 64, 32)) == [] and len(seen) == 4


def test_radial_node_choice():
    """65 nodes on R = 4 grids, more at R = 6, and the grid radii once the count reaches n_r."""
    for shape in ((120, 192, 4.0), (160, 256, 4.0), (200, 256, 4.0)):  # perfbench's grids
        grid = GridSpec(*shape)
        t, I, err = transform._radial_nodes(grid.radii_t, 8.0)
        assert len(t) == 65 and I.shape == (grid.n_r, 65)
        assert 0.0 < err <= transform._NODE_TOL
        assert t[0] == pytest.approx(grid.radii_t[0]) and t[-1] == pytest.approx(grid.radii_t[-1])
        # I interpolates: it reproduces a polynomial of degree 64 in t at the grid radii
        x = (grid.radii_t - 2.0) / 2.0
        np.testing.assert_allclose(I @ np.cos(64 * np.arccos((t - 2.0) / 2.0)),
                                   np.cos(64 * np.arccos(np.clip(x, -1, 1))), atol=1e-12)
    for shape in ((200, 128, 6.0), (240, 512, 6.0), (300, 64, 6.0)):
        t, _, err = transform._radial_nodes(GridSpec(*shape).radii_t, 8.0)
        assert len(t) == 129 and err <= transform._NODE_TOL
    for shape in ((33, 64, 4.0), (40, 32, 4.0), (65, 64, 4.0), (48, 1, 3.0), (40, 32, 40.0),
                  (400, 64, 40.0)):
        grid = GridSpec(*shape)
        t, I, err = transform._radial_nodes(grid.radii_t, 8.0)
        assert np.array_equal(t, grid.radii_t)
        assert I is None and err == 0.0


@pytest.mark.parametrize("shape", [(120, 192, 4.0), (160, 256, 4.0), (200, 256, 4.0),
                                   (200, 128, 6.0), (240, 512, 6.0), (300, 64, 6.0),
                                   (200, 1, 4.0), (200, 3, 4.0)])
def test_radial_nodes_hold_toward_every_direction(shape):
    """The one node rule reads b = 0 only; its nodes hold at the offsets toward any b.

    The kernel's strip of analyticity in t is the same at every angle, so
    the nodes chosen at _NODE_CHECK_OFFSETS interpolate e^{(i lam + rho) B}
    within _NODE_TOL at the midpoints of each b's own offsets: 8 directions
    and 8 more half a grid step off them, at the band edge 8 and at 2, where
    a check at only the grid's own angles toward b = 0 took 33 nodes on 200x1
    and 200x3 and some b needs 65.
    """
    grid = GridSpec(*shape)
    steps = 2.0 * np.pi * np.arange(8) / 8
    for lam in (2.0, 8.0):
        t, I, _ = transform._radial_nodes(grid.radii_t, lam)
        Q = len(t)
        assert I is not None
        mid, half = 0.5 * (t[-1] + t[0]), 0.5 * (t[-1] - t[0])
        x = -np.cos(np.pi * np.arange(Q) / (Q - 1))
        np.testing.assert_allclose(mid + half * x, t, rtol=0, atol=1e-14 * grid.R)
        xm = -np.cos(np.pi * (np.arange(Q - 1) + 0.5) / (Q - 1))
        M = transform._barycentric(x, xm)
        for theta in np.concatenate([steps, steps + np.pi / grid.n_theta]):
            offsets = transform._angle_offsets(grid.n_theta, theta, grid.n_theta)
            K = np.exp((1j * lam + RHO) * transform._polar_bracket(t, offsets))
            Km = np.exp((1j * lam + RHO) * transform._polar_bracket(mid + half * xm, offsets))
            err = np.max(np.abs(M @ K - Km), axis=1) / np.max(np.abs(Km), axis=1)
            assert np.max(err) <= transform._NODE_TOL, (lam, theta)


def test_grid_busemann_keeps_its_digits_below_2pi():
    """Toward b = 0 the last angles of the grid are taken as the small negative angles they are.

    On the float angles fl(2 pi l / n) just below 2 pi, sin((a - 0)/2) sits
    near sin(pi) and cancels: the bracket was off by up to 9e-14 at R = 6.
    The reference is the mpmath bracket at the nominal angle 2 pi l / n. Its
    absolute error near t = 0, where -t - log(...) takes the log of a number
    near 1, is one rounding of 1, 2^-53; elsewhere it is within 2e-15 t.
    """
    grid = GridSpec(240, 512, 6.0)
    B = grid.busemann(0.0)
    t = grid.radii_t
    for l in range(grid.n_theta - 8, grid.n_theta):
        with mpmath.workdps(40):
            a = 2 * mpmath.pi * l / grid.n_theta
        for j in range(0, grid.n_r, 7):
            ref = float(oracles.busemann_polar(0.0, float(t[j]), a))
            assert abs(B[j, l] - ref) <= 2e-15 * t[j] + 2.0 ** -53, (j, l)


@pytest.mark.parametrize("n_theta", [1, 2, 3, 33])
def test_odd_and_tiny_angle_counts_match_direct_exponentials(n_theta):
    """forward and inverse build their rows at n_theta // 2 + 1 angles and mirror them.

    Random values at every angle reach every angular frequency, so a row
    mirrored onto the wrong angle shows in both directions.
    """
    grid = GridSpec(48, n_theta, 3.0)
    rng = np.random.default_rng(19)
    noise = rng.standard_normal((48, n_theta)) + 1j * rng.standard_normal((48, n_theta))
    f = SampledField(grid, noise * np.exp(-3.0 * grid.radii_t ** 2)[:, None])  # e^-27 at R
    F = forward(f)
    lams = F.lambda_grid
    vals = ((rng.standard_normal(F.values.shape) + 1j * rng.standard_normal(F.values.shape))
            * np.exp(-0.5 * lams ** 2)[:, None])  # decayed by Lambda: no truncation
    got = inverse(SpectralField(lams, vals, grid)).values
    (ref_fwd,), (ref_inv,) = oracles.direct_transforms(f, [lams], [(lams, vals)],
                                                       PLANCHEREL_KAPPA)
    assert _rel_max(F.values, ref_fwd) < 1e-13
    assert _rel_max(got, ref_inv) < 1e-13


@pytest.mark.parametrize("n_theta", [1, 2, 3, 33])
@pytest.mark.parametrize("theta", [0.0, 0.37])  # 0.37 is no grid angle
def test_forward_at_contraction_matches_direct_exponentials(n_theta, theta):
    """forward_at sums each Bessel row against E conj(g) and E g as four real rows.

    Its kernel runs over |lambda|: lambda >= 0 reads the E conj(g) rows and
    lambda < 0 the E g rows, so the symmetric, positive and negative lists
    each take a side a slip would show on. Over |lambda| every list has
    mid != 0, which gives E a phase, so a slip between the real and
    imaginary rows shows too.
    """
    grid = GridSpec(48, n_theta, 3.0)
    rng = np.random.default_rng(20)
    noise = rng.standard_normal((48, n_theta)) + 1j * rng.standard_normal((48, n_theta))
    f = SampledField(grid, noise * np.exp(-3.0 * grid.radii_t ** 2)[:, None])  # e^-27 at R
    b = BoundaryPoint(theta)
    for lams in (np.arange(-8.0, 8.025, 0.05), np.linspace(0.5, 6.0, 40),
                 -np.linspace(0.5, 6.0, 40)):
        ref = oracles.direct_forward_at(f, lams, theta)
        assert _rel_max(forward_at(f, lams, b), ref) < 1e-13
        assert _rel_max(forward_at(f, lams[7:8], b), ref[7:8]) < 1e-13
    assert forward_at(f, [], b).shape == (0,)


def test_forward_at_rejects_non_finite_lambdas():
    f = SampledField.from_function(BUMPS["radial"], GridSpec(40, 32, 4.0))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"finite, got {bad}"):
            forward_at(f, [1.0, bad, 2.0], BoundaryPoint(0.7))


def test_grid_busemann_propagates_a_nan_angle():
    """A NaN angle gives NaN brackets, not the s = 0 branch's t."""
    assert np.isnan(GridSpec(40, 32, 4.0).busemann(math.nan)).all()


@pytest.mark.parametrize("shape", [(48, 1, 3.0), (48, 2, 3.0), (48, 3, 3.0), (48, 33, 3.0),
                                   (200, 256, 4.0)])
def test_even_row_ffts_match_the_full_row_build(shape):
    """Each block's chunks, put together, are its kernel rows' FFTs built at every angle.

    The chunks of a block run over its terms k = 0, 1, ... in order, and
    each chunk holds at most _BLOCK_FLOATS floats unless one term's rows
    alone are more; the blocks cover every radial row once.
    """
    grid = GridSpec(*shape)
    lams = np.arange(0.0, 8.025, 0.05)
    _, _, chunks = transform._even_row_ffts(grid.radii_t, grid.n_theta, lams)
    blocks = {}
    for rows, ks, FW in chunks:  # each chunk overwrites the last
        assert FW.shape == (ks.stop - ks.start, rows.stop - rows.start, grid.n_theta)
        assert 2 * FW.size <= transform._BLOCK_FLOATS or len(FW) == 1
        got = blocks.setdefault((rows.start, rows.stop), [])
        assert ks.start == sum(len(c) for c in got)
        got.append(FW.copy())
    starts = sorted(blocks)
    assert starts[0][0] == 0 and starts[-1][1] == grid.n_r
    assert all(a[1] == b[0] for a, b in zip(starts, starts[1:]))
    for (a, b), got in blocks.items():
        FW = np.concatenate(got)
        ref = oracles.kernel_row_ffts_full(grid, grid.radii_t[a:b], lams, len(FW))
        assert np.max(np.abs(FW - ref)) <= 1e-14 * np.max(np.abs(ref))


def _traced_peak(call, *args) -> float:
    """Bytes numpy and Python allocate in call(*args) above what was live at the call."""
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call(*args)
        return tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()


def test_forward_and_inverse_peak_memory():
    """One chunk buffer per call: at 200x256 each direction peaks below 3.0 MB.

    The peak is the traced allocations above what was live at the call.
    The kernel rows of a block are formed and transformed a chunk of terms
    at a time, and the bracket is taken a block at a time at the
    n_theta // 2 + 1 angles read; with every term of a block in one buffer
    and the bracket at every angle, the peaks were 5.65 and 6.32 MB
    (2.55 MB each now).
    """
    f = SampledField.from_function(BUMPS["offcenter"], GridSpec(200, 256, 4.0))
    F = forward(f)
    assert _traced_peak(forward, f) <= 3.0e6
    assert _traced_peak(inverse, F) <= 3.0e6


def test_forward_at_peak_memory():
    """No K-row kernel block: at 200x256 with 321 lambdas forward_at peaks below 1.5 MB.

    The peak is the traced allocations above what was live at the call.
    Forming each block's product J E before the contraction peaked at
    8.2 MB, and 4096-point blocks of 67 Bessel rows at 3.8 MB (1.08 MB now).
    """
    f = SampledField.from_function(BUMPS["offcenter"], GridSpec(200, 256, 4.0))
    assert _traced_peak(forward_at, f, np.arange(-8.0, 8.025, 0.05), BoundaryPoint(0.7)) <= 1.5e6


def test_lemma_check_peak_memory():
    """lemma_check samples its field and takes 321 lambdas toward b0 below 2.5 MB.

    With 4096-point blocks of 67 Bessel rows it peaked at 4.62 MB (1.90 MB now).
    """
    psi = transform.gaussian_bump(1.25)  # the CLI's lemma field
    assert _traced_peak(lemma_check, psi, BoundaryPoint(0.3), DiskPoint(0.2 + 0.1j)) <= 2.5e6


def test_bessel_stack_matches_scipy():
    z = np.concatenate([np.linspace(-40.0, 40.0, 4001), [0.0, 1e-300, -1e-300, 1e-8, -1e-8],
                        jn_zeros(0, 3), -jn_zeros(0, 3), jn_zeros(1, 3), -jn_zeros(1, 3)])
    K = int(transform._kernel_terms(np.array([40.0]))[0])
    got = transform._bessel_stack(z, K)
    assert got.shape == (K, len(z))
    assert np.max(np.abs(got - jv(np.arange(K)[:, None], z))) <= 2e-15
    # at this z (near the second zero of J_3) the ratio recurrence's
    # denominator 2k - z r_{k+1} rounds to exactly 0 at k = 4 with 35 orders
    z0 = np.array([9.76102312998167])
    got = transform._bessel_stack(z0, 35)
    assert np.max(np.abs(got - jv(np.arange(35)[:, None], z0))) <= 2e-15


def test_kernel_terms_past_the_cap_raise(monkeypatch):
    f = SampledField.from_function(BUMPS["offcenter"], DEFAULT_GRID)
    monkeypatch.setattr(transform, "_KERNEL_MAX_TERMS", 32)  # max|c B| = 16 needs about 45
    with pytest.raises(QuadratureUnderResolved):
        forward(f)
    with pytest.raises(QuadratureUnderResolved):
        forward_at(f, np.arange(-8.0, 8.025, 0.05), BoundaryPoint(0.7))


def test_kernel_term_count_does_not_depend_on_lambda_step(monkeypatch):
    counts = []
    terms = transform._kernel_terms
    monkeypatch.setattr(transform, "_kernel_terms", lambda z: counts.append(terms(z)) or counts[-1])
    f = SampledField.from_function(BUMPS["offcenter"], DEFAULT_GRID)
    for step, n_lambda in ((0.0125, 641), (0.025, 321), (0.05, 161)):
        monkeypatch.setattr(transform, "LAMBDA_STEP", step)
        assert len(forward(f).lambda_grid) == n_lambda
    assert len(counts) == 3
    for c in counts[1:]:
        np.testing.assert_array_equal(c, counts[0])


def test_linearity():
    rng = np.random.default_rng(3)
    a, b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    f1 = SampledField.from_function(BUMPS["radial"], DEFAULT_GRID)
    f2 = SampledField.from_function(BUMPS["offcenter"], DEFAULT_GRID)
    combo = SampledField(f1.grid, a * f1.values + b * f2.values)
    F = forward(combo)
    expect = a * forward(f1).values + b * forward(f2).values
    scale = np.max(np.abs(expect))
    assert np.max(np.abs(F.values - expect)) / scale < 1e-10
    g = inverse(F)
    expect_inv = a * inverse(forward(f1)).values + b * inverse(forward(f2)).values
    scale = np.max(np.abs(expect_inv))
    assert np.max(np.abs(g.values - expect_inv)) / scale < 1e-10


def test_rotation_leaves_transform_modulus_invariant():
    phi = 2.0 * math.pi * 32 / 256  # a whole number of angular grid steps
    f = SampledField.from_function(BUMPS["offcenter"], DEFAULT_GRID)
    rot = SampledField.from_function(lambda z: BUMPS["offcenter"](z * np.exp(-1j * phi)),
                                     DEFAULT_GRID)
    F, R = forward(f), forward(rot)
    # rotation permutes the b-grid; compare sorted moduli per lambda row
    a = np.sort(np.abs(F.values), axis=1)
    b = np.sort(np.abs(R.values), axis=1)
    assert np.max(np.abs(a - b)) / np.max(a) < 1e-8


def test_forward_at_matches_forward_grid():
    f = SampledField.from_function(BUMPS["radial"], DEFAULT_GRID)
    F = forward(f)
    got = forward_at(f, F.lambda_grid[::20], BoundaryPoint(0.0))
    np.testing.assert_allclose(got, F.values[::20, 0], rtol=1e-10, atol=1e-12)


def _profile_past_t_6(grid: GridSpec) -> SampledField:
    """A field of the nodes' (t, angle) that is exactly 0 past t = 6."""
    t, a = grid.radii_t[:, None], grid.angles[None, :]
    return SampledField(grid, np.where(t < 6.0, np.exp(-1.25 * t * t), 0.0)
                        * (1.0 + 0.3 * np.cos(a - 0.4)))


def test_kernels_where_z_rounds_to_1_are_finite():
    # past t = 37 |z| = tanh(t/2) rounds to 1; the kernels take B from (t, angle),
    # so rows the field leaves at 0 add nothing, and R = 40 gives what R = 6 does
    # on the same radial nodes
    far = _profile_past_t_6(GridSpec(400, 64, 40.0))
    near = _profile_past_t_6(GridSpec(60, 64, 6.0))
    np.testing.assert_array_equal(far.values[:60], near.values)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        F_far, F_near = forward(far), forward(near)
        lams = np.arange(-8.0, 8.025, 0.05)
        at_far = forward_at(far, lams, BoundaryPoint(0.7))
        at_near = forward_at(near, lams, BoundaryPoint(0.7))
    assert np.all(np.isfinite(F_far.values)) and np.all(np.isfinite(at_far))
    assert _rel_max(F_far.values, F_near.values) < 1e-12
    assert _rel_max(at_far, at_near) < 1e-12


def test_polar_grids_never_take_the_cartesian_bracket(monkeypatch, tmp_path):
    """Every bracket on a grid's nodes comes from ``GridSpec.busemann``.

    ``busemann_array`` is replaced, in every loaded horowave namespace that
    holds it (as perfbench's tracer wraps names), by a function that raises.
    """
    def cartesian(*args):
        raise AssertionError("busemann_array called on a polar grid")

    original = geometry.busemann_array
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "horowave" or name.startswith("horowave.")):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, cartesian)
    f = SampledField.from_function(transform.gaussian_bump(4.0), GridSpec(16, 16, 2.0))
    inverse(forward(f))
    forward_at(f, np.arange(-2.0, 2.025, 0.05), BoundaryPoint(0.7))
    moire.phase_correlation(f, 2.0, BoundaryPoint(0.3))
    assert cli.main(["wave", "--lambda", "2", "--b0", "0.3", "--grid", "16x16",
                     "--out", str(tmp_path / "w.csv")]) == 0


def test_support_overflow_guard():
    wide = lambda z: np.exp(-0.1 * disk_distance(z) ** 2)
    with pytest.raises(SupportOverflow):
        forward(SampledField.from_function(wide, DEFAULT_GRID))


def test_spectral_truncation_guard():
    spiky = lambda z: np.exp(-6.0 * disk_distance(z) ** 2)
    with pytest.raises(SpectralTruncation, match="transform.LAMBDA_MAX = 8"):
        inverse(forward(SampledField.from_function(spiky, DEFAULT_GRID)))


def test_spherical_transform_requires_radial():
    f = SampledField.from_function(BUMPS["offcenter"], DEFAULT_GRID)
    with pytest.raises(NotRadial):
        spherical_transform(f, np.array([1.0]))


def test_plancherel_isometry():
    lams = np.arange(0.0, 8.0001, 0.05)
    for a in (1.25, 1.7, 2.2):
        f = SampledField.from_function(lambda z: np.exp(-a * disk_distance(z) ** 2),
                                       DEFAULT_GRID)
        ft = spherical_transform(f, lams)
        assert plancherel_spectral(ft, lams) / f.norm2() == pytest.approx(1.0, abs=1e-6)


# --- horocycle integrals ---------------------------------------------------

def test_horocycle_integral_taper_mass():
    taper = TaperSpec("gaussian", 2.0)
    got = horocycle_integral(lambda y: np.ones(y.shape), Horocycle(BoundaryPoint(0), 0.0),
                             taper)
    assert abs(got - oracles.gaussian_taper_mass(2.0)) < 1e-6


def test_horocycle_integral_bump_oracle():
    bump = lambda y: np.exp(-8.0 * disk_distance(y) ** 2)
    got = horocycle_integral(bump, Horocycle(BoundaryPoint(0), 0.0),
                             TaperSpec("gaussian", 20.0))
    assert abs(got - oracles.horocycle_bump_integral(8.0, 20.0)) < 1e-8
    assert abs(got - 0.631521091132878) < 1e-8  # frozen oracle value


def test_horocycle_integral_isometry_invariance():
    g = GroupElement.rotation(1.1)
    gi = g.inverse()
    f = lambda y: np.exp(-1.25 * disk_distance(y) ** 2 + 0.3 * y.real)

    def f_pulled(y):
        w = (gi.alpha * y + gi.beta) / (np.conj(gi.beta) * y + np.conj(gi.alpha))
        return f(w)

    taper = TaperSpec("gaussian", 10.0)
    i1 = horocycle_integral(f, Horocycle(BoundaryPoint(0.0), 0.0), taper)
    i2 = horocycle_integral(f_pulled, Horocycle(BoundaryPoint(1.1), 0.0), taper)
    assert abs(i1 - i2) < 1e-7


def test_horocycle_integral_evaluates_each_node_once():
    seen = []

    def bump(y):
        seen.append(y)
        return np.exp(-8.0 * disk_distance(y) ** 2)

    horocycle_integral(bump, Horocycle(BoundaryPoint(0), 0.0), TaperSpec("gaussian", 4.0))
    levels = len(seen) - 1
    assert levels >= 1
    nodes = np.concatenate(seen)
    assert len(nodes) == 512 * 2 ** levels + 1  # the final level's node count
    assert len(np.unique(nodes)) == len(nodes)


# every tapered line integral reads the one rule's budget
_NARROW = TaperSpec("gaussian", 2.0)
_LINE_INTEGRALS = {
    "scalar": lambda: horocycle_integral(lambda y: np.ones(y.shape),
                                         Horocycle(BoundaryPoint(0), 0.0), _NARROW),
    "vector": lambda: moire._line_integrals(np.array([1.0, 2.0]), np.array([0.5, 0.5]),
                                            BoundaryPoint(0), DiskPoint(0j), [_NARROW]),
    "coarea_profile": lambda: coarea_profile(lambda y: np.ones(y.shape), BoundaryPoint(0),
                                             DiskPoint(0j), [0.0, 1.0]),
    "moire_weak": lambda: moire.moire_weak(moire.LambdaWindow(2.2), BoundaryPoint(0),
                                           DiskPoint(0j), _NARROW),
    # moire_integral's one-taper run, at the narrow width
    "moire_integral": lambda: moire.convergence_study(1.5, BoundaryPoint(0), DiskPoint(0j),
                                                      [_NARROW.width], "gaussian")[0],
    # raises at any width with no halvings left
    "reduction_paths": lambda: moire.reduction_paths(1.5, BoundaryPoint(0),
                                                     DiskPoint(0.3 + 0.2j)),
}


@pytest.mark.parametrize("integrate", _LINE_INTEGRALS.values(), ids=_LINE_INTEGRALS.keys())
def test_halving_budget_exhausted_raises(integrate, monkeypatch):
    monkeypatch.setattr(transform, "_HOROCYCLE_MAX_HALVINGS", 0)
    with pytest.raises(QuadratureUnderResolved):
        integrate()


# --- coarea and lemma -------------------------------------------------------

PSI = BUMPS["radial"]
B0 = BoundaryPoint(0.0)
X0 = DiskPoint(0j)


def test_coarea_profile_at_zero_level():
    prof = coarea_profile(PSI, B0, X0, [0.0])
    direct = horocycle_integral(PSI, horocycle_through(B0, X0),
                                TaperSpec("gaussian", 20.0))
    assert abs(prof[0] - direct) < 1e-6


def test_coarea_profile_of_zero_is_zero():
    prof = coarea_profile(lambda z: np.zeros(z.shape), B0, X0, [-1.0, 0.0, 2.0])
    assert np.max(np.abs(prof)) == 0.0


def test_coarea_profile_of_no_levels_is_empty():
    assert coarea_profile(PSI, B0, X0, []).shape == (0,)


def test_coarea_fourier_inversion_chain():
    u = np.linspace(-5.0, 5.0, 161)
    prof = coarea_profile(PSI, B0, X0, u)
    lams = np.arange(-8.0, 8.0001, 0.05)
    phase = np.exp(1j * lams[:, None] * u[None, :])
    rec = np.trapezoid(np.trapezoid(phase * prof[None, :], u, axis=1), lams) / (2 * math.pi)
    assert abs(rec - prof[80]) / abs(prof[80]) < 1e-6


def test_lemma_check_three_functions():
    funcs = {
        "radial": PSI,
        "offcenter": BUMPS["offcenter"],
        "oscillating": lambda z: PSI(z) * np.cos(3.0 * disk_distance(z)),
    }
    for name, psi in funcs.items():
        lhs, rhs = lemma_check(psi, B0, X0)
        assert abs(lhs - rhs) / abs(rhs) < 1e-2, name


def test_lemma_check_off_the_zero_horocycle():
    # rhs takes the Haar measure of N, e^{2 rho beta} times arc length at level beta
    for xz in (0.3, -0.3, 0.2 + 0.3j, 0.5):
        for name in ("radial", "offcenter"):
            lhs, rhs = lemma_check(BUMPS[name], B0, DiskPoint(complex(xz)))
            assert abs(lhs - rhs) / abs(rhs) < 1e-2, (xz, name)


def test_lemma_check_zero_function():
    lhs, rhs = lemma_check(lambda z: np.zeros(z.shape), B0, X0)
    assert lhs == 0 and rhs == 0


def test_lemma_check_translation_covariance():
    x2 = horocycle_point(Horocycle(B0, 0.0), 0.8)
    l1, r1 = lemma_check(PSI, B0, X0)
    l2, r2 = lemma_check(PSI, B0, x2)
    assert abs(l1 - l2) < 1e-6
    assert abs(r1 - r2) < 1e-6
