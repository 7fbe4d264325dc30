"""Disk geometry: group action, distances, Busemann brackets, horocycles."""
import cmath
import math

import numpy as np
import pytest

import oracles
from horowave.geometry import (
    BoundaryPoint,
    DiskPoint,
    GroupElement,
    Horocycle,
    act,
    busemann,
    busemann_array,
    cartan_norm,
    distance_array,
    geodesic_distance,
    horocycle_coordinates,
    horocycle_point,
    horocycle_through,
    iwasawa,
    nilpotent_flow,
)

RNG = np.random.default_rng(7)


def random_group():
    t = RNG.uniform(-2.5, 2.5)
    p1, p2 = RNG.uniform(0, 2 * math.pi, 2)
    return (GroupElement.rotation(p1)
            .compose(GroupElement.translation(t))
            .compose(GroupElement.rotation(p2)))


def random_point(rmax=0.9):
    return DiskPoint(RNG.uniform(0, rmax) * np.exp(1j * RNG.uniform(0, 2 * math.pi)))


def test_disk_point_rejects_boundary():
    with pytest.raises(ValueError):
        DiskPoint(1.0 + 0j)
    with pytest.raises(ValueError):
        DiskPoint(0.8 + 0.7j)


def test_boundary_point_angle_normalized():
    assert BoundaryPoint(2 * math.pi + 0.3).theta == pytest.approx(0.3)
    assert abs(BoundaryPoint(0.3).b) == pytest.approx(1.0)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_boundary_point_rejects_non_finite_angles(theta):
    with pytest.raises(ValueError, match="finite"):
        BoundaryPoint(theta)


def test_group_element_determinant_enforced():
    with pytest.raises(ValueError):
        GroupElement(1.5 + 0j, 0j)


def test_identity_and_inverse():
    for _ in range(20):
        g = random_group()
        gi = g.compose(g.inverse())
        assert abs(gi.alpha - 1.0) < 1e-12
        assert abs(gi.beta) < 1e-12


def test_long_composition_stays_in_group():
    g = GroupElement.rotation(0.37).compose(GroupElement.translation(0.11))
    acc = GroupElement.identity()
    for _ in range(5000):
        acc = acc.compose(g)
    det = abs(acc.alpha) ** 2 - abs(acc.beta) ** 2
    assert abs(det - 1.0) < 1e-12


def test_translation_chain_tracks_its_closed_form():
    # dividing by sqrt(|alpha|^2 - |beta|^2) where that differs from 1 only by its own
    # rounding would inject the rounding, and it rounds to 0 from t = 60 (measured: at
    # most 9.3e-15 here)
    step, acc = GroupElement.translation(0.3), GroupElement.identity()
    for i in range(1, 230):
        acc = acc.compose(step)
        c, s = math.cosh(0.15 * i), math.sinh(0.15 * i)
        assert max(abs(acc.alpha - c), abs(acc.beta - s)) <= 1e-13 * c


def test_long_chains_renormalize_on_drift():
    # past the rounding of |alpha|^2 - |beta|^2, 2^-46 of |alpha|^2 + |beta|^2, compose
    # divides the pair back into the group; with no renormalization these chains raise
    # within 2719-13740 compositions
    for g in (GroupElement.rotation(0.37) @ GroupElement.translation(0.11),
              GroupElement.rotation(0.1),
              GroupElement.rotation(0.2) @ GroupElement.translation(0.2)):
        acc = GroupElement.identity()
        for _ in range(20000):
            acc = acc.compose(g)
            a2, b2 = abs(acc.alpha) ** 2, abs(acc.beta) ** 2
            assert abs(a2 - b2 - 1.0) <= 2.0 ** -46 * (a2 + b2)


def test_distance_closed_form():
    # d(0, r) = log((1 + r)/(1 - r))
    for r in (0.1, 0.5, 0.9):
        d = geodesic_distance(DiskPoint(0j), DiskPoint(r + 0j))
        assert d == pytest.approx(math.log((1 + r) / (1 - r)), abs=1e-13)


def test_distance_isometry_invariance():
    for _ in range(100):
        g = random_group()
        z, w = random_point(), random_point()
        assert abs(geodesic_distance(z, w)
                   - geodesic_distance(act(g, z), act(g, w))) < 1e-11


def test_translation_moves_origin_along_axis():
    g = GroupElement.translation(1.3)
    z = act(g, DiskPoint(0j)).z
    assert z.imag == pytest.approx(0.0, abs=1e-15)
    assert geodesic_distance(DiskPoint(0j), DiskPoint(z)) == pytest.approx(1.3)


def test_busemann_radial_closed_form():
    b = BoundaryPoint(1.3)
    assert abs(busemann(DiskPoint(0.5 * b.b), b) - math.log(3.0)) < 1e-12


def test_busemann_zero_at_origin():
    assert busemann(DiskPoint(0j), BoundaryPoint(2.1)) == pytest.approx(0.0, abs=1e-15)


def test_busemann_constant_on_horocycle():
    h = Horocycle(BoundaryPoint(0.9), -0.4)
    vals = [busemann(horocycle_point(h, s), h.direction) for s in (-3.0, -0.5, 0.0, 2.2)]
    assert max(abs(v + 0.4) for v in vals) < 1e-12


def test_busemann_cocycle_under_translation():
    # B(g.z, g.b) - B(z, b) is independent of z for g fixing the direction
    b = BoundaryPoint(0.0)
    g = GroupElement.translation(0.8)  # fixes b = 1
    deltas = [busemann(act(g, z), b) - busemann(z, b)
              for z in (DiskPoint(0j), DiskPoint(0.3 + 0.2j), DiskPoint(-0.5j))]
    assert max(abs(d - deltas[0]) for d in deltas) < 1e-12
    assert deltas[0] == pytest.approx(0.8, abs=1e-12)


def test_iwasawa_round_trip():
    for _ in range(300):
        g = random_group()
        h = iwasawa(g).recompose()
        assert abs(g.alpha - h.alpha) < 1e-10
        assert abs(g.beta - h.beta) < 1e-10


def far_draws(seed, n=300):
    """n seeded draws of g = k a_t k' with |t| <= 30, two points |z|, |w| <= 0.9 and a b."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        t = rng.uniform(-30.0, 30.0)
        p1, p2, theta = rng.uniform(0.0, 2.0 * math.pi, 3)
        g = (GroupElement.rotation(p1).compose(GroupElement.translation(t))
             .compose(GroupElement.rotation(p2)))
        z, w = (DiskPoint(r * np.exp(1j * a))
                for r, a in zip(rng.uniform(0.0, 0.9, 2), rng.uniform(0.0, 2.0 * math.pi, 2)))
        yield t, g, z, w, BoundaryPoint(theta)


def test_iwasawa_round_trip_far_from_the_origin():
    # the K angle is the phase of alpha + beta, which carries a rounding of a few
    # (|alpha| + |beta|) 2^-53, so the round trip keeps that many 2^-53 of |alpha| + |beta|
    # times (|alpha| + |beta|) / |alpha + beta|; the draws put the angles at random, where
    # that factor stays small (measured: at most 7.6 2^-53 times it over 20000 draws, and
    # a relative 1.4e-13)
    for _, g, *_ in far_draws(1):
        h = iwasawa(g).recompose()
        scale = abs(g.alpha) + abs(g.beta)
        bound = 64.0 * 2.0 ** -53 * scale / abs(g.alpha + g.beta)
        assert max(abs(g.alpha - h.alpha), abs(g.beta - h.beta)) <= bound * scale


# g = k a_t k' maps |z| <= 0.9 to 1 - |g.z|^2 >= (1 - |z|) / (1 + |z|) e^{-|t|} >= e^{-|t|} / 19,
# and g.z carries a few 2^-53 of absolute rounding. So each log of 1 - |g.z|^2, or of
# |g.z - g.b|^2, in a distance or a Busemann bracket loses about 4 * 19 e^{|t|} 2^-53; the two
# or three such logs of each check stay below FAR_BOUND e^{|t|} 2^-53 (measured: at most 35
# and 57 e^{|t|} 2^-53 over 30000 draws)
FAR_BOUND = 256.0


def test_distance_isometry_invariance_far_from_the_origin():
    for t, g, z, w, _ in far_draws(2):
        err = abs(geodesic_distance(z, w) - geodesic_distance(act(g, z), act(g, w)))
        assert err <= FAR_BOUND * math.exp(abs(t)) * 2.0 ** -53


def test_busemann_cocycle_far_from_the_origin():
    # B(g.z, g.b) = B(z, b) + B(g.o, g.b), with g acting on the boundary by the same Mobius map
    for t, g, z, _, b in far_draws(3):
        gb = BoundaryPoint(cmath.phase((g.alpha * b.b + g.beta)
                                       / (g.beta.conjugate() * b.b + g.alpha.conjugate())))
        err = abs(busemann(act(g, z), gb) - busemann(z, b) - busemann(act(g, DiskPoint(0j)), gb))
        assert err <= FAR_BOUND * math.exp(abs(t)) * 2.0 ** -53


@pytest.mark.parametrize("t", [10.0, 12.0, 15.0, 20.0, 25.0, 30.0, 35.0])
def test_long_translations_stay_in_group(t):
    # |alpha|^2 passes 5000 from t = 10 on: the determinant check is relative
    g = GroupElement.translation(t)
    assert iwasawa(g).t == t
    # alpha + beta = e^{-t/2} cancels from terms of size e^{t/2}; alpha - beta does not
    assert abs(iwasawa(GroupElement.translation(-t)).t + t) <= 1e-15 * t
    half = GroupElement.translation(t / 2) @ GroupElement.translation(t / 2)
    assert abs(half.alpha - g.alpha) <= 1e-15 * abs(g.alpha)
    assert abs(half.beta - g.beta) <= 1e-15 * abs(g.beta)


def round_trip_error(g):
    """max |g - iwasawa(g).recompose()| over alpha and beta, relative to |alpha| + |beta|."""
    h = iwasawa(g).recompose()
    return max(abs(g.alpha - h.alpha), abs(g.beta - h.beta)) / (abs(g.alpha) + abs(g.beta))


def test_iwasawa_round_trip_where_alpha_plus_beta_cancels():
    g = (GroupElement.rotation(0.3) @ GroupElement.translation(-20.0)
         @ GroupElement.rotation(1e-8))
    assert round_trip_error(g) <= 1e-14


def test_iwasawa_round_trip_near_cancellation():
    # g = k a_t k' with k' within 1e-2 of the identity: |alpha + beta| falls toward
    # e^{-|t|/2} for t < 0, and the stored pair fixes t and the K angle only to about
    # 2^-53 (|alpha| + |beta|) / |alpha + beta| (measured: at most 1.1e-9 over 3000
    # draws to |t| = 35)
    rng = np.random.default_rng(3)
    for _ in range(1000):
        t, p1 = rng.uniform(-35.0, 35.0), rng.uniform(0.0, 2.0 * math.pi)
        g = (GroupElement.rotation(p1) @ GroupElement.translation(t)
             @ GroupElement.rotation(10.0 ** rng.uniform(-12.0, -2.0)))
        assert round_trip_error(g) <= 1e-8


def test_iwasawa_pure_factors():
    f = iwasawa(GroupElement.translation(0.9))
    assert f.t == pytest.approx(0.9, abs=1e-12)
    assert f.s == pytest.approx(0.0, abs=1e-12)
    f = iwasawa(nilpotent_flow(BoundaryPoint(0.0), 1.7))
    assert f.t == pytest.approx(0.0, abs=1e-12)
    assert f.s == pytest.approx(1.7, abs=1e-12)


def test_cartan_norm_is_distance_to_translated_origin():
    for _ in range(50):
        g = random_group()
        d = geodesic_distance(DiskPoint(0j), act(g, DiskPoint(0j)))
        assert cartan_norm(g) == pytest.approx(d, abs=1e-12)


@pytest.mark.parametrize("t", [10.0, 20.0, 30.0, 35.0])
def test_cartan_norm_at_long_translations(t):
    # 2 asinh|beta| keeps its digits where |beta / conj(alpha)| rounds toward 1
    g = GroupElement.rotation(0.4) @ GroupElement.translation(t) @ GroupElement.rotation(1.1)
    assert abs(cartan_norm(g) - t) <= 1e-15 * t


def test_horocycle_arc_length_law():
    h = Horocycle(BoundaryPoint(0.7), 0.0)
    y0 = horocycle_point(h, 0.0)
    for s in np.linspace(-6, 6, 25):
        d = geodesic_distance(y0, horocycle_point(h, float(s)))
        assert abs(math.cosh(d) - (1.0 + s * s / 2.0)) < 1e-9


def test_horocycle_coordinates_invert_parametrization():
    h = Horocycle(BoundaryPoint(1.9), -0.6)
    for s in (-2.0, 0.0, 0.7, 3.1):
        p = horocycle_point(h, s)
        beta, u = horocycle_coordinates(p, h.direction)
        assert beta == pytest.approx(-0.6, abs=1e-12)
        assert u == pytest.approx(s, abs=1e-12)


def test_horocycle_through_recovers_level():
    x = DiskPoint(0.3 - 0.4j)
    b = BoundaryPoint(0.2)
    h = horocycle_through(b, x)
    assert h.busemann_value == pytest.approx(busemann(x, b), abs=1e-15)


def test_nilpotent_flow_shifts_arc_length():
    b = BoundaryPoint(1.1)
    h = Horocycle(b, 0.0)
    n = nilpotent_flow(b, 0.9)
    for u in (-1.0, 0.0, 2.0):
        moved = act(n, horocycle_point(h, u))
        expect = horocycle_point(h, u + 0.9)
        assert abs(moved.z - expect.z) < 1e-12


def test_nilpotent_flow_fixes_direction_level():
    b = BoundaryPoint(1.1)
    n = nilpotent_flow(b, 2.3)
    x = DiskPoint(0.2 + 0.1j)
    assert busemann(act(n, x), b) == pytest.approx(busemann(x, b), abs=1e-12)


def test_array_helpers_match_scalars():
    z = np.array([0.1 + 0.2j, -0.4j, 0.55])
    th = 0.8
    expect = [busemann(DiskPoint(v), BoundaryPoint(th)) for v in z]
    np.testing.assert_allclose(busemann_array(z, th), expect, atol=1e-14)
    w = np.array([0.3, -0.2 + 0.1j, 0j])
    expect = [geodesic_distance(DiskPoint(a), DiskPoint(b)) for a, b in zip(z, w)]
    np.testing.assert_allclose(distance_array(z, w), expect, atol=1e-13)


@pytest.mark.parametrize("radius, bound", [(0.0, 1e-15), (0.3, 1e-15), (0.999, 1e-13)])
def test_distance_array_matches_mpmath_down_to_1e_12(radius, bound):
    rng = np.random.default_rng(11)
    z = radius * np.exp(2j * np.pi * rng.uniform(size=200))
    d = np.logspace(-12, 0, 200)
    r = np.tanh(d / 2) * np.exp(2j * np.pi * rng.uniform(size=200))
    w = (r + z) / (1 + np.conj(z) * r)  # about d from z
    ref = np.array([oracles.hyperbolic_distance(a, b) for a, b in zip(z, w)])
    assert np.max(np.abs(distance_array(z, w) / ref - 1.0)) <= bound
