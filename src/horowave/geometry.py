"""Geometry of the Poincare disk under the SU(1,1) action.

Conventions: curvature -1, length element 2|dz|/(1-|z|^2). The Busemann
bracket of a point z toward a boundary direction b is
log((1-|z|^2)/|z-b|^2); it is positive when the horocycle through z of
direction b separates the origin from b.

The bracket is computed one way, from the polar coordinates (t, psi) of z,
t = d(0, z) and psi the angle of z from b (``_polar_bracket``), and so is
the point e^beta (a + i) of the half-plane with b at infinity
(``_polar_half_plane``). Grids pass their own (t, psi); disk points take
theirs from z (``_polar_offsets``). The bracket keeps its relative digits
near the origin: at |z| from 1e-12 to 0.9, away from its sign changes, it
is within 4e-15 relative of mpmath's at the float z. Near |z| = 1 the float
z bounds any route: at |z| = 1 - 1e-6 it is within 1.6e-10.

Scalar operations work on the small value types below. Numerics-heavy
modules use the ``*_array`` helpers, which accept numpy arrays of complex
disk coordinates directly.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DiskPoint",
    "BoundaryPoint",
    "GroupElement",
    "IwasawaFactors",
    "Horocycle",
    "act",
    "geodesic_distance",
    "busemann",
    "iwasawa",
    "cartan_norm",
    "horocycle_through",
    "horocycle_point",
    "horocycle_coordinates",
    "nilpotent_flow",
    "busemann_array",
    "distance_array",
    "origin_distance",
    "horocycle_points_array",
]

# |alpha|^2 - |beta|^2 may miss 1 by this much of |alpha|^2 + |beta|^2, as their rounding
# scales with them (a translation's pass 5000 at t = 10); past it a pair is not in SU(1,1)
_DET_TOL = 1e-12


@dataclass(frozen=True)
class DiskPoint:
    """A point of the open unit disk."""

    z: complex

    def __post_init__(self):
        if not abs(self.z) < 1.0:
            raise ValueError(f"DiskPoint requires |z| < 1, got |z| = {abs(self.z)}")


@dataclass(frozen=True)
class BoundaryPoint:
    """A point of the boundary circle, stored as an angle in [0, 2pi)."""

    theta: float

    def __post_init__(self):
        if not math.isfinite(self.theta):
            raise ValueError(f"boundary angle must be finite, got {self.theta}")
        object.__setattr__(self, "theta", float(self.theta) % (2.0 * math.pi))

    @property
    def b(self) -> complex:
        """Unit-modulus boundary coordinate e^{i theta}."""
        return cmath.exp(1j * self.theta)


@dataclass(frozen=True)
class GroupElement:
    """An SU(1,1) matrix [[alpha, beta], [conj(beta), conj(alpha)]]."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        a2, b2 = abs(self.alpha) ** 2, abs(self.beta) ** 2
        if abs(a2 - b2 - 1.0) > _DET_TOL * (a2 + b2):
            raise ValueError(f"not an SU(1,1) element: |alpha|^2 - |beta|^2 = {a2 - b2}")

    @staticmethod
    def identity() -> "GroupElement":
        return GroupElement(1.0 + 0j, 0j)

    @staticmethod
    def rotation(phi: float) -> "GroupElement":
        """Rotation of the disk by angle phi (element of K)."""
        return GroupElement(cmath.exp(0.5j * phi), 0j)

    @staticmethod
    def translation(t: float) -> "GroupElement":
        """Geodesic flow a_t along the axis through b = 1 and b = -1."""
        return GroupElement(math.cosh(t / 2), math.sinh(t / 2))

    def compose(self, other: "GroupElement") -> "GroupElement":
        """self . other, divided by sqrt(|a|^2 - |b|^2) where that has drifted past its own
        rounding (2^-46 of |a|^2 + |b|^2) but not out of the group (``_DET_TOL``)."""
        a = self.alpha * other.alpha + self.beta * other.beta.conjugate()
        b = self.alpha * other.beta + self.beta * other.alpha.conjugate()
        a2, b2 = abs(a) ** 2, abs(b) ** 2
        if 2.0 ** -46 * (a2 + b2) < abs(a2 - b2 - 1.0) <= _DET_TOL * (a2 + b2):
            norm = math.sqrt(a2 - b2)
            a, b = a / norm, b / norm
        return GroupElement(a, b)

    def inverse(self) -> "GroupElement":
        return GroupElement(self.alpha.conjugate(), -self.beta)

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        return self.compose(other)


@dataclass(frozen=True)
class IwasawaFactors:
    """Factors of g = k(k_angle) . a_t . n_s."""

    k_angle: float
    t: float
    s: float

    def recompose(self) -> GroupElement:
        """k a_t n_s = e^{i k_angle/2} (cosh(t/2) + h, sinh(t/2) - h), h = (is/2) e^{t/2}."""
        k = cmath.exp(0.5j * self.k_angle)
        h = 0.5j * self.s * math.exp(0.5 * self.t)
        return GroupElement(k * (math.cosh(0.5 * self.t) + h), k * (math.sinh(0.5 * self.t) - h))


@dataclass(frozen=True)
class Horocycle:
    """Horocycle of given direction and Busemann value (level)."""

    direction: BoundaryPoint
    busemann_value: float


def act(g: GroupElement, p: DiskPoint) -> DiskPoint:
    """Mobius action of SU(1,1) on the disk."""
    z = p.z
    return DiskPoint((g.alpha * z + g.beta) / (g.beta.conjugate() * z + g.alpha.conjugate()))


def geodesic_distance(p: DiskPoint, q: DiskPoint) -> float:
    return float(distance_array(np.asarray(p.z), np.asarray(q.z)))


def busemann(p: DiskPoint, b: BoundaryPoint) -> float:
    """Signed Busemann bracket of p toward direction b."""
    return float(busemann_array(np.asarray(p.z), b.theta))


def iwasawa(g: GroupElement) -> IwasawaFactors:
    """Global K A N factorization of g, read from w = alpha + beta = e^{i k_angle/2} e^{t/2}.

    Where |w| < 1 the sum cancels; then w = (1 + 2i Im(beta conj(alpha))) / conj(alpha - beta),
    which does not cancel, as |alpha + beta| |alpha - beta| >= 1. s = 2 Im(conj(w) alpha) / |w|^2.
    The stored pair fixes t and k_angle only to about 2^-53 (|alpha| + |beta|) / |alpha + beta|.
    """
    w = g.alpha + g.beta
    if abs(w) < 1.0:
        w = (1.0 + 2j * (g.beta * g.alpha.conjugate()).imag) / (g.alpha - g.beta).conjugate()
    s = 2.0 * (w.conjugate() * g.alpha).imag / abs(w) ** 2
    return IwasawaFactors(2.0 * cmath.phase(w), 2.0 * math.log(abs(w)), s)


def cartan_norm(g: GroupElement) -> float:
    """|g| = d(o, g.o) = 2 asinh|beta|, the A-part size of the K A K decomposition."""
    return 2.0 * math.asinh(abs(g.beta))


def horocycle_through(b: BoundaryPoint, p: DiskPoint) -> Horocycle:
    return Horocycle(b, busemann(p, b))


def horocycle_point(h: Horocycle, s: float) -> DiskPoint:
    """Arc-length parametrization; y(0) sits on the geodesic from o to b."""
    z = horocycle_points_array(h.direction.theta, h.busemann_value, np.asarray(float(s)))
    return DiskPoint(complex(z))


def horocycle_coordinates(p: DiskPoint, b: BoundaryPoint) -> tuple[float, float]:
    """(busemann level, arc-length position) of p on its horocycle toward b.

    Inverse of ``horocycle_point`` in the sense that
    horocycle_point(Horocycle(b, beta), s) == p. Both are read from p's polar
    coordinates, taken once (``_polar_offsets``): beta from ``_polar_bracket``,
    as ``busemann`` reads it, and the position as the ratio of the parts of
    ``_polar_half_plane``'s e^beta (a + i); + 0.0 turns its -0.0 on b's axis,
    the origin too, into +0.0.
    """
    t, psi = _polar_offsets(p.z, b.theta)
    x = _polar_half_plane(t, psi)
    return float(_polar_bracket(t, psi)), float(x.real / x.imag) + 0.0


def nilpotent_flow(b: BoundaryPoint, s: float) -> GroupElement:
    """One-parameter unipotent flow fixing b.

    Translates the zero horocycle of direction b by arc length s:
    act(n_s, horocycle_point(xi(b,0), u)) = horocycle_point(xi(b,0), u+s).
    """
    alpha = 1.0 + 0.5j * s
    beta = -0.5j * s * b.b
    return GroupElement(alpha, beta)


# --- array-level helpers -------------------------------------------------

def busemann_array(z: np.ndarray, theta: float) -> np.ndarray:
    """Busemann bracket toward e^{i theta} at the points z, from their polar coordinates.

    z and theta broadcast: an array of z toward one direction, or one z toward
    an array of directions (``waves.spherical``).
    """
    return _polar_bracket(*_polar_offsets(z, theta))


def _polar_offsets(z, theta) -> tuple[np.ndarray, np.ndarray]:
    """(t, psi) with z = tanh(t/2) e^{i (theta + psi)}: t = d(0, z) and psi the angle of z
    from theta, wrapped into [-pi, pi) by a multiple of 2 pi. A difference of the angles
    already in that range is psi as it is, with every digit it has."""
    psi = np.angle(z) - theta
    return origin_distance(z), psi - 2.0 * np.pi * np.floor(psi / (2.0 * np.pi) + 0.5)


def _polar_bracket(t, offsets) -> np.ndarray:
    """Busemann bracket at the points tanh(t/2) e^{i (theta + psi)} toward e^{i theta}.

    t and the offsets psi broadcast; grids pass their radii as a column and the
    offsets of ``transform._angle_offsets`` as a row, and disk points take
    theirs from ``_polar_offsets``. At z = tanh(t/2) e^{i (theta + psi)} the
    bracket is -log(e^{-t} + 2 sinh t s^2), s = sin(psi/2), taken here as
    t - log1p(s^2 expm1(2t)). The log1p of a positive number keeps its
    relative digits, so near t = 0 the bracket errs by a few 2^-53 t, where
    the log of s^2 + e^{-2t} (1 - s^2), a number near 1 there, keeps only
    2^-53 absolute (1.6e-13 t at t = 1e-3). It keeps its digits where a
    grid's |z| rounds to 1 (t above about 37), and at psi = 0 it is t
    exactly, as it is 0 at t = 0. Past t = 354, where e^{2t} nears the float
    range, it is -t - log(s^2 + e^{-2t} (1 - s^2)), and t at s = 0, element
    by element: e^{-2t} loses digits there and underflows past 372. At
    s != 0 such an e^{-2t} is below 1e-17 s^2 unless theta lies within
    1e-145 of a grid angle.
    """
    s2 = np.sin(0.5 * offsets) ** 2
    B = np.asarray(np.expm1(2.0 * np.minimum(t, 354.0)) * s2)  # t past 354 is taken below
    np.log1p(B, out=B)
    np.subtract(t, B, out=B)
    if np.any(t > 354.0):
        far, tf, s2 = np.broadcast_arrays(t > 354.0, t, s2)
        tf, s2 = tf[far], s2[far]
        with np.errstate(divide="ignore"):  # log 0 at s = 0 past t = 372, not taken
            B[far] = np.where(s2 == 0.0, tf, -tf - np.log(np.exp(-2.0 * tf) * (1.0 - s2) + s2))
    return B


def _polar_half_plane(t, offsets) -> np.ndarray:
    """x = e^beta (a + i): ``_polar_bracket``'s points in the half-plane with e^{i theta} at oo.

    t and offsets broadcast. e^{-beta} = e^{-t} + 2 sinh t s^2 adds positive terms, so e^beta
    keeps a few 2^-53 relative up to t = 710, past which ``SampledField`` refuses a grid;
    e^beta a = -sin(psi) / (2 / expm1(2t) + 2 s^2) cannot overflow, t held at 354 as there,
    and is +-0.0 at t = 0, where 2 / expm1(2t) is inf.
    """
    s2 = 2.0 * np.sin(0.5 * offsets) ** 2
    x = np.empty(np.broadcast_shapes(np.shape(t), np.shape(offsets)), complex)
    with np.errstate(divide="ignore", over="ignore"):
        np.divide(-np.sin(offsets), s2 + 2.0 / np.expm1(2.0 * np.minimum(t, 354.0)), out=x.real)
    np.divide(1.0, np.exp(-t) + np.sinh(t) * s2, out=x.imag)
    return x


def distance_array(z: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Hyperbolic distance (curvature -1), vectorized.

    2 asinh(|z - w| / sqrt((1 - |z|^2)(1 - |w|^2))), unlike arccosh(1 + ...), keeps
    distances below 1e-8; |z|^2 as x^2 + y^2 rounds less than abs(z)^2 near |z| = 1.
    A point whose modulus rounds to 1 is at distance inf, and one past it at
    nan, without a warning: callers check what they need finite.
    """
    den = (1.0 - (z.real ** 2 + z.imag ** 2)) * (1.0 - (w.real ** 2 + w.imag ** 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        return 2.0 * np.arcsinh(np.abs(z - w) / np.sqrt(den))


def origin_distance(z: np.ndarray) -> np.ndarray:
    """Hyperbolic distance d(0, z) = 2 artanh|z|, vectorized; inf and nan as in ``distance_array``."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return 2.0 * np.arctanh(np.abs(z))


def horocycle_points_array(theta: float, beta: float, s: np.ndarray) -> np.ndarray:
    """Arc-length parametrization of the horocycle (direction, level).

    Computed through the half-plane model: the Cayley map sending the
    direction to infinity turns the horocycle into the line Im w = e^beta,
    on which w(s) = e^beta (s + i) is unit speed.
    """
    b = np.exp(1j * theta)
    w = np.exp(beta) * (s + 1j)
    return b * (w - 1j) / (w + 1j)
