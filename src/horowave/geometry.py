"""Geometry of the Poincare disk under the SU(1,1) action.

Conventions: curvature -1, length element 2|dz|/(1-|z|^2). The Busemann
bracket of a point z toward a boundary direction b is
log((1-|z|^2)/|z-b|^2); it is positive when the horocycle through z of
direction b separates the origin from b.

Scalar operations work on the small value types below. Numerics-heavy
modules use the ``*_array`` helpers, which accept numpy arrays of complex
disk coordinates directly.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

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

_RENORM_EVERY = 100  # compositions between SU(1,1) renormalizations


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
    _compositions: int = field(default=0, compare=False)

    def __post_init__(self):
        a2, b2 = abs(self.alpha) ** 2, abs(self.beta) ** 2  # a translation's pass 5000 at t = 10
        if abs(a2 - b2 - 1.0) > 1e-12 * (a2 + b2):  # relative, as their rounding scales with them
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
        a = self.alpha * other.alpha + self.beta * other.beta.conjugate()
        b = self.alpha * other.beta + self.beta * other.alpha.conjugate()
        n = self._compositions + other._compositions + 1
        if n >= _RENORM_EVERY:
            norm = math.sqrt(abs(a) ** 2 - abs(b) ** 2)
            a, b, n = a / norm, b / norm, 0
        return GroupElement(a, b, n)

    def inverse(self) -> "GroupElement":
        return GroupElement(self.alpha.conjugate(), -self.beta, self._compositions)

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        return self.compose(other)


@dataclass(frozen=True)
class IwasawaFactors:
    """Factors of g = k(k_angle) . a_t . n_s."""

    k_angle: float
    t: float
    s: float

    def recompose(self) -> GroupElement:
        k = GroupElement.rotation(self.k_angle)
        a = GroupElement.translation(self.t)
        n = nilpotent_flow(BoundaryPoint(0.0), self.s)
        return k.compose(a).compose(n)


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
    """Global K A N factorization of g.

    The K angle is read off from the action on the fixed boundary point
    b = 1 of both A and N; the remaining upper-triangular-like factor
    splits algebraically: for h = a_t n_s one has alpha_h + beta_h =
    e^{t/2} and Im(alpha_h) = (s/2) e^{t/2}.
    """
    w = g.alpha + g.beta
    phi = 2.0 * cmath.phase(w)
    k_inv = GroupElement.rotation(-phi)
    h = k_inv.compose(g)
    wt = h.alpha + h.beta  # positive real up to roundoff
    t = 2.0 * math.log(abs(wt))
    s = 2.0 * h.alpha.imag * math.exp(-t / 2.0)
    return IwasawaFactors(phi, t, s)


def cartan_norm(g: GroupElement) -> float:
    """|g| = d(o, g.o), the A-part size of the K A K decomposition."""
    z = g.beta / g.alpha.conjugate()
    return 2.0 * math.atanh(abs(z))


def horocycle_through(b: BoundaryPoint, p: DiskPoint) -> Horocycle:
    return Horocycle(b, busemann(p, b))


def horocycle_point(h: Horocycle, s: float) -> DiskPoint:
    """Arc-length parametrization; y(0) sits on the geodesic from o to b."""
    z = horocycle_points_array(h.direction.theta, h.busemann_value, np.asarray(float(s)))
    return DiskPoint(complex(z))


def horocycle_coordinates(p: DiskPoint, b: BoundaryPoint) -> tuple[float, float]:
    """(busemann level, arc-length position) of p on its horocycle toward b.

    Inverse of ``horocycle_point`` in the sense that
    horocycle_point(Horocycle(b, beta), s) == p.
    """
    bc = b.b
    w = 1j * (bc + p.z) / (bc - p.z)  # half-plane coordinate, b -> infinity
    beta = math.log(w.imag)
    s = w.real / w.imag
    return beta, s


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
    """Busemann bracket toward e^{i theta}, vectorized over complex z."""
    b = np.exp(1j * theta)
    return np.log((1.0 - np.abs(z) ** 2) / np.abs(z - b) ** 2)


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
