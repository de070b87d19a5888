"""Exact-contract arithmetic on the closed unit disk and its boundary circle.

Disk automorphisms are unit-determinant matrices ``[[a, b], [conj(b),
conj(a)]]`` acting by ``z -> (a z + b) / (conj(b) z + conj(a))``, kept only up
to global sign.  Geodesics are diameters or arcs of Euclidean circles
orthogonal to the unit circle; isometric circles are the loci where such a
map has unit derivative modulus.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .tolerances import WRAP
from .errors import DegenerateGeodesic, NoIsometricCircle, NonFinite

TAU = 2.0 * math.pi


def normalize_angle(theta: float) -> float:
    """Wrap to [0, 2pi), snapping values within the wrap guard of 2pi to 0."""
    t = theta % TAU
    if t >= TAU - WRAP:
        return 0.0
    return t


def angular_distance(t1: float, t2: float) -> float:
    """Shorter-way distance between two angles on the circle."""
    d = abs(t1 - t2) % TAU
    return min(d, TAU - d)


def _check_finite(*values: complex) -> None:
    for v in values:
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise NonFinite(f"non-finite value {v!r}")


@dataclass(frozen=True)
class BoundaryPoint:
    """A point of the boundary circle, angle-primary with |z| = 1."""

    theta: float
    z: complex

    @classmethod
    def from_angle(cls, theta: float) -> "BoundaryPoint":
        t = normalize_angle(theta)
        return cls(t, cmath.exp(1j * t))

    @classmethod
    def from_complex(cls, z: complex) -> "BoundaryPoint":
        _check_finite(complex(z))
        r = abs(z)
        if abs(r - 1.0) > 1e-12:
            raise ValueError(f"|z| = {r} is not 1 within 1e-12")
        return cls.from_angle(cmath.phase(z))

    def distance_to(self, other: "BoundaryPoint") -> float:
        return angular_distance(self.theta, other.theta)

    def antipode(self) -> "BoundaryPoint":
        return BoundaryPoint.from_angle(self.theta + math.pi)


@dataclass(frozen=True)
class DiskPoint:
    """A point of the open unit disk."""

    z: complex

    def __post_init__(self) -> None:
        _check_finite(self.z)
        if abs(self.z) >= 1.0 - 1e-12:
            raise ValueError(f"|z| = {abs(self.z)} is not interior")


@dataclass(frozen=True)
class EuclideanCircle:
    center: complex
    radius: float

    def __post_init__(self) -> None:
        _check_finite(self.center, complex(self.radius))
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    def orthogonality_residual(self) -> float:
        """|center|^2 - radius^2 - 1; zero iff orthogonal to the unit circle."""
        return abs(self.center) ** 2 - self.radius ** 2 - 1.0

    def boundary_intersections(self) -> tuple[BoundaryPoint, BoundaryPoint]:
        """The two meeting points with the unit circle (orthogonal case)."""
        c, r = self.center, self.radius
        s = c / abs(c) ** 2
        return (BoundaryPoint.from_complex(s * (1 + 1j * r)),
                BoundaryPoint.from_complex(s * (1 - 1j * r)))


@dataclass(frozen=True, eq=False)
class MoebiusPSU:
    """Orientation-preserving disk isometry, a matrix up to global sign.

    ``a`` and ``b`` are the top row of ``[[a, b], [conj(b), conj(a)]]`` with
    ``|a|^2 - |b|^2 = 1``.  The stored representative has its largest-modulus
    top-row entry rotated to non-negative real part (imaginary part as a tie
    break), so equal group elements normalize to the same floats up to
    rounding.
    """

    a: complex
    b: complex

    def __post_init__(self) -> None:
        _check_finite(self.a, self.b)
        det = abs(self.a) ** 2 - abs(self.b) ** 2
        # absolute rounding in |a|^2 - |b|^2 scales with the entry size
        if abs(det - 1.0) > 1e-10 * max(1.0, abs(self.a) ** 2):
            raise ValueError(f"determinant {det} is not 1 within tolerance")

    # -- construction -----------------------------------------------------

    @staticmethod
    def _sign_normalize(a: complex, b: complex) -> tuple[complex, complex]:
        lead = a if abs(a) >= abs(b) else b
        if lead.real < 0 or (lead.real == 0 and lead.imag < 0):
            return -a, -b
        return a, b

    @classmethod
    def from_ab(cls, a: complex, b: complex) -> "MoebiusPSU":
        a, b = complex(a), complex(b)
        det = abs(a) ** 2 - abs(b) ** 2
        if det > 0 and abs(det - 1.0) > 1e-15:
            s = 1.0 / math.sqrt(det)   # absorb drift from long products
            a, b = a * s, b * s
        a, b = cls._sign_normalize(a, b)
        return cls(a, b)

    @classmethod
    def from_coeffs(cls, m00: complex, m01: complex, m10: complex,
                    m11: complex) -> "MoebiusPSU":
        """Normalize any matrix of a disk automorphism into PSU(1,1) shape.

        Dividing by a square root of the determinant lands in SU(1,1) up to
        sign whenever the input genuinely preserves the disk; the shape is
        verified and rejected otherwise.
        """
        _check_finite(complex(m00), complex(m01), complex(m10), complex(m11))
        det = m00 * m11 - m01 * m10
        if abs(det) < 1e-14:
            raise ValueError("matrix is singular")
        s = cmath.sqrt(det)
        a, b, c, d = m00 / s, m01 / s, m10 / s, m11 / s
        shape = abs(c - b.conjugate()) + abs(d - a.conjugate())
        if shape > 1e-8 * max(1.0, abs(a) + abs(b)):
            raise ValueError(f"matrix does not preserve the disk (residual {shape:.2e})")
        return cls.from_ab(a, b)

    @classmethod
    def identity(cls) -> "MoebiusPSU":
        return cls(1.0 + 0j, 0j)

    @classmethod
    def rotation(cls, phi: float) -> "MoebiusPSU":
        """Rotation z -> e^{i phi} z about the origin."""
        return cls.from_ab(cmath.exp(0.5j * phi), 0j)

    # -- group structure --------------------------------------------------

    def __matmul__(self, other: "MoebiusPSU") -> "MoebiusPSU":
        a = self.a * other.a + self.b * other.b.conjugate()
        b = self.a * other.b + self.b * other.a.conjugate()
        return MoebiusPSU.from_ab(a, b)

    def inverse(self) -> "MoebiusPSU":
        return MoebiusPSU.from_ab(self.a.conjugate(), -self.b)

    def power(self, n: int) -> "MoebiusPSU":
        if n < 0:
            return self.inverse().power(-n)
        out = MoebiusPSU.identity()
        base = self
        while n:
            if n & 1:
                out = out @ base
            base = base @ base
            n >>= 1
        return out

    def sign_distance(self, other: "MoebiusPSU") -> float:
        """min over signs of the entrywise distance; zero iff equal in PSU."""
        plus = abs(self.a - other.a) + abs(self.b - other.b)
        minus = abs(self.a + other.a) + abs(self.b + other.b)
        return min(plus, minus)

    @property
    def trace(self) -> float:
        """a + conj(a); real for PSU(1,1) representatives, defined up to sign."""
        return 2.0 * self.a.real

    # -- action ------------------------------------------------------------

    def apply(self, z: complex) -> complex:
        """Act on a point of the closed disk.

        The pole -conj(a)/conj(b) has modulus > 1, so the action is defined
        on all of |z| <= 1.
        """
        _check_finite(complex(z))
        return (self.a * z + self.b) / (self.b.conjugate() * z + self.a.conjugate())

    def apply_boundary(self, p: BoundaryPoint) -> BoundaryPoint:
        w = self.apply(p.z)
        return BoundaryPoint.from_angle(cmath.phase(w))

    def apply_angle(self, theta: float) -> float:
        return cmath.phase(self.apply(cmath.exp(1j * theta))) % TAU

    def derivative_modulus(self, z: complex) -> float:
        return 1.0 / abs(self.b.conjugate() * z + self.a.conjugate()) ** 2

    # -- invariants ---------------------------------------------------------

    def isometric_circle(self) -> EuclideanCircle:
        """Locus |conj(b) z + conj(a)| = 1 where the derivative has modulus 1."""
        if abs(self.b) < 1e-14:
            raise NoIsometricCircle("rotation about 0 has no isometric circle")
        return EuclideanCircle(-self.a.conjugate() / self.b.conjugate(),
                               1.0 / abs(self.b))


# -- geodesics --------------------------------------------------------------


@dataclass(frozen=True)
class Geodesic:
    """Complete geodesic: a diameter, or an arc of an orthogonal circle.

    ``endpoints`` is the ordered pair of ideal endpoints; ``circle`` is None
    exactly for diameters.
    """

    endpoints: tuple[BoundaryPoint, BoundaryPoint]
    circle: EuclideanCircle | None

    @property
    def is_diameter(self) -> bool:
        return self.circle is None


def _orthogonal_circle(rows: list[tuple[float, float, float]]) -> EuclideanCircle | None:
    """Solve the two linear incidence equations for an orthogonal circle.

    Each row is (x, y, rhs) for Re(conj(center) * (x + iy)) = rhs.  Returns
    None when the system is singular (the configuration is a diameter).
    """
    (x1, y1, r1), (x2, y2, r2) = rows
    det = x1 * y2 - y1 * x2
    if abs(det) < 1e-13:
        return None
    cx = (r1 * y2 - r2 * y1) / det
    cy = (x1 * r2 - x2 * r1) / det
    c = complex(cx, cy)
    rr = abs(c) ** 2 - 1.0
    if rr <= 0:
        return None
    return EuclideanCircle(c, math.sqrt(rr))


def geodesic_from_boundary_pair(u: BoundaryPoint, w: BoundaryPoint) -> Geodesic:
    """The complete geodesic with the two given ideal endpoints."""
    if u.distance_to(w) < 1e-12:
        raise DegenerateGeodesic("coincident ideal endpoints")
    circ = _orthogonal_circle([(u.z.real, u.z.imag, 1.0),
                               (w.z.real, w.z.imag, 1.0)])
    return Geodesic((u, w), circ)


def geodesic_through_interior(u: BoundaryPoint, p: DiskPoint) -> Geodesic:
    """The complete geodesic through an ideal point and an interior point.

    The returned endpoints are (u, second ideal endpoint).
    """
    z = p.z
    circ = _orthogonal_circle([(u.z.real, u.z.imag, 1.0),
                               (z.real, z.imag, (1.0 + abs(z) ** 2) / 2.0)])
    if circ is None:
        return Geodesic((u, u.antipode()), None)
    e1, e2 = circ.boundary_intersections()
    second = e1 if e1.distance_to(u) > e2.distance_to(u) else e2
    return Geodesic((u, second), circ)
