"""Exact-contract arithmetic on the closed unit disk and its boundary circle.

Disk automorphisms are unit-determinant matrices ``[[a, b], [conj(b),
conj(a)]]`` acting by ``z -> (a z + b) / (conj(b) z + conj(a))``, kept only up
to global sign.  On the boundary circle each acts through its real matrix
``MoebiusPSU.real`` on the Cayley coordinate x = -cot(theta / 2), the one
boundary action of the library (``apply_angle``).  A geodesic is a diameter
or an arc of a Euclidean circle orthogonal to the unit circle;
``geodesic_circles`` gives those circles in closed form from the ideal
endpoints, on arrays, and ``geodesic_circle`` for one geodesic.  The vertex
frame moves an interior point to 0, where the geodesics through it are
diameters.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .tolerances import WRAP
from .errors import NonFinite

TAU = 2.0 * math.pi

# DET_ROUNDING (|a|^2 + |b|^2) bounds the rounding of |a|^2 - |b|^2 for a
# pair meant to have determinant 1: c eps, eps = 2^-52, in units u = eps / 2.
# Evaluating it: abs() within one ulp (2u), squared (5u), the difference
# (u): 3 eps.  An entry of relative error k u moves it by 2 k u |entry|^2;
# the closed forms of ``polygon`` take k <= 6 in standard position
# (function values, a product, a sum, the division by sin) and at most two
# turns by a rounded unit of 1 + sqrt(5) < 3.5 each: 13 eps.  c = 16.
DET_ROUNDING = 16 * 2.0 ** -52


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


@dataclass(frozen=True)
class DiskPoint:
    """A point of the open unit disk."""

    z: complex

    def __post_init__(self) -> None:
        _check_finite(self.z)
        if abs(self.z) >= 1.0 - 1e-12:
            raise ValueError(f"|z| = {abs(self.z)} is not interior")


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
        """The pair (a, b), rescaled to determinant 1 only when its drift,
        as from a long product, exceeds the rounding of det itself
        (``DET_ROUNDING``); a closed-form pair is kept as it is."""
        a, b = complex(a), complex(b)
        aa, bb = abs(a) ** 2, abs(b) ** 2
        det = aa - bb
        if det > 0 and abs(det - 1.0) > DET_ROUNDING * (aa + bb):
            s = 1.0 / math.sqrt(det)
            a, b = a * s, b * s
        a, b = cls._sign_normalize(a, b)
        return cls(a, b)

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

    @functools.cached_property
    def real(self) -> tuple[float, float, float, float]:
        """(p, q, r, s) of the action x -> (p x + q) / (r x + s) on the
        Cayley coordinate x = -cot(theta / 2) = i (1 + z) / (1 - z): with
        a = a1 + i a2 and b = b1 + i b2 it is (a1 + b1, a2 - b2, -(a2 + b2),
        a1 - b1), of determinant |a|^2 - |b|^2 (see README)."""
        a, b = self.a, self.b
        return (a.real + b.real, a.imag - b.imag, -(a.imag + b.imag),
                a.real - b.real)

    def apply_boundary(self, p: BoundaryPoint) -> BoundaryPoint:
        return BoundaryPoint.from_angle(self.apply_angle(p.theta))

    def apply_angle(self, theta: float) -> float:
        """The image in [0, 2pi) of the boundary point at angle ``theta``,
        by ``real`` on its Cayley coordinate, taken as ``arcs.cayley`` takes
        it (the seam x = -inf at theta = 0 and for x under -1e300).  A zero
        denominator gives the seam, and the seam maps to p / r, or to itself
        when r = 0.  A NaN angle gives NaN."""
        p, q, r, s = self.real
        h = 0.5 * theta
        sin = math.sin(h)
        x = -math.cos(h) / sin if sin else -math.inf
        if math.isinf(x) or x < -1e300:
            y = p / r if r else math.inf
        else:
            d = r * x + s
            y = (p * x + q) / d if d else math.inf
        return 2.0 * math.atan2(1.0, -y) % TAU

    def derivative_modulus(self, z: complex) -> float:
        return 1.0 / abs(self.b.conjugate() * z + self.a.conjugate()) ** 2


# -- geodesics --------------------------------------------------------------


def vertex_frame(z: complex, w: complex) -> complex:
    """The disk automorphism w -> (w - z) / (1 - conj(z) w): it moves z to 0
    with a positive real derivative, so geodesics through z become radii in
    their own directions; ``vertex_frame(-z, .)`` is its inverse."""
    return (w - z) / (1 - z.conjugate() * w)


def geodesic_circles(u, w):
    """Centres c, radii r and diameter mask of the circles carrying the
    geodesics with ideal ends u and w, complex arrays of unit modulus.  The
    centre is the pole of the chord uw, (u + w) / (1 + Re(u conj(w))) = 2 /
    conj(u + w) since |u + w|^2 = 2 (1 + Re(u conj(w))); the second form
    keeps its relative accuracy as u and w near antipodes, where the first
    one's denominator cancels.  A diameter, Im(conj(u) w) = 0, has no
    circle, and its c and r are not used."""
    u, w = np.asarray(u, dtype=complex), np.asarray(w, dtype=complex)
    # 1e-13 stays: diameters read <= 1.2e-16, other sides >= 3.9e-3 (400;;1)
    diameter = np.abs((np.conj(u) * w).imag) < 1e-13
    with np.errstate(all="ignore"):
        c = 2.0 / np.conj(u + w)
    return c, np.abs(c - u), diameter


def geodesic_circle(u: BoundaryPoint,
                    w: BoundaryPoint) -> tuple[complex, float] | None:
    """``geodesic_circles`` of one geodesic: its centre and radius, or None
    for a diameter."""
    c, r, diameter = geodesic_circles(u.z, w.z)
    return None if diameter else (complex(c), float(r))


def geodesic_far_end(u: BoundaryPoint, p: DiskPoint) -> BoundaryPoint:
    """The second ideal endpoint of the geodesic from u through p: in the
    ``vertex_frame`` of p that geodesic is a diameter, so its far end is the
    antipode of u's image there, moved back."""
    z = p.z
    return BoundaryPoint.from_angle(cmath.phase(
        vertex_frame(-z, -vertex_frame(z, u.z))))
