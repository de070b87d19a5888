"""Oriented circular arcs, products of arcs, and angular measure.

All arcs are stored counter-clockwise: an arc is a start angle plus a sweep
in (0, 2pi].  A rectangle list becomes one ``RectArray``; ``seam_split``
turns its arcs into plain intervals in [0, 2pi].  Two rectangles intersect
in the product of their u- and w-overlaps, each the summed overlap of the
arcs' intervals (``_overlap_lengths``): every rectangle measure of the
library is a sum of such products, exact up to endpoint rounding.
``cayley`` maps angles to the real line, where the gluings act by real
matrices.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .mobius import TAU, BoundaryPoint, normalize_angle
from .tolerances import WRAP


def ccw_sweep(start: float, end: float, full_if_equal: bool = False) -> float:
    """Counter-clockwise sweep from start to end, resolving 0 vs 2pi."""
    s = (end - start) % TAU
    if s < WRAP:
        return TAU if full_if_equal else 0.0
    return s


@dataclass(frozen=True)
class DirectedArc:
    """Closed circular arc from ``start`` running counter-clockwise by
    ``sweep`` radians to ``end``."""

    start: BoundaryPoint
    end: BoundaryPoint
    sweep: float

    def __post_init__(self) -> None:
        if not WRAP < self.sweep <= TAU:
            raise ValueError(f"sweep {self.sweep} outside (0, 2pi]")

    @classmethod
    def ccw(cls, start: BoundaryPoint, end: BoundaryPoint,
            full_if_equal: bool = False) -> "DirectedArc":
        return cls(start, end, ccw_sweep(start.theta, end.theta, full_if_equal))

    @classmethod
    def from_angles(cls, start: float, sweep: float) -> "DirectedArc":
        s = normalize_angle(start)
        return cls(BoundaryPoint.from_angle(s),
                   BoundaryPoint.from_angle(s + sweep), sweep)


@dataclass(frozen=True)
class Rect:
    """Product of a u-arc and a w-arc on the torus, tagged with the block it
    belongs to and the side index whose transformation acts on the w-arc."""

    u_arc: DirectedArc
    w_arc: DirectedArc
    block: int
    gamma_index: int

    @property
    def area(self) -> float:
        return self.u_arc.sweep * self.w_arc.sweep


@dataclass(frozen=True, eq=False)
class RectArray:
    """A rectangle list as arrays, one row per rectangle: ``theta`` holds
    the angles of the u-arc's start and end and of the w-arc's start and
    end, ``sweep`` the u- and w-sweeps, ``block`` and ``gamma`` the tags of
    ``Rect``."""

    theta: np.ndarray     # (n, 4)
    sweep: np.ndarray     # (n, 2)
    block: np.ndarray     # (n,)
    gamma: np.ndarray     # (n,)

    @classmethod
    def of(cls, rects: Sequence[Rect]) -> "RectArray":
        arcs = [(r.u_arc, r.w_arc) for r in rects]
        theta = np.array([(u.start.theta, u.end.theta, w.start.theta,
                           w.end.theta) for u, w in arcs]).reshape(-1, 4)
        sweep = np.array([(u.sweep, w.sweep) for u, w in arcs]).reshape(-1, 2)
        tags = np.array([(r.block, r.gamma_index) for r in rects],
                        dtype=np.int64).reshape(-1, 2)
        return cls(theta, sweep, tags[:, 0], tags[:, 1])

    def __len__(self) -> int:
        return len(self.sweep)

    def take(self, rows) -> "RectArray":
        return RectArray(self.theta[rows], self.sweep[rows], self.block[rows],
                         self.gamma[rows])

    @property
    def area(self) -> np.ndarray:
        return self.sweep[:, 0] * self.sweep[:, 1]

    def intervals(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``seam_split`` of the u-arcs and of the w-arcs."""
        u, w = seam_split(self.theta[:, 0::2].T, self.sweep.T)
        return u, w


# -- intervals and their overlaps ---------------------------------------------

def seam_split(start: np.ndarray, sweep: np.ndarray) -> np.ndarray:
    """(..., 2, 2) plain intervals within [0, 2pi] of the arcs (start,
    sweep): the arc from lo = start mod 2pi up to lo + sweep, cut at 2pi when
    it runs more than 1e-15 past it, the rest then from 0; an arc of one
    interval is padded with the empty interval (0, 0)."""
    lo = np.mod(start, TAU)
    hi = lo + sweep
    out = np.zeros(lo.shape + (2, 2))
    out[..., 0, 0] = lo
    out[..., 0, 1] = np.minimum(hi, TAU)
    out[..., 1, 1] = np.where(hi > TAU + 1e-15, hi - TAU, 0.0)
    return out


def cayley(theta) -> np.ndarray:
    """Cayley coordinate x = -cot(theta / 2) = i (1 + z) / (1 - z), z =
    exp(i theta), of each angle, increasing on (0, 2pi); the seam theta = 0
    is x = -inf, as is an angle under 2e-300, whose x would overflow p x in
    a real Moebius step x -> (p x + q) / (r x + s).  No floating-point
    error of its own raises or warns, whatever the caller's error state:
    halving a subnormal angle underflows."""
    with np.errstate(all="ignore"):
        h = 0.5 * np.asarray(theta, dtype=float)
        x = -np.cos(h) / np.sin(h)
        return np.where(x < -1e300, -np.inf, x)


def cayley_angle(x: np.ndarray) -> np.ndarray:
    """The angle in [0, 2pi] of each Cayley coordinate: 0 at -inf, 2pi at
    +inf."""
    return 2.0 * np.arctan2(1.0, -x)


def clip_intervals(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(n, p q, 2) intersections of row i's p intervals in x with its q
    intervals in y; an empty one has hi <= lo."""
    lo = np.maximum(x[:, :, None, 0], y[:, None, :, 0])
    hi = np.minimum(x[:, :, None, 1], y[:, None, :, 1])
    return np.stack([lo, hi], axis=-1).reshape(len(x), -1, 2)


def _breakpoints(values: np.ndarray) -> np.ndarray:
    """Sorted distinct values (``np.unique`` loads three more modules on its
    first call, which shows in the peak memory)."""
    v = np.sort(values, axis=None)
    return np.concatenate((v[:1], v[1:][v[1:] != v[:-1]]))


def _overlap_lengths(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Overlap lengths of the padded interval pairs x[..., :, :] and
    y[..., :, :], broadcast against each other (``x[:, None]`` against y
    gives every pair), summed with x's intervals outer and y's inner."""
    total = 0.0
    for a in range(2):
        for b in range(2):
            ov = np.minimum(x[..., a, 1], y[..., b, 1])
            ov -= np.maximum(x[..., a, 0], y[..., b, 0])
            total += np.maximum(ov, 0.0, out=ov)
    return total
