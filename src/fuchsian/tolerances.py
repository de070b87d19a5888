"""Central numeric tolerances and the verdict record.

The geometry itself is exact; every tolerance below is an artifact decision,
kept in this module so the whole numerical contract is auditable.  Three
fixed constants decide how objects are built: which float angles count as
one point.  The one ``Tolerances`` record, ``DEFAULT``, holds only bounds:
every check is held to it, and each ``Check`` keeps the bound it was judged
against, so a verdict depends on the check's inputs alone.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields


# an angle this close to a cut or corner lies on it; also membership slack
STRUCTURAL = 1e-10
# angular resolution: angles this close are one angle, so the seam has one
# representative (0), and an arc this close to sweep 0 or 2pi is empty or full
WRAP = 1e-12
# orbit revisits, refinement points and w-arc junctions this close coincide
SAME_POINT = 1e-9


@dataclass(frozen=True)
class Tolerances:
    spectral: float = 1e-8      # |trace| classification margin
    residual: float = 1e-9      # matching/Markov/area/measure residual budget
    overlap: float = 1e-12      # interior disjointness of rectangle unions


DEFAULT = Tolerances()


def active() -> Tolerances:
    """The record every check is held to."""
    return DEFAULT


@dataclass(frozen=True)
class Check:
    """One verdict: a measured residual and the bound it is held to.  It
    passes when ``residual < bound``, so a NaN residual fails."""

    residual: float
    bound: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return bool(self.residual < self.bound)

    @property
    def headroom(self) -> float:
        """residual / bound: how near the residual came to its bound."""
        return self.residual / self.bound


@dataclass(frozen=True)
class Report:
    """Named checks next to the payload fields of a subclass; it passes when
    every check passed."""

    checks: dict[str, Check] = field(kw_only=True)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def to_dict(self) -> dict:
        """The payload fields, then each check with its headroom, then the
        verdict."""
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name != "checks"}
        out["checks"] = {name: {**asdict(c), "headroom": c.headroom,
                                "passed": c.passed}
                         for name, c in self.checks.items()}
        return out | {"passed": self.passed}
