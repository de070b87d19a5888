"""Central numeric tolerances and the verdict record.

The geometry itself is exact; every tolerance below is an artifact decision,
kept in this module so the whole numerical contract is auditable.  Three
fixed constants decide how objects are built: which float angles count as
one point.  A ``Tolerances`` record holds only bounds: checks read the
record of the current context through ``active()`` when they run, and each
``Check`` keeps the bound it was judged against, so a report's verdict is
the one reached then.  ``with profile(name):`` selects a named record for
the block; the selection is context-local, so other threads see the default
record.  A profile never changes what is built, only how large a residual
may be.
"""

from __future__ import annotations

from contextvars import ContextVar
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

_PROFILES = {
    "default": DEFAULT,
    "strict": Tolerances(spectral=1e-10, residual=1e-11, overlap=1e-13),
    "loose": Tolerances(spectral=1e-6, residual=1e-7, overlap=1e-10),
}

_active: ContextVar[Tolerances] = ContextVar("tolerances", default=DEFAULT)


def active() -> Tolerances:
    return _active.get()


class profile:
    """Scope in which the named profile is the active record.

    An unknown name raises ``KeyError`` here, before any scope is entered.
    """

    def __init__(self, name: str):
        try:
            self.tols = _PROFILES[name]
        except KeyError:
            raise KeyError(f"unknown tolerance profile {name!r}; "
                           f"choose from {sorted(_PROFILES)}") from None

    def __enter__(self) -> Tolerances:
        self._token = _active.set(self.tols)
        return self.tols

    def __exit__(self, *exc) -> None:
        _active.reset(self._token)


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


@dataclass(frozen=True)
class Report:
    """Named checks next to the payload fields of a subclass; it passes when
    every check passed."""

    checks: dict[str, Check] = field(kw_only=True)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def to_dict(self) -> dict:
        """The payload fields, then each check, then the verdict."""
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name != "checks"}
        out["checks"] = {name: {**asdict(c), "passed": c.passed}
                         for name, c in self.checks.items()}
        return out | {"passed": self.passed}
