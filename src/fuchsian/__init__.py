"""Canonical quasi-ideal polygons, piecewise boundary maps, and rectangular
attractors for Fuchsian signatures with at least one cusp."""

from .errors import (CustomPointOutOfRange, FuchsianError, InvalidSignature,
                     NonFinite, NotElliptic, TilingViolation)
from .mobius import BoundaryPoint, DiskPoint, MoebiusPSU, geodesic_circle
from .polygon import (MarkedPolygon, Signature, SignatureString,
                      build_canonical, signature_string, validate_polygon)
from .boundary import (CycleData, Partition, cycle, make_partition,
                       markov_check, verify_matching)
from .arcs import DirectedArc, Rect
from .extension import (AttractorDomain, EntryTrace, build_attractor,
                        check_forward_invariance, phi_set, simulate_entry,
                        verify_bijectivity)
from .render import FigureSpec, render_attractor, render_polygon

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
