"""Exception types shared across the package."""


class FuchsianError(Exception):
    """Base class for all errors raised by this package."""


class NonFinite(FuchsianError):
    """A matrix entry or point coordinate is NaN or infinite."""


class InvalidSignature(FuchsianError):
    """Signature violates t >= 1, m_i >= 2, or the area condition."""


class NotElliptic(FuchsianError):
    """Operation requires an elliptic (interior) vertex."""


class CustomPointOutOfRange(FuchsianError):
    """A custom partition point lies outside its admissible open arc."""

    def __init__(self, vertex_index: int, message: str = ""):
        self.vertex_index = vertex_index
        super().__init__(message or f"partition point at vertex {vertex_index} out of range")


class TilingViolation(FuchsianError):
    """The w-arcs of the attractor's rectangles do not tile the circle."""

