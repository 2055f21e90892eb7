"""Exception types shared across the library.

Every error raised intentionally by widthlab derives from ``WidthlabError``
so callers (and the CLI) can distinguish library failures from bugs.
"""


class WidthlabError(Exception):
    """Base class for all widthlab errors."""


class CapExceeded(WidthlabError):
    """A requested enumeration or grid would exceed the configured cap."""


class InvalidCapSetting(WidthlabError):
    """The ``WIDTHLAB_CAP`` environment variable is not a positive integer."""


class DimensionMismatch(WidthlabError):
    """Operands disagree on the ambient dimension d."""


class ParameterOutOfRange(WidthlabError):
    """A numeric parameter violates a documented precondition."""


class ScaleNotUnit(WidthlabError):
    """Operation requires a unit-scale polynomial (rho = 1)."""


class WrongMeasure(WidthlabError):
    """Operation requires a different base measure than the grid provides."""


class UnsupportedCombination(WidthlabError):
    """Quadrature spec combines measure/scheme/fields incoherently."""


class OutOfSupport(WidthlabError):
    """A bias value lies outside the mixture's support interval."""


class WeightNotInSupport(WidthlabError):
    """Weight vector is not a normalized lattice direction of the ball."""


class WeightsNotNormalized(WidthlabError):
    """Quadrature weights do not sum to 1 within rounding."""


class NotUnitNorm(WidthlabError):
    """Family member fails the unit-norm requirement."""


class EmptyFeatureList(WidthlabError):
    """A span fit was requested over zero features."""


class DegreeCap(WidthlabError):
    """Polynomial degree exceeds the stability/enumeration cap."""


class NegativeIndex(WidthlabError):
    """Hermite multi-indices must be componentwise nonnegative."""


class PackingFailed(WidthlabError):
    """Sphere packing could not reach the requested separation."""
