"""Exception types shared across the library.

Every error raised intentionally by widthlab derives from ``WidthlabError``
so callers (and the CLI) can distinguish library failures from bugs.
"""


class WidthlabError(Exception):
    """Base class for all widthlab errors."""


class InvalidInput(WidthlabError):
    """An argument or setting violates a documented precondition (CLI exit 2)."""


class CapExceeded(WidthlabError):
    """A requested enumeration or grid would exceed the configured cap (CLI exit 3)."""


class NumericalFailure(WidthlabError):
    """An otherwise valid computation failed numerically (CLI exit 4)."""


class InvalidCapSetting(InvalidInput):
    """The ``WIDTHLAB_CAP`` environment variable is not a positive integer."""


class DimensionMismatch(InvalidInput):
    """Operands disagree on the ambient dimension d."""


class ParameterOutOfRange(InvalidInput):
    """A numeric parameter violates a documented precondition."""


class ScaleNotUnit(InvalidInput):
    """Operation requires a unit-scale polynomial (rho = 1)."""


class WrongMeasure(InvalidInput):
    """Operation requires a different base measure than the grid provides."""


class UnsupportedCombination(InvalidInput):
    """Quadrature spec combines measure/scheme/fields incoherently."""


class NegativeIndex(InvalidInput):
    """Hermite multi-indices must be componentwise nonnegative."""


class DegreeCap(CapExceeded):
    """Polynomial degree exceeds the stability/enumeration cap."""


class OutOfSupport(NumericalFailure):
    """A bias value lies outside the mixture's support interval."""


class WeightNotInSupport(NumericalFailure):
    """Weight vector is not a normalized lattice direction of the ball."""


class WeightsNotNormalized(NumericalFailure):
    """Quadrature weights do not sum to 1 within rounding."""


class NotUnitNorm(NumericalFailure):
    """Family member fails the unit-norm requirement."""


class EmptyFeatureList(NumericalFailure):
    """A span fit was requested over zero features."""


class PackingFailed(NumericalFailure):
    """Sphere packing could not reach the requested separation."""
