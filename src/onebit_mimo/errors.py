"""Exception types raised across the simulator."""


class OneBitMimoError(Exception):
    """Base class for all errors raised by this package."""


class NotPositiveDefiniteError(OneBitMimoError):
    """A Hermitian system did not factor by Cholesky, or its solve was not
    finite. For a combiner's system it marks a rank-deficient draw, which
    the sweep redraws."""


class ArcsinDomainError(OneBitMimoError):
    """An entry of a normalized covariance fell outside [-1, 1] by more than
    the rounding band, so the elementwise arcsine is undefined."""


class UnsupportedModulationError(OneBitMimoError):
    """Requested constellation name is not one of the supported modulations."""


class LengthMismatchError(OneBitMimoError):
    """Bit sequence length is not a multiple of bits-per-symbol."""


class UnknownSymbolError(OneBitMimoError):
    """A symbol to demap is not a point of the given constellation."""


class DegenerateCovarianceError(OneBitMimoError):
    """Received covariance has a non-finite or non-positive diagonal entry."""


class DegenerateDenominatorError(OneBitMimoError):
    """A per-user equalization denominator is numerically zero."""


class ZeroVectorError(OneBitMimoError):
    """Cannot rescale the zero vector."""


class UsageError(OneBitMimoError):
    """Invalid command-line or config-file input."""
