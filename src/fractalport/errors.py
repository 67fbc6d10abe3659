"""Exception hierarchy.

Three branches map onto the CLI exit codes: configuration problems (exit 2),
data problems (exit 3) and numerical problems (exit 4).
"""

__all__ = [
    "FractalPortError",
    "ParameterError",
    "DataError",
    "ParseError",
    "ValidationError",
    "InsufficientDataError",
    "NumericalError",
    "DegenerateSeriesError",
    "DegenerateVolatilityError",
    "SingularMatrixError",
    "EmptyPortfolioError",
]


class FractalPortError(Exception):
    """Base class for all library errors."""


class ParameterError(FractalPortError):
    """A parameter or configuration value is outside its documented range."""


class DataError(FractalPortError):
    """Input data cannot be used as provided."""


class ParseError(DataError):
    """A file could not be parsed; the message names the offending line."""


class ValidationError(DataError):
    """Parsed data violates a documented invariant."""


class InsufficientDataError(DataError):
    """Too few observations for the requested computation."""


class NumericalError(FractalPortError):
    """A computation is numerically impossible on these inputs."""


class DegenerateSeriesError(NumericalError):
    """Series has no amplitude variation at any scale (e.g. constant)."""


class DegenerateVolatilityError(NumericalError):
    """Spread volatility is zero; Kelly weight undefined."""


class SingularMatrixError(NumericalError):
    """A regularized covariance holds a value that is not finite, or its
    ridge is not positive (a zero matrix)."""


class EmptyPortfolioError(NumericalError):
    """No spread retained a positive weight; nothing to allocate."""
