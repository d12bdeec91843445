"""Exception types shared across the package."""


class IncompatError(Exception):
    """Base class for all package-specific errors."""


class InvalidDimensionError(IncompatError, ValueError):
    """A dimension argument is zero, negative, or otherwise unusable."""


class InvalidParameterError(IncompatError, ValueError):
    """A numeric parameter (an angle, a seed or a tolerance) is NaN, infinite
    or out of range."""


class UnitarityError(IncompatError, ValueError):
    """A matrix failed the unitarity check at the requested tolerance."""


class MatrixFormatError(IncompatError, ValueError):
    """A matrix file could not be parsed (bad syntax, position in message)."""


class MatrixShapeError(IncompatError, ValueError):
    """Parsed matrix data has inconsistent row lengths or declared shape."""


class NonFiniteEntryError(IncompatError, ValueError):
    """A matrix or vector contains NaN or infinite components."""


class ZeroVectorError(IncompatError, ValueError):
    """A state vector is numerically zero where a nonzero state is required."""


class NoKernelError(IncompatError, ValueError):
    """A kernel witness was requested for a submatrix that is full rank."""


class DimensionCapError(IncompatError):
    """The brute-force subset search was refused because d exceeds the cap."""


class DegenerateWitnessError(IncompatError, ArithmeticError):
    """A rebuilt witness disagrees with its search subsets: the rank and zero
    thresholds disagree about a numerically near-degenerate input."""
