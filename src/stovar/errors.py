"""Exception types shared across the package."""


class StovarError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(StovarError):
    """Operands have incompatible or unusable dimensions."""


class NotSquareError(DimensionError):
    """A square matrix was required."""


class DomainMismatchError(StovarError):
    """Rational and float values were mixed in one operation."""


class NotTypedError(StovarError):
    """The matrix has no constant column sum."""


class NotTypeOneError(StovarError):
    """The matrix is not of type 1 (column sums all equal to one)."""


class NonPositiveTypeError(StovarError):
    """A strictly positive column-sum type was required."""


class NegativeEntryError(StovarError):
    """A matrix with non-negative entries was required."""


class NonUniqueFixedVectorError(StovarError):
    """No unique fixed vector with entry sum one exists."""


class VsumNotOneError(StovarError):
    """A vector with entry sum one was required."""


class ZeroVariationError(StovarError):
    """A matrix with positive variation was required."""


class MatrixParseError(StovarError):
    """A matrix file, or an entry string, could not be parsed."""
