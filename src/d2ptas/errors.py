"""Exception types shared across the package."""


class ClusteringError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(ClusteringError):
    """Operands have incompatible coordinate dimensions."""


class DomainError(ClusteringError):
    """A point violates the validity domain of a divergence measure."""


class EmptySet(ClusteringError):
    """An operation that needs at least one element received none."""


class InsufficientPoints(ClusteringError):
    """Fewer data points than requested centers."""


class ConfigError(ClusteringError):
    """Invalid or inconsistent algorithm configuration."""


class TooLarge(ClusteringError):
    """Instance exceeds the exact oracle's size cap."""


class UnsupportedMeasure(ClusteringError):
    """The divergence measure lacks a property the operation requires."""


class ParseError(ClusteringError):
    """Malformed input file."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class RaggedRows(ParseError):
    """CSV rows with inconsistent column counts."""


class EmptyFile(ParseError):
    """Input file contains no data rows."""
