"""Exception types shared across the package."""

__all__ = ["MaxplusError", "ShapeError", "PreconditionError", "ConsistencyError", "MatrixParseError"]


class MaxplusError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(MaxplusError):
    """Operands have incompatible dimensions."""


class PreconditionError(MaxplusError):
    """A documented precondition of an operation was violated."""


class ConsistencyError(MaxplusError):
    """Two independently computed routes disagreed; indicates a bug."""


class MatrixParseError(MaxplusError):
    """A matrix file failed to parse."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")
