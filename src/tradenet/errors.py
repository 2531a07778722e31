"""Exception types shared across the package."""


class TradeNetError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(TradeNetError):
    """Structurally malformed input; carries the 1-based line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(TradeNetError):
    """Well-formed input that violates a domain invariant."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class EmptyNetworkError(TradeNetError):
    """A network build produced no edges."""


class EmptyInputError(TradeNetError):
    """An operation received no data."""


class DomainError(TradeNetError):
    """Argument outside the mathematical domain of the operation."""


class InsufficientDataError(TradeNetError):
    """Too few points or bins to carry out a fit."""


class DegenerateDataError(TradeNetError):
    """Data collapses to a single point (for example zero variance)."""
