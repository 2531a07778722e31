"""Exception types shared across the package."""


class TradeNetError(Exception):
    """Base class for all errors raised by this package."""


class _LineError(TradeNetError):
    """An error about input; given the 1-based ``line`` N it is about, its
    message starts with ``line N: ``."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ParseError(_LineError):
    """Structurally malformed input; carries the 1-based line number."""


class ValidationError(_LineError):
    """Well-formed input that violates a domain invariant."""


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
