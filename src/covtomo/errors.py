"""Exception hierarchy for the toolkit.

The CLI maps these onto exit codes: configuration problems exit 2, data
problems exit 3, violated internal invariants exit 4. A data gap has one
class wherever it is met: a receiver not in the log is an InputError, and
a receiver or pair with fewer than 2 samples an InsufficientDataError.
"""


class TomographyError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(TomographyError):
    """Invalid or inconsistent configuration."""


class DataError(TomographyError):
    """Problems with measurement data or operation arguments."""


class InputError(DataError):
    """An argument violates an operation's preconditions."""


class InsufficientDataError(DataError):
    """Too few aligned samples to estimate anything."""


class LogFormatError(DataError):
    """Malformed measurement log."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class InvariantError(TomographyError):
    """An internal invariant was violated; indicates a bug or corrupted state."""
