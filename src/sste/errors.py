"""Exception types shared across the package."""


class SsteError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(SsteError, ValueError):
    """An input violates a documented precondition or invariant."""


class ParseError(SsteError, ValueError):
    """A text input could not be parsed.

    Carries the 1-based line number when the failure is tied to a line.
    """

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class MetricUndefinedError(SsteError, ValueError):
    """A metric has no defined value on the given input."""


class TrainingDivergedError(SsteError, RuntimeError):
    """Loss or parameters became non-finite during optimization."""
