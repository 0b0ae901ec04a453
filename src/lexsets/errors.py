"""Exception types shared across the toolkit."""


class LexsetsError(Exception):
    """Base class for all toolkit errors."""


class ConllParseError(LexsetsError):
    """A malformed token line or an invalid sentence in a CoNLL stream."""

    def __init__(self, message: str, line_number: int | None = None, path: str | None = None):
        self.reason = message
        self.line_number = line_number
        self.path = path
        if line_number is not None:
            message = f"line {line_number}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)

    def __reduce__(self):
        # Keeps the fields when a worker process sends the error back.
        return type(self), (self.reason, self.line_number, self.path)


class VectorFormatError(LexsetsError):
    """A malformed line in a word-vector text file."""

    def __init__(self, message: str, line_number: int | None = None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


class DimensionMismatchError(LexsetsError):
    """Vectors of different dimensions were combined."""


class DegenerateVectorError(LexsetsError):
    """A zero-norm vector has no direction, so cosine metrics are undefined."""


class EmptySetError(LexsetsError):
    """An operation that needs at least one data point received none."""


class InputError(LexsetsError):
    """Inconsistent caller-supplied data (mismatched keys, missing verbs)."""


class UndefinedCorrelationError(LexsetsError):
    """Correlation is undefined because one ranking is constant."""


class PlotSpecError(LexsetsError):
    """A plot specification does not match its declared kind."""


class ConfigError(LexsetsError):
    """A run configuration file is malformed or incomplete."""
