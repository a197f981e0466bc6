"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: ConfigError -> 1, DataError -> 2,
NumericalError -> 3.  Structural errors (shape mismatches, empty
aggregations) are programming-contract violations and raise ValueError
subclasses that are not expected to escape a correct run.
"""


class ConfigError(ValueError):
    """Invalid, out-of-range, or unknown configuration value."""


class DataError(ValueError):
    """Malformed or out-of-contract input data."""


class ParseError(DataError):
    """Unparseable input line; message carries the 1-based line number."""

    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


class NumericalError(ArithmeticError):
    """Non-finite loss, gradient, or parameter encountered.  ``owner``, if
    set, is the position of the failing client in its batched call."""

    owner: int | None = None


class ShapeMismatchError(ValueError):
    """Block lists or vectors with incompatible shapes."""


class RoundError(ValueError):
    """A training round produced no usable client results."""


class EvaluationError(ValueError):
    """Evaluation requested for a client without the required state."""
