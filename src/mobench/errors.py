"""Exception types shared across the toolkit.

Each class is one way to fail, and the CLI maps it to one exit code: bad
input or configuration (:class:`InvalidInputError`,
:class:`InvalidConfigError`) exits 2, an unreadable results file
(:class:`FrontFileError`) exits 3, and a misbehaving evaluator
(:class:`EvaluationError`) exits 4.
"""


class InvalidInputError(ValueError):
    """Raised when an operation receives data violating its preconditions."""


class InvalidConfigError(ValueError):
    """Raised when a configuration value is out of its legal range."""


class InvalidStateError(RuntimeError):
    """Raised when an operation is called on an object in the wrong state."""


class EvaluationError(RuntimeError):
    """Raised when an objective evaluator misbehaves (non-finite output,
    wrong arity); the message names the row, the objective and ``x``."""


class FrontFileError(OSError):
    """Raised when a results file (a front CSV or a campaign summary JSON)
    cannot be parsed."""
