"""Exception types shared across the package.

The CLI maps ValidationError to exit code 1 and NumericalError to exit code 2.
"""


class ValidationError(ValueError):
    """Bad user input: config values, malformed files, violated preconditions."""


class NumericalError(RuntimeError):
    """Numerical failure: singular drag matrix, degenerate solve, non-finite result."""
