"""Exception hierarchy shared by the whole package.

Three categories, mirroring the CLI exit codes: bad arguments or
parameters (exit 2), bad or insufficient data (exit 3), and numerical
failures such as overflow or non-convergence (exit 4).  Numeric guards
convert with :func:`_float`, so that they raise the first category.
"""


class PermzError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ValidationError(PermzError, ValueError):
    """A parameter or argument violates its documented domain."""

    exit_code = 2


class DataError(PermzError, ValueError):
    """Input data is unusable: too short, non-finite, unnormalized,
    or a census is saturated where decay is required."""

    exit_code = 3


class NumericalError(PermzError, ArithmeticError):
    """A numerical routine failed: overflow, or an iteration that did
    not reach its residual target."""

    exit_code = 4


def _float(value) -> float:
    """``float(value)``, or nan where ``float`` refuses the value or
    overflows on it, so that a guard's finite check raises its own error."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        return float("nan")
